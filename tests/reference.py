"""Independent references the tests compare the library against.

Each helper computes by a route the library does not take: Gauss-table
value ids from the Z[zeta_m] coordinates of the rows (`ring_value_ids`,
digests with an exact recheck wherever they meet), where the library
numbers them from Stickelberger valuations and Gross-Koblitz unit
residues, and signature classes from those ids; the etale scan from
products multiplied in Z[zeta_m] inside the master tower, where the
library keys them by integers; the lemma suite one pair at a time, on
digit vectors, where the library compares arrays over one digit table; a
character value from its defining formula; absolute traces from Newton's
identities on the modulus; the tower's modulus, generator and multiply-by-g
matrix on numpy coefficient arrays, where the library works on lists of
Python ints; Phi_m by stretching the squarefree-radical polynomial;
Frobenius orbits by walking them; p-free factorials by a loop; the digit
statistics t, window values and Gamma_p by the digit window one digit
vector at a time, where the library reads digit tables; and the p-adic
side twice: embedded Gauss sums through Z[zeta_m] (`ring_embed_rows`:
power-basis rows of the Gauss table times an image matrix of img(zeta_m)^k,
doubled through Kronecker products of the two lifts' matrices), where the
library reads them from histograms over (zeta_p power, teich(g) power);
and a schoolbook product of (p-1, n) coordinate arrays, which reduces x^n
by the modulus and pi^(p-1) by -p where the library multiplies matrices.
On the schoolbook product the p-adic verifiers run one exponent at a time
on sequential image powers, with valuations read off coordinates and
pi-divisions one step at a time, at the precision n(p-1) + window + 8
(window 0 for Stickelberger), far above the library's.
"""

import functools
import itertools
import math

import numpy as np

from gausslab import digits
from gausslab.chars import MultChar, orbit_count, orbit_minima, regular_exponents, ring_for
from gausslab.converse import Assertion, Report, _check_pairs, _partitions, check, convention_stamp
from gausslab.cyclo import _I64_SAFE, _cyclotomic_radical, canonical_key
from gausslab.errors import ArgumentError
from gausslab.ff import DEFAULT_MAX_ELEMENTS, build_tower, check_field
from gausslab.gauss import GaussTable, gauss_S
from gausslab.numth import prime_divisors, proper_divisors, radical
from gausslab.padic import (GrossKoblitzReport, StickelbergerReport, _matmul_mod, _matpow_mod,
                            embedding_for)


def _digest(key):
    """A digest of a `cyclo.canonical_key`: equal keys, equal digests.  Rows
    whose digests meet are compared in full (`ring_value_ids`), so the
    digest's quality costs only rechecks, never exactness."""
    return hash(key)


def ring_value_ids(tab):
    """An int64 id per row of the Gauss table `tab`, numbering the rows'
    exact values in first-seen order by their Z[zeta_m] coordinates.

    Each block of coordinate rows is kept only as the digests of its
    canonical keys; rows whose digests meet are recomputed and their keys
    compared in full before they share an id."""
    R = len(tab._exps)
    digests = np.empty(R, dtype=np.int64)
    for block in tab._blocks(R):
        digests[block] = [_digest(canonical_key(row)) for row in tab._coordinates(block)]
    _, first, inverse, count = np.unique(digests, return_index=True, return_inverse=True,
                                         return_counts=True)
    # same[r] is the first row with the value of row r: the first row with
    # its digest, unless that digest is shared, when the rows that share it
    # are recomputed (in ascending order) and keyed exactly
    same = first[inverse]
    shared = np.flatnonzero(count[inverse] > 1)
    seen = {}
    for block in tab._blocks(len(shared)):
        for r, row in zip(shared[block].tolist(), tab._coordinates(shared[block])):
            same[r] = seen.setdefault(canonical_key(row), r)
    return np.unique(same, return_inverse=True)[1].astype(np.int64)


def signature_classes(tab, exps, stride, n_twists):
    """Partition `exps` by the exact sums of their twists e + k*stride,
    k < n_twists, read as `ring_value_ids` of the Gauss table `tab`: classes
    in first-seen order, members in input order."""
    ids = ring_value_ids(tab)
    classes = {}
    for e in exps:
        key = ids[tab.row_of[(e + stride * np.arange(n_twists)) % tab.mult_order]].tobytes()
        classes.setdefault(key, []).append(e)
    return list(classes.values())


def value_ids(rows, ids=None):
    """An int64 id per row, equal for two rows exactly when their
    coefficients are equal: the ids number the `canonical_key`s of the rows
    in first-seen order.  `ids` (key -> id) is extended in place, so callers
    that pass one dict get one numbering across all their rows."""
    ids = {} if ids is None else ids
    return np.array([ids.setdefault(canonical_key(row), len(ids)) for row in rows], dtype=np.int64)


# ---------------------------------------------------------------------------
# the etale scan and the lemma suite by their Z[zeta_m] and pairwise routes


def cyclic_window_product(v, m):
    """V_m of one digit vector: prod over i of (window at i)!', mod p^(m+1)."""
    modulus = v.p ** (m + 1)
    out = 1
    for i in range(1, v.n + 1):
        out = out * digits.prime_free_factorial(window_value(v, i, m), v.p, modulus) % modulus
    return out


def cyclic_run(v, value):
    """(0-based start, length) when the places of one digit vector holding
    `value` form one cyclic run, (0, n) when every digit is `value`, None
    otherwise."""
    places = [i for i, d in enumerate(v.digits) if d == value]
    if len(places) == v.n:
        return 0, v.n
    # a run starts where the digit before it differs; d[-1] precedes d[0]
    starts = [i for i in places if v.digits[i - 1] != value]
    return (starts[0], len(places)) if len(starts) == 1 else None


def etale_gauss(tower, tables, parts, exps):
    """epsilon_A * G_A(chi) in Z[zeta_m] for the etale algebra A = prod_i
    F_{q^(d_i)}, d_i = parts[i], and its character chi = (chi_{c_i}),
    c_i = exps[i].

    Every factor is the subfield F_{q^(d_i)} of the tower, so d_i must divide
    n, and c_i is indexed against Nr_{n:d_i}(g) as in GaussTable.  G_A(chi)
    is the product of the factor sums S(chi_{c_i}), the rows of those tables,
    and epsilon_A = (-1)^(sum d_i - r).  `tables` maps d to
    GaussTable(tower, d); a missing degree is built into it, so callers that
    share one dict build each table once.  The empty product (n = 0) is 1.
    """
    if len(parts) != len(exps):
        raise ArgumentError(
            f"need one exponent per factor: got {len(exps)} for {len(parts)} factors"
        )
    factors = []
    for d, c in zip(parts, exps):
        if d not in tables:
            tables[d] = GaussTable(tower, d)
        factors.append(tables[d].element(c))
    prod = factors[0] if factors else ring_for(tower).one()
    for x in factors[1:]:
        prod = prod * x
    return -prod if (sum(parts) - len(parts)) % 2 else prod


def etale_scan_by_products(p, f, n, *, max_elements=DEFAULT_MAX_ELEMENTS):
    """`converse.etale_signature_scan` with every signed product multiplied
    out in Z[zeta_m] of the master tower of degree lcm(1..n), one
    `gauss.etale_gauss` call per character, and numbered by `value_ids`
    through one dict shared by every algebra."""
    if n < 1:
        raise ArgumentError(f"degree n must be positive, got n={n}")
    q = p**f
    L = math.lcm(*range(1, n + 1))
    check_field(p, f * L, max_elements)
    master = build_tower(p, f, L, max_elements=max_elements)
    NL = master.mult_order
    bound = n < (q - 1) / (2 * math.sqrt(q)) + 1
    tables = {}  # one subfield table per part degree, shared

    def divisor(parts, exps):
        points = []
        for d, c in zip(parts, exps):
            Nd = q**d - 1
            points.extend((c * pow(q, j, Nd) % Nd) * (NL // Nd) % NL for j in range(d))
        return tuple(sorted(points))

    classes, divisors_of, ids = {}, {}, {}
    n_chars = 0
    for parts in _partitions(n):
        chars = list(itertools.product(*(range(q**d - 1) for d in parts)))
        value_id = value_ids((etale_gauss(master, tables, parts, exps).coeffs for exps in chars), ids)
        # twisting by eta_k sends (c_i) to (c_i + k*(q^d_i - 1)/(q - 1)): read
        # its id at its mixed-radix index
        orders = np.array([q**d - 1 for d in parts], dtype=np.int64)
        place = np.array([math.prod(orders[i + 1:]) for i in range(len(parts))], dtype=np.int64)
        twists = np.arange(q - 1)[:, None] * (orders // (q - 1))
        exps_of = np.array(chars, dtype=np.int64).reshape(len(chars), len(parts))
        twist_rows = (exps_of[:, None, :] + twists) % orders @ place
        for exps, idx in zip(chars, twist_rows):
            n_chars += 1
            key = value_id[idx].tobytes()
            div = divisor(parts, exps)
            classes.setdefault(key, set()).add(div)
            divisors_of.setdefault(div, set()).add(key)

    shared = [list(d) for d, v in divisors_of.items() if len(v) > 1]
    result = {
        "p": p, "f": f, "n": n, "master_degree": L, "bound_satisfied": bound,
        "n_characters": n_chars, "n_signature_classes": len(classes),
        "n_divisors": len(divisors_of), "stamp": convention_stamp(master),
    }
    single = "signature-classes-are-single-divisors"
    return Report(result, [
        check("equal-divisors-share-signed-signatures", not shared,
              {"divisor": shared[0]} if shared else None),
        check(single, all(len(v) == 1 for v in classes.values())) if bound else
        Assertion(single, "inconclusive",
                  {"reason": "bound n < (q-1)/(2 sqrt q) + 1 not satisfied"}),
    ])


def _pair_lemma(name, groups, orbit_min, compare):
    """One "equal sums => equal statistics" statement over every pair of
    each group; `compare(a, b)` is None when the pair lies outside the
    statement's hypothesis, else the extras of its violations."""
    pairs = cross = 0
    violations = []
    for group in groups:
        for a, b in itertools.combinations(group, 2):
            found = compare(a, b)
            if found is None:
                continue
            pairs += 1
            cross += orbit_min[a] != orbit_min[b]
            violations.extend({"pair": [a, b], **extra} for extra in found)
    status = "fail" if violations else "pass" if pairs else "inconclusive"
    tally = {"pairs_tested": pairs, "cross_orbit_pairs": cross}
    return ({"name": name, **tally, "status": status},
            Assertion(f"lemma-{name}", status, {**tally, "violations": violations[:5]}))


def lemma_suite_pairwise(tower):
    """`converse.lemma_suite` one pair at a time: every statistic read from
    `digits.expand` and the scalar digit functions when a pair asks."""
    if tower.f != 1:
        raise ArgumentError("lemma suite runs over prime-base fields (q = p)")
    p, n, N = tower.p, tower.n, tower.mult_order
    _check_pairs(n * orbit_count(p, n) * (p + 1), "exponent")
    stride = N // (p - 1)
    regular = regular_exponents(tower)
    negated = [(-e) % N for e in regular]
    vecs = {e: digits.expand(p, n, e) for e in regular}
    orbit_min = orbit_minima(N, p, n).tolist()
    # every exponent keyed on its own: the sums and their inverses in one
    # numbering, and the twists of -e, the set of the -(e + k*stride)
    single = digits.product_labels(p, 1, [(1, (n,), np.array(regular + negated)[:, None])]).tolist()
    by_S = {}
    for e, label in zip(regular, single):
        by_S.setdefault(label, []).append(e)
    by_S = list(by_S.values())
    inverse_id = dict(zip(regular, single[len(regular):]))
    by_sig = [[(-x) % N for x in cls] for cls in digits.twist_classes(p, 1, n, negated)]

    @functools.cache
    def sums(e):
        return digits.digit_sum(vecs[e]), digit_factorial_mod_p(vecs[e]), inverse_id[e]

    @functools.cache
    def extremes(e):
        return max(vecs[e].digits), min(vecs[e].digits)

    @functools.cache
    def shifted_multisets(e):
        return tuple(tuple(sorted(digits.expand(p, n, (e + k * stride) % N).digits))
                     for k in range(p - 1))

    @functools.cache
    def windows(e):
        return tuple(cyclic_window_product(vecs[e], w) for w in (0, 1, 2))

    def placewise(key, stat, labels=None):
        def compare(a, b):
            names = labels or itertools.count()
            return [{key: name} for name, x, y in zip(names, stat(a), stat(b)) if x != y]
        return compare

    def runs(a, b):
        va, vb = vecs[a], vecs[b]
        (hi, lo), (hi_b, lo_b) = extremes(a), extremes(b)
        if hi - lo <= 1 or shifted_multisets(a) != shifted_multisets(b):
            return None
        found, tested = [], False
        for side, value_a, value_b in (("max", hi, hi_b), ("min", lo, lo_b)):
            run_a = cyclic_run(va, value_a)
            if run_a is None:
                continue
            tested = True
            run_b = cyclic_run(vb, value_b)
            if run_b is None:
                found.append({"side": side})
                continue
            (sa, la), (sb, lb) = run_a, run_b
            if la != lb:
                found.append({"side": side + "-mult"})
            elif va.digits[(sa + la) % n] != vb.digits[(sb + lb) % n]:
                found.append({"side": side + "-next"})
        return found if tested else None

    by_sig_in_scope = by_sig if n <= 5 else []
    rows = [
        _pair_lemma("equal-sums-match-digit-sum-and-factorial", by_S, orbit_min,
                    placewise("stat", sums, ("digit-sum", "digit-factorial", "inverse-sums"))),
        _pair_lemma("equal-signatures-match-extreme-digits", by_sig, orbit_min,
                    lambda a, b: [] if extremes(a) == extremes(b) else [{}]),
        _pair_lemma("equal-signatures-match-digit-multisets", by_sig_in_scope, orbit_min,
                    placewise("k", shifted_multisets)),
        _pair_lemma("equal-signatures-match-consecutive-runs", by_sig_in_scope, orbit_min, runs),
        _pair_lemma("equal-sums-match-windowed-products", by_S, orbit_min,
                    placewise("window", windows)),
    ]
    result = {"p": p, "n": n, "stamp": convention_stamp(tower), "lemmas": [row for row, _ in rows]}
    return Report(result, [assertion for _, assertion in rows])


# ---------------------------------------------------------------------------
# tower construction on numpy coefficient arrays (ascending int64), the
# library's route before it moved to Python ints: no root filter, a fresh
# x^(p^d) for every divisor, and every encoding tried as a generator


def ptrim(a):
    nz = np.nonzero(a)[0]
    if len(nz) == 0:
        return a[:0]
    return a[: nz[-1] + 1]


def pmul(a, b, p):
    if len(a) == 0 or len(b) == 0:
        return a[:0]
    return np.convolve(a, b) % p


def pmod(a, m, p):
    """a mod the monic m over F_p."""
    a = a % p
    deg_m = len(m) - 1
    a = ptrim(a).copy()
    while len(a) > deg_m:
        c = a[-1]
        if c:
            a[-deg_m - 1 : -1] = (a[-deg_m - 1 : -1] - c * m[:-1]) % p
        a = ptrim(a[:-1])
    return a


def ppowmod(base, e, m, p):
    result = np.ones(1, dtype=np.int64)
    acc = pmod(base, m, p)
    while e:
        if e & 1:
            result = pmod(pmul(result, acc, p), m, p)
        acc = pmod(pmul(acc, acc, p), m, p)
        e >>= 1
    return result


def pgcd(a, b, p):
    a, b = ptrim(a % p), ptrim(b % p)
    while len(b):
        inv = pow(int(b[-1]), p - 2, p) if p > 2 else 1
        bm = (b * inv) % p
        a, b = b, pmod(a, bm, p)
    if len(a):
        a = (a * pow(int(a[-1]), p - 2, p)) % p if p > 2 else a
    return a


def np_is_irreducible(modulus, p):
    """Rabin's certificate on numpy arrays."""
    modulus = np.asarray(modulus, dtype=np.int64)
    d = len(modulus) - 1
    if d < 1:
        return False
    x = np.array([0, 1], dtype=np.int64)
    for dd in proper_divisors(d):
        frob = ppowmod(x, p**dd, modulus, p)
        diff = np.zeros(max(len(frob), 2), dtype=np.int64)
        diff[: len(frob)] = frob
        diff[1] = (diff[1] - 1) % p
        g = pgcd(diff, modulus, p)
        if not (len(g) == 1 and g[0] == 1):
            return False
    frob = ppowmod(x, p**d, modulus, p)
    return np.array_equal(frob, pmod(x, modulus, p))


def np_smallest_irreducible(p, degree):
    for code in range(p**degree):
        coeffs = np.array([code // p**i % p for i in range(degree)] + [1], dtype=np.int64)
        if np_is_irreducible(coeffs, p):
            return tuple(int(c) for c in coeffs)
    raise AssertionError(f"no irreducible of degree {degree} over F_{p}")


def np_find_generator(p, modulus, N):
    if N == 1:
        return 1
    modulus = np.asarray(modulus, dtype=np.int64)
    degree = len(modulus) - 1
    for enc in range(2, p**degree):
        v = ptrim(np.array([enc // p**i % p for i in range(degree)], dtype=np.int64))
        if all(not np.array_equal(ppowmod(v, N // ell, modulus, p), [1]) for ell in prime_divisors(N)):
            return enc
    raise AssertionError("no generator found")


def np_mul_by_matrix(p, modulus, g_enc):
    """Column k is g * x^k mod the modulus."""
    modulus = np.asarray(modulus, dtype=np.int64)
    d = len(modulus) - 1
    gv = np.array([g_enc // p**i % p for i in range(d)], dtype=np.int64)
    mat = np.zeros((d, d), dtype=np.int64)
    for k in range(d):
        xk = np.zeros(k + 1, dtype=np.int64)
        xk[k] = 1
        col = pmod(pmul(gv, xk, p), modulus, p)
        mat[: len(col), k] = col
    return mat


def value_at(tower, e, x):
    """chi_e(x) = zeta_{q^n-1}^(e * dlog x) as an element of the tower's ring."""
    return ring_for(tower).zeta_pow(tower.p * e * tower.dlog(x))


def newton_trace_weights(p, modulus):
    """w[k] = Tr(x^k) via Newton's identities on the modulus coefficients."""
    d = len(modulus) - 1
    a = [int(modulus[d - i]) % p for i in range(d + 1)]  # a[i] = coeff of x^(d-i)
    s = np.zeros(d, dtype=np.int64)
    s[0] = d % p
    for k in range(1, d):
        acc = (k * a[k]) % p
        for i in range(1, k):
            acc = (acc + a[i] * s[k - i]) % p
        s[k] = (-acc) % p
    return s


def absolute_traces(tower):
    """Tr_{F_{q^n}/F_p}(g^j) for every j < q^n - 1."""
    weights = newton_trace_weights(tower.p, tower.modulus)
    return tower.exp_vec.astype(np.int64) @ weights % tower.p


def cyclotomic_poly(m):
    """Coefficients of Phi_m, ascending: Phi_rad(x^s) with s = m / rad(m)."""
    r = radical(m)
    base = _cyclotomic_radical(r)
    s = m // r
    out = [0] * ((len(base) - 1) * s + 1)
    out[::s] = base
    return out


def frobenius_orbit(tower, e):
    """The orbit of e under e -> q*e mod q^n - 1, sorted."""
    N, q = tower.mult_order, tower.q
    out = set()
    e %= N
    for _ in range(tower.n):
        out.add(e)
        e = e * q % N
    return sorted(out)


def prime_free_factorial(N, p, modulus):
    """N!' mod `modulus`, multiplied out from scratch."""
    out = 1
    for i in range(2, N + 1):
        if i % p:
            out = out * i % modulus
    return out


# ---------------------------------------------------------------------------
# the p-adic side one element at a time, on (p-1, n) coordinate arrays of
# Python ints, pi-degree major


def mul(ctx, a, b):
    """Schoolbook product in W[pi]/(pi^(p-1) + p), W = Z/p^K[x]/(modulus):
    x^n is reduced by the modulus and pi^(p-1) by -p."""
    e, n, pK = ctx.e, ctx.n, ctx.pK
    acc = [[0] * (2 * n - 1) for _ in range(2 * e - 1)]
    for i, j in itertools.product(range(e), range(n)):
        if a[i][j]:
            for k, l in itertools.product(range(e), range(n)):
                acc[i + k][j + l] += int(a[i][j]) * int(b[k][l])
    for row in acc:
        for d in range(2 * n - 2, n - 1, -1):  # x^d = -sum_j modulus[j] x^(d-n+j)
            top = row[d] % pK
            for j in range(n):
                row[d - n + j] -= top * ctx.modulus[j]
    for d in range(2 * e - 2, e - 1, -1):  # pi^d = -p pi^(d-e)
        acc[d - e] = [c - ctx.p * t for c, t in zip(acc[d - e], acc[d])]
    return np.array([[c % pK for c in row[:n]] for row in acc[:e]], dtype=object)


def power(ctx, a, k):
    out = scalar(ctx, 1)
    for bit in bin(k)[2:]:
        out = mul(ctx, out, out)
        if bit == "1":
            out = mul(ctx, out, a)
    return out


def scalar(ctx, c, s=0):
    """c * pi^s, with pi^(p-1) = -p."""
    wraps, r = divmod(s, ctx.e)
    out = np.zeros((ctx.e, ctx.n), dtype=object)
    out[r, 0] = c * (-ctx.p) ** wraps % ctx.pK
    return out


def from_w(ctx, w):
    """The element of W with coordinates w."""
    out = scalar(ctx, 0)
    out[0] = [int(c) % ctx.pK for c in w]
    return out


def valuation(ctx, x):
    """pi-adic valuation, None where the truncation reads >= the floor."""
    best = None
    for i, w in enumerate(x):
        vw = ctx.K
        for coord in w:
            coord = int(coord)
            if coord:
                v = 0
                while coord % ctx.p == 0:
                    v += 1
                    coord //= ctx.p
                vw = min(vw, v)
        if vw < ctx.K:
            cand = (ctx.p - 1) * vw + i
            best = cand if best is None else min(best, cand)
    return None if best is None or best >= ctx.prec_floor else best


def residue(ctx, x):
    """Reduction mod pi: the constant pi-coefficient mod p."""
    return tuple(int(c) % ctx.p for c in x[0])


def div_by_pi(ctx, x):
    """x / pi: the pi-coefficients move down one degree and pi^(p-1) = -p
    sends the constant coefficient to the top, divided by -p."""
    if any(int(v) % ctx.p for v in x[0]):
        raise ValueError("element has valuation 0; cannot divide by pi")
    top = [(-(int(v) // ctx.p)) % ctx.pK for v in x[0]]
    return np.concatenate([x[1:], np.array([top], dtype=object)])


def div_by_pi_power(ctx, x, s):
    for _ in range(s):
        x = div_by_pi(ctx, x)
    return x


def zeta_p_element(emb):
    """zeta_p, read off row 0 of its multiplication matrix; it lies in Z_p[pi]."""
    out = scalar(emb.ctx, 0)
    out[:, 0] = emb.zeta_p[0].tolist()
    return out


def teich_element(emb):
    """teich(g), read off row 0 of its multiplication matrix; it lies in W."""
    return from_w(emb.ctx, emb.teich_g[0].tolist())


@functools.cache
def image_powers(emb, count):
    """Coordinates of img(zeta_m)^k for k < count, one schoolbook product
    each, img(zeta_m) = zeta_p^a * teich(g)^b with a*N + b*p = 1 mod pN, as a
    (count, (p-1)*n) matrix of Python ints."""
    ctx, N = emb.ctx, emb.tower.mult_order
    img = mul(ctx, power(ctx, zeta_p_element(emb), pow(N, -1, ctx.p)),
              power(ctx, teich_element(emb), pow(ctx.p, -1, N)))
    pows = [scalar(ctx, 1)]
    while len(pows) < count:
        pows.append(mul(ctx, pows[-1], img))
    return np.array([x.ravel().tolist() for x in pows], dtype=object)


def ring_step_matrix(emb):
    """(D, D) matrix, D = (p-1)*n, of multiplication by img(zeta_m), so that
    a coordinate row v of x gives v @ M, the coordinates of x * img(zeta_m).

    zeta_m = zeta_p^a * zeta_N^b with a*N + b*p = 1 mod m, and the ring is
    Z/p^K[pi]/(pi^(p-1) + p) tensor W, so M is the Kronecker product of
    the two factors' multiplication matrices.
    """
    ctx, N = emb.ctx, emb.tower.mult_order
    Za = _matpow_mod(emb.zeta_p, pow(N, -1, ctx.p), ctx.pK)
    Tb = _matpow_mod(emb.teich_g, pow(ctx.p, -1, N), ctx.pK)
    return np.kron(Za.astype(object), Tb.astype(object)) % ctx.pK


def ring_image_matrix(emb, phi):
    """(phi, (p-1)*n) matrix whose row k is img(zeta_m)^k, pi-degree major.

    Built by doubling: rows L..2L-1 are rows 0..L-1 times M^L, M the step
    matrix, and M^L is squared between steps.  int64 while every entry
    (< p^K) fits with headroom, Python ints otherwise.
    """
    ctx = emb.ctx
    dtype = np.int64 if ctx.pK < _I64_SAFE else object
    power = ring_step_matrix(emb).astype(dtype)
    rows = np.zeros((phi, len(power)), dtype=dtype)
    rows[0, 0] = 1
    filled = 1
    while filled < phi:
        take = min(filled, phi - filled)
        rows[filled:filled + take] = _matmul_mod(rows[:take], power, ctx.pK)
        filled += take
        if filled < phi:
            power = _matmul_mod(power, power, ctx.pK)
    return rows


def ring_embed_rows(emb, C):
    """Embed every row of C, power-basis coefficients in Z[zeta_m], with one
    product against the image matrix; (rows, p-1, n).  With C the rows of a
    Gauss table (`GaussTable.rows`) this is the Z[zeta_m] route of the
    embedded Gauss sums."""
    ctx = emb.ctx
    return _matmul_mod(C, ring_image_matrix(emb, C.shape[1]), ctx.pK).reshape(len(C), ctx.e, ctx.n)


def embed_by_terms(emb, elt):
    """sum of c_k * img(zeta_m)^k over the sequential powers, in Python ints."""
    flat = elt.coeffs.astype(object) @ image_powers(emb, elt.ring.phi) % emb.ctx.pK
    return flat.reshape(emb.ctx.e, emb.ctx.n)


# digit statistics of one digit vector, the scalar forms of the digit-table
# arrays the verifiers read


def digit_factorial_mod_p(v):
    """t = prod d_i! mod p (each d_i < p, so the factorials are p-free)."""
    out = 1
    for d in v.digits:
        for k in range(2, d + 1):
            out = out * k % v.p
    return out


def window_value(v, i, m):
    """d_i + d_{i+1} p + ... + d_{i+m} p^m with cyclic digits, 1-based i."""
    out = 0
    for j in range(m, -1, -1):
        out = out * v.p + v.digits[(i + j - 1) % v.n]
    return out


def padic_gamma_window(i, v, m):
    """Gamma_p(1 - <p^(i-1) e / (p^n-1)>) mod p^(m+1) by the digit window.

    Equals (-1)^(1+w) * w!' where w is the width-(m+1) cyclic window reading
    the digits of p^(i-1) e from their lowest position; since multiplying by
    p rotates digit positions upward, that window starts at index 2-i of e's
    own digits.  The product over all i is start-independent.
    """
    if not 1 <= i <= v.n:
        raise ArgumentError(f"position {i} outside 1..{v.n}")
    modulus = v.p ** (m + 1)
    w = window_value(v, 2 - i, m)
    out = digits.prime_free_factorial(w, v.p, modulus)
    if (1 + w) % 2:
        out = (modulus - out) % modulus
    return out


def stickelberger_one(tower, e):
    """The Stickelberger report of one exponent, by the per-element route at
    precision n(p-1) + 8."""
    p, n, N = tower.p, tower.n, tower.mult_order
    e %= N
    v = digits.expand(p, n, e)
    s = digits.digit_sum(v)
    emb = embedding_for(tower, n * (p - 1) + 8)
    x = embed_by_terms(emb, gauss_S(MultChar(tower, -e)))
    mv = valuation(emb.ctx, x)
    congruence_ok = False
    if mv == s:
        t = digit_factorial_mod_p(v)
        res = residue(emb.ctx, div_by_pi_power(emb.ctx, x, s) * t)
        congruence_ok = res == (p - 1,) + (0,) * (n - 1)
    return StickelbergerReport(p=p, n=n, e=e, s=s, measured_valuation=mv,
                               valuation_ok=mv == s, congruence_ok=congruence_ok)


def gross_koblitz_one(tower, e, window):
    """The Gross-Koblitz report of one exponent, by the per-element route at
    precision n(p-1) + window + 8: multiply by pi^s(e), then divide by pi
    one step at a time."""
    p, n, N = tower.p, tower.n, tower.mult_order
    e %= N
    v = digits.expand(p, n, e)
    s = digits.digit_sum(v)
    mod = p ** (window + 1)
    prod_digit = prod_direct = 1
    for i in range(n):
        prod_digit = prod_digit * padic_gamma_window(i + 1, v, window) % mod
        x_int = (N - pow(p, i, N) * e % N) * pow(N, -1, mod) % mod
        prod_direct = prod_direct * digits.padic_gamma_int(x_int, p, mod) % mod
    emb = embedding_for(tower, n * (p - 1) + window + 8)
    ctx = emb.ctx
    x = embed_by_terms(emb, gauss_S(MultChar(tower, e)))
    valuation_ok = valuation(ctx, x) == n * (p - 1) - s
    identity_ok = False
    if valuation_ok:
        w = -div_by_pi_power(ctx, mul(ctx, x, scalar(ctx, 1, s)), n * (p - 1))
        want = [[prod_digit] + [0] * (n - 1)] + [[0] * n] * (p - 2)
        identity_ok = (w % mod).tolist() == want
    return GrossKoblitzReport(p=p, n=n, e=e, window=window,
                              gamma_digit_route=prod_digit, gamma_direct_route=prod_direct,
                              routes_agree=prod_digit == prod_direct,
                              valuation_ok=valuation_ok, identity_ok=identity_ok)
