"""Independent references the tests compare the library against.

Each helper computes by a route the library does not take: signature
classes from the value ids of Gauss-table rows in Z[zeta_m], where the
library decides equal sums from Stickelberger valuations and Gross-Koblitz
unit residues; a character value from its defining formula; absolute
traces from Newton's identities on the modulus; Phi_m by stretching the
squarefree-radical polynomial; Frobenius orbits by walking them; p-free
factorials by a loop; and the p-adic side by a schoolbook product of
(p-1, n) coordinate arrays, which reduces x^n by the modulus and pi^(p-1)
by -p where the library multiplies by Kronecker products of matrices.  On
it the p-adic verifiers run one exponent at a time on sequential image
powers, with valuations read off coordinates and pi-divisions one step at
a time.
"""

import functools
import itertools

import numpy as np

from gausslab import digits
from gausslab.chars import MultChar, ring_for
from gausslab.converse import _signature_key
from gausslab.cyclo import _cyclotomic_radical
from gausslab.gauss import gauss_S
from gausslab.numth import radical
from gausslab.padic import GrossKoblitzReport, StickelbergerReport, embedding_for


def signature_classes(tab, exps, stride, n_twists):
    """Partition `exps` by the exact sums of their twists e + k*stride,
    k < n_twists, read as value ids of the Gauss table `tab`: classes in
    first-seen order, members in input order."""
    classes = {}
    for e in exps:
        classes.setdefault(_signature_key(tab, e, stride, n_twists), []).append(e)
    return list(classes.values())


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


def embed_by_terms(emb, elt):
    """sum of c_k * img(zeta_m)^k over the sequential powers, in Python ints."""
    flat = elt.coeffs.astype(object) @ image_powers(emb, elt.ring.phi) % emb.ctx.pK
    return flat.reshape(emb.ctx.e, emb.ctx.n)


def stickelberger_one(tower, e):
    """The Stickelberger report of one exponent, by the per-element route."""
    p, n, N = tower.p, tower.n, tower.mult_order
    e %= N
    v = digits.expand(p, n, e)
    s = digits.digit_sum(v)
    emb = embedding_for(tower)
    x = embed_by_terms(emb, gauss_S(MultChar(tower, -e)))
    mv = valuation(emb.ctx, x)
    congruence_ok = False
    if mv == s:
        t = digits.digit_factorial_mod_p(v)
        res = residue(emb.ctx, div_by_pi_power(emb.ctx, x, s) * t)
        congruence_ok = res == (p - 1,) + (0,) * (n - 1)
    return StickelbergerReport(p=p, n=n, e=e, s=s, measured_valuation=mv,
                               valuation_ok=mv == s, congruence_ok=congruence_ok)


def gross_koblitz_one(tower, e, window):
    """The Gross-Koblitz report of one exponent, by the per-element route:
    multiply by pi^s(e), then divide by pi one step at a time."""
    p, n, N = tower.p, tower.n, tower.mult_order
    e %= N
    v = digits.expand(p, n, e)
    s = digits.digit_sum(v)
    mod = p ** (window + 1)
    prod_digit = prod_direct = 1
    for i in range(n):
        prod_digit = prod_digit * digits.padic_gamma_window(i + 1, v, window) % mod
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
