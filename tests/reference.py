"""Independent references the tests compare the library against.

Each helper computes by a route the library does not take: a character
value from its defining formula, absolute traces from Newton's identities
on the modulus, Phi_m by stretching the squarefree-radical polynomial,
Frobenius orbits by walking them, p-free factorials by a loop, and the
p-adic verifiers one exponent at a time on sequential image powers, with
valuations read off coordinate tuples and pi-divisions one step at a time.
"""

import functools

import numpy as np

from gausslab import digits
from gausslab.chars import MultChar, ring_for
from gausslab.cyclo import _cyclotomic_radical
from gausslab.gauss import gauss_S
from gausslab.numth import radical
from gausslab.padic import GrossKoblitzReport, RamifiedPadic, StickelbergerReport, embedding_for


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
# the p-adic side one element at a time


def valuation(x):
    """pi-adic valuation of a RamifiedPadic, None where the truncation reads >= the floor."""
    c = x.ctx
    best = None
    for i, w in enumerate(x.coeffs):
        vw = c.K
        for coord in w:
            if coord:
                v = 0
                while coord % c.p == 0:
                    v += 1
                    coord //= c.p
                vw = min(vw, v)
        if vw < c.K:
            cand = (c.p - 1) * vw + i
            best = cand if best is None else min(best, cand)
    return None if best is None or best >= c.prec_floor else best


def residue(x):
    """Reduction mod pi: the constant pi-coefficient mod p."""
    return tuple(c % x.ctx.p for c in x.coeffs[0])


def div_by_pi(x):
    """x / pi: the pi-coefficients move down one degree and pi^(p-1) = -p
    sends the constant coefficient to the top, divided by -p."""
    c = x.ctx
    if any(v % c.p for v in x.coeffs[0]):
        raise ValueError("element has valuation 0; cannot divide by pi")
    top = tuple((-(v // c.p)) % c.pK for v in x.coeffs[0])
    return RamifiedPadic(c, x.coeffs[1:] + (top,))


def div_by_pi_power(x, s):
    for _ in range(s):
        x = div_by_pi(x)
    return x


@functools.cache
def image_powers(emb, count):
    """Coordinates of img(zeta_m)^k for k < count, one ring product each,
    as a (count, (p-1)*n) matrix of Python ints."""
    pows = [emb.ctx.one()]
    while len(pows) < count:
        pows.append(pows[-1] * emb.img_zeta_m)
    return np.array([[c for w in x.coeffs for c in w] for x in pows], dtype=object)


def embed_by_terms(emb, elt):
    """sum of c_k * img(zeta_m)^k over the sequential powers, in Python ints."""
    flat = (elt.coeffs.astype(object) @ image_powers(emb, elt.ring.phi) % emb.ctx.pK).tolist()
    n = emb.ctx.n
    return RamifiedPadic(emb.ctx, tuple(tuple(flat[i:i + n]) for i in range(0, len(flat), n)))


def stickelberger_one(tower, e):
    """The Stickelberger report of one exponent, by the per-element route."""
    p, n, N = tower.p, tower.n, tower.mult_order
    e %= N
    v = digits.expand(p, n, e)
    s = digits.digit_sum(v)
    x = embed_by_terms(embedding_for(tower), gauss_S(MultChar(tower, -e)))
    mv = valuation(x)
    congruence_ok = False
    if mv == s:
        res = residue(div_by_pi_power(x, s).scale_int(digits.digit_factorial_mod_p(v)))
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
    x = embed_by_terms(emb, gauss_S(MultChar(tower, e)))
    valuation_ok = valuation(x) == n * (p - 1) - s
    identity_ok = False
    if valuation_ok:
        w = -div_by_pi_power(x * emb.ctx.pi_power(s), n * (p - 1))
        want = [[prod_digit] + [0] * (n - 1)] + [[0] * n] * (p - 2)
        identity_ok = [[c % mod for c in coord] for coord in w.coeffs] == want
    return GrossKoblitzReport(p=p, n=n, e=e, window=window,
                              gamma_digit_route=prod_digit, gamma_direct_route=prod_direct,
                              routes_agree=prod_digit == prod_direct,
                              valuation_ok=valuation_ok, identity_ok=identity_ok)
