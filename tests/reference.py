"""Independent references the tests compare the library against.

Each helper computes by a route the library does not take: a character
value from its defining formula, absolute traces from Newton's identities
on the modulus, Phi_m by stretching the squarefree-radical polynomial, and
Frobenius orbits by walking them.
"""

import numpy as np

from gausslab.chars import ring_for
from gausslab.cyclo import _cyclotomic_radical
from gausslab.numth import radical


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
