"""Finite field towers F_p < F_q < F_{q^n} backed by discrete-log tables.

Representation conventions (shared by every module downstream):

* One polynomial quotient ring serves the whole tower: elements of
  F_{q^n} = F_{p^(f*n)} are coefficient vectors over F_p in the basis of a
  fixed monic irreducible modulus of degree D = f*n.  The intermediate field
  F_q is the fixed field of the f-th Frobenius power; it is never given its
  own arithmetic, and neither is any other subfield F_{q^d}: its nonzero
  elements are the powers of h = g^((q^n-1)/(q^d-1)), the norm of g.  An
  etale algebra is a tuple of such subfield degrees, not a set of towers.
* An element travels as its integer encoding sum(c_i * p^i); the zero element
  is 0 and the identity is 1.
* The modulus is the lexicographically smallest monic irreducible of degree D
  (coefficient tuples compared most-significant first, so candidates are
  enumerated in increasing integer encoding of the non-leading part).
  Irreducibility is certified by gcd(x^(p^d) - x, M) = 1 for every proper
  divisor d of D together with x^(p^D) = x mod M; no root-finding shortcut.
* The generator g is the smallest encoding of multiplicative order p^D - 1,
  certified against the exact factorization of p^D - 1.  Downstream character
  indexing (the Teichmueller convention) depends on this choice, which is why
  it is deterministic.

Towers are immutable after construction; all methods are pure.  Building a
tower finds only its modulus and generator.  The power and log tables
(`exp_vec`, `exp_enc`, `log_table`) are built together, and checked to be a
bijection, on the first read of any of them, so a caller that needs only the
convention stamp, such as a signature scan, never builds them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _accel, numth
from .errors import ArgumentError, PrimalityError, ResourceCapError

DEFAULT_MAX_ELEMENTS = 1 << 20


# ---------------------------------------------------------------------------
# dense polynomial arithmetic over F_p (ascending int64 coefficient arrays)


def _ptrim(a: np.ndarray) -> np.ndarray:
    nz = np.nonzero(a)[0]
    if len(nz) == 0:
        return a[:0]
    return a[: nz[-1] + 1]


def _pmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    if len(a) == 0 or len(b) == 0:
        return a[:0]
    return np.convolve(a, b) % p


def _pmod(a: np.ndarray, m: np.ndarray, p: int) -> np.ndarray:
    # m monic
    a = a % p
    deg_m = len(m) - 1
    a = _ptrim(a).copy()
    while len(a) > deg_m:
        c = a[-1]
        if c:
            a[-deg_m - 1 : -1] = (a[-deg_m - 1 : -1] - c * m[:-1]) % p
        a = _ptrim(a[:-1])
    return a


def _ppowmod(base: np.ndarray, e: int, m: np.ndarray, p: int) -> np.ndarray:
    result = np.ones(1, dtype=np.int64)
    acc = _pmod(base, m, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, acc, p), m, p)
        acc = _pmod(_pmul(acc, acc, p), m, p)
        e >>= 1
    return result


def _pgcd(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    a, b = _ptrim(a % p), _ptrim(b % p)
    while len(b):
        inv = pow(int(b[-1]), p - 2, p) if p > 2 else 1
        bm = (b * inv) % p
        a, b = b, _pmod(a, bm, p)
    if len(a):
        a = (a * pow(int(a[-1]), p - 2, p)) % p if p > 2 else a
    return a


def _x_poly() -> np.ndarray:
    return np.array([0, 1], dtype=np.int64)


def is_irreducible(modulus: np.ndarray, p: int) -> bool:
    """Rabin-style certificate for a monic polynomial over F_p."""
    d = len(modulus) - 1
    if d < 1:
        return False
    x = _x_poly()
    for dd in numth.proper_divisors(d):
        frob = _ppowmod(x, p**dd, modulus, p)
        diff = np.zeros(max(len(frob), 2), dtype=np.int64)
        diff[: len(frob)] = frob
        diff[1] = (diff[1] - 1) % p
        g = _pgcd(diff, modulus, p)
        if not (len(g) == 1 and g[0] == 1):
            return False
    frob = _ppowmod(x, p**d, modulus, p)
    return np.array_equal(frob, _pmod(x, modulus, p))


def smallest_irreducible(p: int, degree: int) -> np.ndarray:
    """Deterministic modulus choice: smallest monic irreducible of the degree."""
    for code in range(p**degree):
        coeffs = np.empty(degree + 1, dtype=np.int64)
        c = code
        for i in range(degree):
            coeffs[i] = c % p
            c //= p
        coeffs[degree] = 1
        if is_irreducible(coeffs, p):
            return coeffs
    raise RuntimeError(f"no irreducible of degree {degree} over F_{p}")  # unreachable


# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FieldTower:
    """Immutable tower F_p < F_{p^f} < F_{p^(f*n)}; its power and log tables
    are built together on the first read of any of them."""

    p: int
    f: int
    n: int
    modulus: tuple[int, ...]  # ascending coefficients, monic, degree f*n
    g: int  # encoding of the generator

    def _power_tables(self) -> dict[str, np.ndarray]:
        """Build, check and cache all three tables: a later read of any of
        them finds it in the instance."""
        p, d, N = self.p, self.degree, self.mult_order
        exp_vec = _accel.power_table(_mul_by_matrix(p, np.array(self.modulus), self.g), p, N)
        exp_enc = exp_vec.astype(np.int64) @ p ** np.arange(d, dtype=np.int64)
        log_table = np.full(self.order, -1, dtype=np.int32)
        log_table[exp_enc] = np.arange(N, dtype=np.int32)
        if int((log_table >= 0).sum()) != N:
            raise RuntimeError("generator power table is not a bijection")
        tables = {"exp_vec": exp_vec, "exp_enc": exp_enc, "log_table": log_table}
        for table in tables.values():
            table.setflags(write=False)
        vars(self).update(tables)
        return tables

    @cached_property
    def exp_vec(self) -> np.ndarray:
        """(N, D) int16, row j = coefficients of g^j."""
        return self._power_tables()["exp_vec"]

    @cached_property
    def exp_enc(self) -> np.ndarray:
        """(N,) int64, encodings of g^j."""
        return self._power_tables()["exp_enc"]

    @cached_property
    def log_table(self) -> np.ndarray:
        """(p^D,) int32, dlog by encoding; -1 for 0."""
        return self._power_tables()["log_table"]

    @property
    def degree(self) -> int:
        return self.f * self.n

    @property
    def q(self) -> int:
        return self.p**self.f

    @property
    def order(self) -> int:
        return self.p**self.degree

    @property
    def mult_order(self) -> int:
        """q^n - 1, the size of the multiplicative group."""
        return self.order - 1

    # -- element plumbing ---------------------------------------------------

    def vec(self, x: int) -> np.ndarray:
        out = np.zeros(self.degree, dtype=np.int64)
        for i in range(self.degree):
            out[i] = x % self.p
            x //= self.p
        return out

    def enc(self, v: np.ndarray) -> int:
        out = 0
        for c in reversed(v):
            out = out * self.p + int(c) % self.p
        return out

    def dlog(self, x: int) -> int:
        if x == 0:
            raise ArgumentError("discrete log of zero")
        j = int(self.log_table[x])
        if j < 0:
            raise ArgumentError(f"{x} is not a valid element encoding")
        return j

    def exp(self, j: int) -> int:
        return int(self.exp_enc[j % self.mult_order])

    def add(self, a: int, b: int) -> int:
        return self.enc((self.vec(a) + self.vec(b)) % self.p)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp(self.dlog(a) + self.dlog(b))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ArgumentError("inverse of zero")
        return self.exp(-self.dlog(a))

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k < 0:
                raise ArgumentError("inverse of zero")
            return 1 if k == 0 else 0
        return self.exp(self.dlog(a) * k)

    # -- norm and Frobenius -------------------------------------------------

    def norm_rel(self, x: int, d: int = 1) -> int:
        """Norm Nr_{n:d}(x) = x^((q^n-1)/(q^d-1)) into F_{q^d}, with Nr(0)=0."""
        if d < 1 or self.n % d != 0:
            raise ArgumentError(f"norm target degree {d} does not divide n={self.n}")
        if x == 0:
            return 0
        expo = self.mult_order // (self.q**d - 1)
        return self.exp(self.dlog(x) * expo)

    def frobenius(self, x: int, i: int = 1) -> int:
        """x^(p^i)."""
        if x == 0:
            return 0
        return self.exp(self.dlog(x) * pow(self.p, i, self.mult_order))

    # -- subfields ----------------------------------------------------------

    def subfield_index(self, d_abs: int) -> int:
        """(p^D-1)/(p^d-1): dlogs of the F_{p^d} subfield are its multiples."""
        if d_abs < 1 or self.degree % d_abs != 0:
            raise ArgumentError(f"{d_abs} does not divide the absolute degree {self.degree}")
        return self.mult_order // (self.p**d_abs - 1)

    def subfield_traces(self, d_abs: int) -> np.ndarray:
        """Tr_{F_{p^d}/F_p}(h^l) for every l < p^d - 1 (absolute d), where
        h = g^((p^D-1)/(p^d-1)) generates the degree-d subfield."""
        j = np.arange(0, self.mult_order, self.subfield_index(d_abs), dtype=np.int64)
        acc = np.zeros((len(j), self.degree), dtype=np.int64)
        for _ in range(d_abs):
            acc += self.exp_vec[j]
            j = j * self.p % self.mult_order
        acc %= self.p
        if np.any(acc[:, 1:]):
            raise RuntimeError("subfield trace did not land in the prime field")
        return acc[:, 0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FieldTower(p={self.p}, f={self.f}, n={self.n}, g={self.g})"


# ---------------------------------------------------------------------------
# construction


def _find_generator(p: int, modulus: np.ndarray, N: int) -> int:
    if N == 1:  # F_2: the trivial group is generated by the identity
        return 1
    prime_divs = numth.prime_divisors(N)
    degree = len(modulus) - 1
    for enc in range(2, p**degree):
        v = np.empty(degree, dtype=np.int64)
        c = enc
        for i in range(degree):
            v[i] = c % p
            c //= p
        v = _ptrim(v)
        ok = True
        for ell in prime_divs:
            r = _ppowmod(v, N // ell, modulus, p)
            if len(r) == 1 and r[0] == 1:
                ok = False
                break
        if ok:
            return enc
    raise RuntimeError("no generator found")  # unreachable for a true field


def _mul_by_matrix(p: int, modulus: np.ndarray, g_enc: int) -> np.ndarray:
    """Multiply-by-g as an F_p-linear map on coefficient vectors."""
    d = len(modulus) - 1
    gv = np.empty(d, dtype=np.int64)
    c = g_enc
    for i in range(d):
        gv[i] = c % p
        c //= p
    mat = np.zeros((d, d), dtype=np.int64)
    for k in range(d):
        xk = np.zeros(k + 1, dtype=np.int64)
        xk[k] = 1
        col = _pmod(_pmul(gv, xk, p), modulus, p)
        mat[: len(col), k] = col
    return mat


def check_field(p: int, d: int, max_elements: int) -> None:
    """Refuse F_{p^d} unless p^d <= max_elements and p is prime.

    p^d is never formed, since it may have millions of digits: every power
    p^k, p >= 2, with k >= max_elements.bit_length() exceeds the cap, so the
    exponent is clipped there before the comparison.  The size is checked
    first, so trial division never runs on a p above the cap.
    """
    if p ** min(d, max_elements.bit_length()) > max_elements:
        raise ResourceCapError(
            f"field with {p}^{d} elements exceeds max_elements cap {max_elements}"
        )
    if not numth.is_prime(p):
        raise PrimalityError(f"p = {p} is not prime")


def build_tower(
    p: int,
    f: int,
    n: int,
    *,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> FieldTower:
    """Construct the tower F_p < F_{p^f} < F_{p^(f*n)}.

    Deterministic: the modulus and generator depend only on (p, f, n).  Only
    those two are found here; the power and log tables, O(p^D) each, are
    built when first read.
    """
    if f < 1 or n < 1:
        raise ArgumentError(f"degrees must be positive, got f={f}, n={n}")
    d = f * n
    check_field(p, d, max_elements)
    modulus = smallest_irreducible(p, d)
    return FieldTower(p=p, f=f, n=n, modulus=tuple(int(c) for c in modulus),
                      g=_find_generator(p, modulus, p**d - 1))
