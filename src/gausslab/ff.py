"""Finite field towers F_p < F_q < F_{q^n} backed by discrete-log tables.

Representation conventions (shared by every module downstream):

* One polynomial quotient ring serves the whole tower: elements of
  F_{q^n} = F_{p^(f*n)} are coefficient vectors over F_p in the basis of a
  fixed monic irreducible modulus of degree D = f*n.  The intermediate field
  F_q is the fixed field of the f-th Frobenius power; it is never given its
  own arithmetic.
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

Towers are immutable after construction; all methods are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Immutable tower F_p < F_{p^f} < F_{p^(f*n)} with log/trace tables."""

    p: int
    f: int
    n: int
    modulus: tuple[int, ...]  # ascending coefficients, monic, degree f*n
    g: int  # encoding of the generator
    exp_vec: np.ndarray  # (N, D) int16, row j = coefficients of g^j
    exp_enc: np.ndarray  # (N,) int64, encodings of g^j
    log_table: np.ndarray  # (p^D,) int32, dlog by encoding; -1 for 0
    trace_abs: np.ndarray  # (N,) int16, Tr to F_p of g^j

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

    def neg(self, a: int) -> int:
        return self.enc((-self.vec(a)) % self.p)

    def sub(self, a: int, b: int) -> int:
        return self.enc((self.vec(a) - self.vec(b)) % self.p)

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

    def scalar(self, c: int) -> int:
        """Encoding of the prime-field constant c."""
        return c % self.p

    # -- trace and norm -----------------------------------------------------

    def trace_to_prime(self, x: int) -> int:
        """Absolute trace Tr_{F_{q^n}/F_p}(x) as an integer in [0, p)."""
        if x == 0:
            return 0
        return int(self.trace_abs[self.dlog(x)])

    def trace_rel(self, x: int) -> int:
        """Relative trace to the base field: sum of x^(q^i), i < n."""
        if x == 0:
            return 0
        j, q, N = self.dlog(x), self.q, self.mult_order
        acc = np.zeros(self.degree, dtype=np.int64)
        e = 1
        for _ in range(self.n):
            acc += self.exp_vec[(j * e) % N]
            e *= q
        return self.enc(acc % self.p)

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


def _newton_trace_weights(p: int, modulus: np.ndarray) -> np.ndarray:
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


def build_tower(
    p: int,
    f: int,
    n: int,
    *,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> FieldTower:
    """Construct the tower F_p < F_{p^f} < F_{p^(f*n)}.

    Deterministic: the modulus and generator depend only on (p, f, n).
    """
    if not numth.is_prime(p):
        raise PrimalityError(f"p = {p} is not prime")
    if f < 1 or n < 1:
        raise ArgumentError(f"degrees must be positive, got f={f}, n={n}")
    d = f * n
    order = p**d
    if order > max_elements:
        raise ResourceCapError(
            f"field with {order} elements exceeds max_elements cap {max_elements}"
        )
    modulus = smallest_irreducible(p, d)
    N = order - 1

    g = _find_generator(p, modulus, N)
    mat = _mul_by_matrix(p, modulus, g)
    exp_vec = _accel.power_table(mat, p, N)
    weights = _newton_trace_weights(p, modulus)
    trace_abs = ((exp_vec.astype(np.int64) @ weights) % p).astype(np.int16)

    p_pows = p ** np.arange(d, dtype=np.int64)
    exp_enc = exp_vec.astype(np.int64) @ p_pows
    log_table = np.full(order, -1, dtype=np.int32)
    log_table[exp_enc] = np.arange(N, dtype=np.int32)
    if int((log_table >= 0).sum()) != N:
        raise RuntimeError("generator power table is not a bijection")

    exp_vec.setflags(write=False)
    exp_enc.setflags(write=False)
    log_table.setflags(write=False)
    trace_abs.setflags(write=False)
    return FieldTower(
        p=p,
        f=f,
        n=n,
        modulus=tuple(int(c) for c in modulus),
        g=int(exp_enc[1]) if N > 1 else 1,
        exp_vec=exp_vec,
        exp_enc=exp_enc,
        log_table=log_table,
        trace_abs=trace_abs,
    )


# ---------------------------------------------------------------------------
# etale algebras: products of towers over a common base


@dataclass(frozen=True, eq=False)
class EtaleAlgebra:
    """Product of field extensions of a common F_q, with its Frobenius sign."""

    factors: tuple[FieldTower, ...]
    n: int  # total degree over F_q
    r: int  # number of factors
    sign: int  # (-1)^(n-r)

    @property
    def p(self) -> int:
        return self.factors[0].p

    @property
    def q(self) -> int:
        return self.factors[0].q


def build_etale(
    p: int, f: int, degrees: list[int], *, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> EtaleAlgebra:
    if not degrees:
        raise ArgumentError("etale algebra needs at least one factor")
    if any(d < 1 for d in degrees):
        raise ArgumentError("factor degrees must be positive")
    factors = tuple(build_tower(p, f, d, max_elements=max_elements) for d in degrees)
    n = sum(degrees)
    r = len(degrees)
    return EtaleAlgebra(factors=factors, n=n, r=r, sign=(-1) ** (n - r))
