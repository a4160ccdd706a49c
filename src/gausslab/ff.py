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
  Irreducibility is certified by Rabin's test: gcd(x^(p^d) - x, M) = 1 for
  every proper divisor d of D together with x^(p^D) = x mod M, each x^(p^d)
  the p-th power of the one before.  For D >= 2 a candidate with a root in
  F_p, which fails at d = 1, is rejected before the test; for D = 1 it is x.
* The generator g is the smallest encoding of multiplicative order p^D - 1,
  certified against the exact factorization of p^D - 1; for D >= 2 the
  constants, of order dividing p - 1, are skipped.  Downstream character
  indexing (the Teichmueller convention) depends on this choice, which is
  why it is deterministic.

Both searches run on Python ints (`_Quotient`, F_p[x] modulo a fixed monic
modulus): on a few dozen coefficients, numpy's per-call overhead dominates.
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
# F_p[x] modulo a fixed monic modulus, on Python ints


def _digits(enc: int, p: int, count: int) -> list[int]:
    """The first `count` base-p digits of enc, least significant first."""
    out = []
    for _ in range(count):
        enc, c = divmod(enc, p)
        out.append(c)
    return out


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _rem(a: list[int], b: list[int], p: int) -> list[int]:
    """a mod b over F_p for a trimmed nonzero b; the result is trimmed."""
    a, db, inv = a[:], len(b) - 1, pow(b[-1], -1, p)
    for k in range(len(a) - 1, db - 1, -1):
        c = a[k] * inv % p
        if c:
            for i in range(db):
                a[k - db + i] = (a[k - db + i] - c * b[i]) % p
    return _trim(a[:db])


def _has_root(m: tuple[int, ...], p: int) -> bool:
    return any(sum(c * r**i for i, c in enumerate(m)) % p == 0 for r in range(p))


class _Quotient:
    """F_p[x]/(M) for a monic M of degree D >= 1.  An element is a list of D
    ints in [0, p), ascending; reduction reads only M's nonzero lower terms."""

    def __init__(self, p: int, modulus: tuple[int, ...]):
        self.p, self.D = p, len(modulus) - 1
        self.modulus = [int(c) % p for c in modulus]
        # x^D = sum over the nonzero m_i, i < D, of (p - m_i) x^i
        self._tail = [(i, p - c) for i, c in enumerate(self.modulus[:-1]) if c]
        self.x = self._reduce([0, 1] + [0] * self.D)

    def _reduce(self, a: list[int]) -> list[int]:
        """a mod (M, p) for a list of length >= D, which is overwritten."""
        p, D, tail = self.p, self.D, self._tail
        for k in range(len(a) - 1, D - 1, -1):
            c = a[k] % p
            if c:
                for i, t in tail:
                    a[k - D + i] += c * t
        return [c % p for c in a[:D]]

    def mul(self, a: list[int], b: list[int]) -> list[int]:
        prod = [0] * (2 * self.D - 1)
        for i, ai in enumerate(a):
            if ai:
                for k, bj in enumerate(b, i):
                    prod[k] += ai * bj
        return self._reduce(prod)

    def pow(self, a: list[int], e: int) -> list[int]:
        """a^e for e >= 1, by left-to-right square and multiply."""
        out = a
        for bit in bin(e)[3:]:
            out = self.mul(out, out)
            if bit == "1":
                out = self.mul(out, a)
        return out

    def coprime_to_modulus(self, a: list[int]) -> bool:
        """gcd(a, M) = 1, by Euclid on trimmed coefficient lists; `a` is trimmed."""
        r0, r1 = self.modulus, _trim(a)
        while r1:
            r0, r1 = r1, _rem(r0, r1, self.p)
        return len(r0) == 1


def is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Rabin's certificate for a monic polynomial over F_p."""
    if len(modulus) < 2:
        return False
    R = _Quotient(p, modulus)
    gcd_at = set(numth.proper_divisors(R.D))
    frob = R.x
    for d in range(1, R.D + 1):
        frob = R.pow(frob, p)  # x^(p^d), chained
        if d in gcd_at and not R.coprime_to_modulus([(c - x) % p for c, x in zip(frob, R.x)]):
            return False
    return frob == R.x


def smallest_irreducible(p: int, degree: int) -> tuple[int, ...]:
    """Deterministic modulus choice: the smallest monic irreducible of the degree."""
    for code in range(p**degree):
        coeffs = (*_digits(code, p, degree), 1)
        if (degree == 1 or not _has_root(coeffs, p)) and is_irreducible(coeffs, p):
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
        exp_vec = _accel.power_table(_mul_by_matrix(p, self.modulus, self.g), p, N)
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
        """(N, D) int16 (int32 past p = 2^15), row j = coefficients of g^j."""
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
        return np.array(_digits(x, self.p, self.degree), dtype=np.int64)

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


def _find_generator(p: int, modulus: tuple[int, ...], N: int) -> int:
    if N == 1:  # F_2: the trivial group is generated by the identity
        return 1
    R = _Quotient(p, modulus)
    one = _digits(1, p, R.D)
    cofactors = [N // ell for ell in numth.prime_divisors(N)]
    # for D >= 2 the constants (encodings below p) have order dividing p - 1 < N
    for enc in range(2 if R.D == 1 else p, p**R.D):
        g = _digits(enc, p, R.D)
        if all(R.pow(g, k) != one for k in cofactors):
            return enc
    raise RuntimeError("no generator found")  # unreachable for a true field


def _mul_by_matrix(p: int, modulus: tuple[int, ...], g_enc: int) -> np.ndarray:
    """Multiply-by-g as an F_p-linear map on coefficient vectors: column k
    is g * x^k."""
    R = _Quotient(p, modulus)
    cols = [_digits(g_enc, p, R.D)]
    while len(cols) < R.D:
        cols.append(R.mul(cols[-1], R.x))
    return np.array(cols, dtype=np.int64).T


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
    return FieldTower(p=p, f=f, n=n, modulus=modulus, g=_find_generator(p, modulus, p**d - 1))
