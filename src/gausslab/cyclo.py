"""Exact arithmetic in Z[zeta_m] with canonical reduction mod the m-th
cyclotomic polynomial.

Elements are integer coefficient vectors of length phi(m), the unique
remainder mod Phi_m; equality and hashing use only this canonical form,
never floating point.  Coefficients are arbitrary-precision by contract.
Sums and integer scalings run on int64 while a bound certifies no overflow.
Products (convolutions and reductions) run on float64 BLAS while a bound
certifies that every partial sum is an exact integer below 2^52.  Both fall
back to Python integers otherwise.

Phi_m is computed by the Moebius product of sparse binomials applied to the
radical of m (Phi_m(x) = Phi_rad(x^(m/rad))), so the reduction table rows
x^k mod Phi_m update through only deg(Phi_rad)+1 positions each.  Each ring
holds one (m - phi) x phi table, stored as float64 with exact integer
entries, and every reduction goes through `CycloRing.reduce_matrix`.

Rings are cached per conductor and immutable after construction; elements
are value types, safe to share across workers.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import numth
from .errors import ArgumentError, ResourceCapError

DEFAULT_MAX_CONDUCTOR = 8192
_F64_SAFE = 1 << 52  # exact-integer range of float64 partial sums
_I64_SAFE = 1 << 62


# ---------------------------------------------------------------------------
# cyclotomic polynomials (Python-int lists, ascending)


def _mul_sparse_binomial(a: list[int], k: int) -> list[int]:
    # a * (x^k - 1)
    out = [0] * (len(a) + k)
    for i, c in enumerate(a):
        if c:
            out[i + k] += c
            out[i] -= c
    return out


def _div_sparse_binomial(a: list[int], k: int) -> list[int]:
    # exact division by (x^k - 1); remainder must vanish
    n = len(a) - 1 - k
    q = [0] * (n + 1)
    rem = list(a)
    for i in range(n, -1, -1):
        c = rem[i + k]
        q[i] = c
        if c:
            rem[i + k] -= c
            rem[i] += c
    if any(rem):
        raise ArithmeticError("inexact division by sparse binomial")
    return q


@lru_cache(maxsize=None)
def _cyclotomic_radical(r: int) -> tuple[int, ...]:
    # r squarefree: Phi_r = prod_{d | r} (x^d - 1)^{mu(r/d)}
    a = [1]
    divs = numth.divisors(r)
    for d in divs:
        if numth.moebius(r // d) == 1:
            a = _mul_sparse_binomial(a, d)
    for d in sorted(divs, reverse=True):
        if numth.moebius(r // d) == -1:
            a = _div_sparse_binomial(a, d)
    return tuple(a)


def cyclotomic_poly(m: int) -> list[int]:
    """Coefficients of Phi_m, ascending, exact integers."""
    if m < 1:
        raise ArgumentError(f"conductor must be positive, got {m}")
    r = numth.radical(m)
    base = _cyclotomic_radical(r)
    s = m // r
    out = [0] * ((len(base) - 1) * s + 1)
    for i, c in enumerate(base):
        out[i * s] = c
    return out


# ---------------------------------------------------------------------------
# exact keys


def canonical_key(coeffs: np.ndarray) -> bytes | tuple[int, ...]:
    """Exact, dtype-insensitive key of an integer coefficient array.

    Values that all lie strictly inside (-2^62, 2^62) key as the bytes of
    their int64 form; two int64 arrays of one length have equal bytes
    exactly when their coefficients are equal, and a dict compares keys in
    full after hashing, so no hash collision can merge two values.  Any
    larger value sends the whole array to a tuple of Python ints.  The tier
    depends on the values alone, so int64 and object arrays holding the same
    integers get the same key.
    """
    a = np.asarray(coeffs)
    if a.dtype != object and -_I64_SAFE < int(a.min(initial=0)) and int(a.max(initial=0)) < _I64_SAFE:
        return a.astype(np.int64, copy=False).tobytes()
    flat = [int(c) for c in a.flat]
    if -_I64_SAFE < min(flat, default=0) and max(flat, default=0) < _I64_SAFE:
        return np.array(flat, dtype=np.int64).tobytes()
    return tuple(flat)


# ---------------------------------------------------------------------------
# exact linear algebra: float64 when a bound certifies it, Python ints otherwise


def _exact_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer convolution, in float64 below 2^52 and Python ints above."""
    bound = int(np.abs(a).max(initial=0)) * int(np.abs(b).max(initial=0)) * min(len(a), len(b))
    if bound < _F64_SAFE:
        return np.convolve(a.astype(np.float64), b.astype(np.float64)).astype(np.int64)
    return np.convolve(a.astype(object), b.astype(object))


class CycloRing:
    """Arithmetic context for one conductor m; build through `get_ring`."""

    def __init__(self, m: int):
        self.m = m
        self.phi = numth.euler_phi(m)
        self.Phi = cyclotomic_poly(m)
        self._build_reduction_table()

    def _build_reduction_table(self) -> None:
        # row r holds x^(phi + r) mod Phi_m, r < m - phi, as exact integers
        m, phi = self.m, self.phi
        nz = np.flatnonzero(self.Phi[:phi])
        minus_head = -np.asarray(self.Phi[:phi], dtype=np.int64)[nz]  # x^phi = -head
        table = np.empty((m - phi, phi), dtype=np.float64)
        # row r is the window work[s : s + phi], s = m - phi - r: multiplying
        # by x moves the window one place left and folds its old top back in
        work = np.zeros(m, dtype=np.int64)
        s = m - phi
        work[s + nz] = minus_head
        for r in range(m - phi):
            table[r] = work[s : s + phi]
            top = int(work[s + phi - 1])
            s -= 1
            if top:
                work[s + nz] += top * minus_head
        # every row is stored, so one check on the table sees every row
        rows_max = int(max(table.max(initial=0), -table.min(initial=0)))
        if rows_max > 1 << 50:  # pragma: no cover
            raise OverflowError(
                "reduction-row coefficients exceeded the exact-integer guard; "
                "object-precision rebuild required"
            )
        table.setflags(write=False)
        self.table = table
        self._rows_max = rows_max

    # -- reduction ----------------------------------------------------------

    def reduce_matrix(self, mat: np.ndarray) -> np.ndarray:
        """Canonical coefficients of sum_k mat[b, k] * zeta^k for each row b.

        Rows may have any width.  Rows wider than m fold first (zeta^m = 1);
        the product with the reduction table reads only the rows the width
        needs, in float64 when |head| + |tail|_1 * max|table| < 2^52 (every
        partial sum is then an exact integer) and in Python ints otherwise.
        """
        m, phi = self.m, self.phi
        mat = np.asarray(mat)
        b, width = mat.shape
        if width > m:
            segs = -(-width // m)
            if mat.dtype != object and segs * int(np.abs(mat).max(initial=0)) >= _I64_SAFE:
                mat = mat.astype(object)
            wide = np.zeros((b, segs * m), dtype=mat.dtype)
            wide[:, :width] = mat
            mat, width = wide.reshape(b, segs, m).sum(axis=1), m
        if width <= phi or not np.any(mat[:, phi:]):
            out = np.zeros((b, phi), dtype=mat.dtype)
            out[:, : min(width, phi)] = mat[:, :phi]
            return out
        head, tail = mat[:, :phi], mat[:, phi:]
        rows = self.table[: width - phi]
        tail_abs = np.abs(tail)
        if mat.dtype != object and int(tail_abs.max()) * tail.shape[1] >= _I64_SAFE:
            tail_abs = tail_abs.astype(object)  # int64 row sums could wrap
        bound = int(np.abs(head).max(initial=0)) + int(tail_abs.sum(axis=1).max()) * self._rows_max
        if bound < _F64_SAFE:
            out = head.astype(np.float64) + tail.astype(np.float64) @ rows
            return out.astype(np.int64)
        return head.astype(object) + tail.astype(object) @ rows.astype(np.int64).astype(object)

    def reduce_vector(self, vec: np.ndarray) -> np.ndarray:
        """Canonical coefficients of sum vec[k] * zeta^k (any length)."""
        return self.reduce_matrix(np.asarray(vec)[None])[0]

    # -- element constructors -------------------------------------------

    def element(self, coeffs) -> "CycloElement":
        arr = np.asarray(coeffs)
        if arr.dtype != object:
            arr = arr.astype(np.int64)
        return CycloElement(self, self.reduce_vector(arr))

    def zero(self) -> "CycloElement":
        return CycloElement(self, np.zeros(self.phi, dtype=np.int64))

    def one(self) -> "CycloElement":
        return self.from_int(1)

    def from_int(self, c: int) -> "CycloElement":
        v = np.zeros(1, dtype=object if abs(c) >= _I64_SAFE else np.int64)
        v[0] = c
        return self.element(v)

    def zeta_pow(self, k: int) -> "CycloElement":
        v = np.zeros(self.m, dtype=np.int64)
        v[k % self.m] = 1
        return self.element(v)

    def __repr__(self) -> str:  # pragma: no cover
        return f"CycloRing(m={self.m}, phi={self.phi})"


_RING_CACHE: dict[int, CycloRing] = {}


def check_conductor(m: int, max_conductor: int) -> None:
    if m > max_conductor:
        raise ResourceCapError(f"conductor {m} exceeds max_conductor cap {max_conductor}")


def get_ring(m: int, max_conductor: int = DEFAULT_MAX_CONDUCTOR) -> CycloRing:
    # the cap binds on cache hits too, so it never depends on earlier calls
    check_conductor(m, max_conductor)
    ring = _RING_CACHE.get(m)
    if ring is None:
        ring = CycloRing(m)
        _RING_CACHE[m] = ring
    return ring


class CycloElement:
    """Canonical representative in Z[zeta_m]; treat as immutable."""

    __slots__ = ("ring", "coeffs", "_key")

    def __init__(self, ring: CycloRing, coeffs: np.ndarray):
        self.ring = ring
        self.coeffs = coeffs
        self._key = None

    # -- identity ---------------------------------------------------------

    @property
    def key(self) -> bytes | tuple[int, ...]:
        """Value-based canonical key (see `canonical_key`)."""
        if self._key is None:
            self._key = canonical_key(self.coeffs)
        return self._key

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self == self.ring.from_int(other)
        if not isinstance(other, CycloElement):
            return NotImplemented
        return self.ring.m == other.ring.m and self.key == other.key

    def __hash__(self) -> int:
        return hash((self.ring.m, self.key))

    def is_zero(self) -> bool:
        return not np.any(self.coeffs)

    def is_integer(self) -> bool:
        return not np.any(self.coeffs[1:])

    def int_value(self) -> int:
        if not self.is_integer():
            raise ArgumentError("element is not a rational integer")
        return int(self.coeffs[0])

    # -- ring operations ----------------------------------------------------

    def _check_ring(self, other: "CycloElement") -> None:
        if self.ring.m != other.ring.m:
            raise ArgumentError(
                f"conductor mismatch: {self.ring.m} vs {other.ring.m}"
            )

    def __add__(self, other: "CycloElement") -> "CycloElement":
        self._check_ring(other)
        a, b = self.coeffs, other.coeffs
        if a.dtype == object or b.dtype == object:
            return CycloElement(self.ring, a.astype(object) + b.astype(object))
        bound = int(np.abs(a).max(initial=0)) + int(np.abs(b).max(initial=0))
        if bound < _I64_SAFE:
            return CycloElement(self.ring, a + b)
        return CycloElement(self.ring, a.astype(object) + b.astype(object))

    def __neg__(self) -> "CycloElement":
        return CycloElement(self.ring, -self.coeffs)

    def __sub__(self, other: "CycloElement") -> "CycloElement":
        return self + (-other)

    def __mul__(self, other) -> "CycloElement":
        if isinstance(other, int):
            return self.scale(other)
        self._check_ring(other)
        if self.is_zero() or other.is_zero():
            return self.ring.zero()
        conv = _exact_convolve(self.coeffs, other.coeffs)
        return CycloElement(self.ring, self.ring.reduce_vector(conv))

    __rmul__ = __mul__

    def scale(self, c: int) -> "CycloElement":
        a = self.coeffs
        if a.dtype == object or abs(c) >= _I64_SAFE:
            return CycloElement(self.ring, a.astype(object) * c)
        amax = int(np.abs(a).max(initial=0))
        if amax * abs(c) < _I64_SAFE:
            return CycloElement(self.ring, a * c)
        return CycloElement(self.ring, a.astype(object) * c)

    def __pow__(self, k: int) -> "CycloElement":
        if k < 0:
            raise ArgumentError("negative powers are not defined in Z[zeta_m]")
        out = self.ring.one()
        acc = self
        while k:
            if k & 1:
                out = out * acc
            acc = acc * acc
            k >>= 1
        return out

    # -- Galois action and conductor maps ------------------------------------

    def galois(self, j: int) -> "CycloElement":
        """Image under zeta_m -> zeta_m^j; j must be a unit mod m."""
        m = self.ring.m
        if math.gcd(j, m) != 1:
            raise ArgumentError(f"galois index {j} is not coprime to {m}")
        j %= m
        dtype = object if self.coeffs.dtype == object else np.int64
        v = np.zeros(m, dtype=dtype)
        idx = (j * np.arange(self.ring.phi, dtype=np.int64)) % m
        np.add.at(v, idx, self.coeffs)
        return CycloElement(self.ring, self.ring.reduce_vector(v))

    def conj(self) -> "CycloElement":
        return self.galois(self.ring.m - 1)

    def lift_to(self, big: CycloRing) -> "CycloElement":
        """Coerce into Z[zeta_M] for m | M via zeta_m = zeta_M^(M/m)."""
        if big.m % self.ring.m != 0:
            raise ArgumentError(
                f"cannot lift conductor {self.ring.m} into {big.m}"
            )
        s = big.m // self.ring.m
        dtype = object if self.coeffs.dtype == object else np.int64
        v = np.zeros(big.m, dtype=dtype)
        idx = (s * np.arange(self.ring.phi, dtype=np.int64)) % big.m
        np.add.at(v, idx, self.coeffs)
        return CycloElement(big, big.reduce_vector(v))

    # -- integer divisibility -------------------------------------------------

    def _int64_divisor(self, c: int) -> bool:
        # int64 remainder and floor division are exact for a nonzero int64 c
        return self.coeffs.dtype != object and 0 < abs(c) < _I64_SAFE

    def divisible_by_int(self, c: int) -> bool:
        if self._int64_divisor(c):
            return not np.any(np.remainder(self.coeffs, c))
        return all(int(x) % c == 0 for x in self.coeffs)

    def divide_exact_int(self, c: int) -> "CycloElement":
        if self._int64_divisor(c):
            quo, rem = np.divmod(self.coeffs, c)
            if np.any(rem):
                raise ArgumentError(f"element is not divisible by {c}")
            return CycloElement(self.ring, quo)
        out = np.empty(self.ring.phi, dtype=object)
        for i, x in enumerate(self.coeffs):
            q, r = divmod(int(x), c)
            if r:
                raise ArgumentError(f"element is not divisible by {c}")
            out[i] = q
        try:
            out = out.astype(np.int64)
        except (OverflowError, TypeError):  # pragma: no cover - huge coefficients
            pass
        return CycloElement(self.ring, out)

    # -- numeric sanity channel (never used for equality) ----------------------

    def embed_complex(self, digits: int = 15) -> tuple[complex, float]:
        """Complex value at zeta_m = exp(2*pi*i/m) plus a crude error bound."""
        import mpmath

        if digits < 15:
            raise ArgumentError("embedding precision must be at least 15 digits")
        with mpmath.workdps(digits + 10):
            total = mpmath.mpc(0)
            abssum = 0
            for k, c in enumerate(self.coeffs):
                c = int(c)
                if c:
                    total += c * mpmath.expjpi(mpmath.mpf(2 * k) / self.ring.m)
                    abssum += abs(c)
            err = float(abssum) * 10.0 ** (-digits)
            return complex(total), err

    def __repr__(self) -> str:  # pragma: no cover
        nz = {i: int(c) for i, c in enumerate(self.coeffs) if c}
        return f"CycloElement(m={self.ring.m}, {nz})"
