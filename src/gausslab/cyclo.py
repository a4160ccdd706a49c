"""Exact arithmetic in Z[zeta_m] with canonical reduction mod the m-th
cyclotomic polynomial.

Elements are integer coefficient vectors of length phi(m), the unique
remainder mod Phi_m; equality and hashing use only this canonical form,
never floating point.  Coefficients are arbitrary-precision by contract.
Sums and integer scalings run on int64 while a bound certifies no overflow.
Products (convolutions and reductions) run on float64 BLAS while a bound
certifies that every partial sum is an exact integer below 2^52.  Both fall
back to Python integers otherwise.

Power-basis reduction runs through the odd kernel k of rad(m).  With
s = m / rad(m), Phi_m(x) = Phi_rad(x^s), so a row splits into s interleaved
rows in y = x^s that reduce mod Phi_rad independently.  Phi_rad divides
y^k - 1 when rad = k is odd, and y^k + 1 when rad = 2k
(Phi_2k(y) = Phi_k(-y)), so each row first folds to width k.  For the least
prime l of k, +-y^(k/l) (minus when rad = 2k, as k/l is odd) is a primitive
l-th root of unity, and those sum to 0:
y^((l-1)k/l + u) = -sum_{t<l-1} (+-1)^t y^(t*k/l + u).  So the ring's one
float64 table of exact integers, built on first use by
`CycloRing.reduce_matrix`, holds y^j mod Phi_rad for phi(k) <= j < (l-1)k/l;
none when k is prime or 1.

Rows that are only compared, never read as coefficients, need no table.
Over the prime powers m_i of m, Z[zeta_m] is the tensor product of the
Z[zeta_{m_i}], and `CycloRing.reduce_tensor` maps a row laid out in that
tensor order to its unique coordinates in the tensor ("powerful") basis with
subtractions alone (Lyubashevsky-Peikert-Regev, A Toolkit for Ring-LWE
Cryptography, 2013).  `CycloRing.from_powerful` converts such coordinates to
the power basis when they are read.

Rings are cached per conductor in `_RING_CACHE`; their tables and maps are
built once, on first use, and never change.  A CLI call empties the cache
when it ends, so a ring lives as long as the call that built it; a library
caller keeps its rings for the life of the process.  Elements are value
types, safe to share across workers.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from . import numth
from .errors import ArgumentError, ResourceCapError

MAX_CONDUCTOR = 8192
_F64_SAFE = 1 << 52  # exact-integer range of float64 partial sums
_I64_SAFE = 1 << 62


# ---------------------------------------------------------------------------
# cyclotomic polynomials (Python-int lists, ascending)


@lru_cache(maxsize=None)
def _cyclotomic_radical(r: int) -> tuple[int, ...]:
    # r squarefree: for r > 1, Phi_r = prod_{d | r} (1 - x^d)^{mu(r/d)} (the
    # mu sum to 0), a power series to degree phi(r): a factor 1 - x^d
    # subtracts the series shifted by d, and 1 / (1 - x^d) adds it back
    if r == 1:
        return (-1, 1)
    n = numth.euler_phi(r) + 1
    a = [1] + [0] * (n - 1)
    for d in numth.divisors(r):
        mu = numth.moebius(r // d)
        if mu == 1:
            for i in range(n - 1, d - 1, -1):
                a[i] -= a[i - d]
        elif mu == -1:
            for i in range(d, n):
                a[i] += a[i - d]
    if a != a[::-1]:  # Phi_r is a palindrome for r > 1
        raise ArithmeticError(f"Phi_{r} is not a palindrome")
    return tuple(a)


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


def _max_abs(mat: np.ndarray) -> int:
    # max |entry| without an |mat| temporary
    return max(int(mat.max(initial=0)), -int(mat.min(initial=0)))


def _pad(mat: np.ndarray, width: int) -> np.ndarray:
    """`mat` zero-padded on the right to `width` columns (itself if already)."""
    if mat.shape[1] == width:
        return mat
    out = np.zeros((mat.shape[0], width), dtype=mat.dtype)
    out[:, : mat.shape[1]] = mat
    return out


class CycloRing:
    """Arithmetic context for one conductor m; build through `get_ring`."""

    def __init__(self, m: int):
        self.m = m
        self.phi = numth.euler_phi(m)
        self._rad = rad = numth.radical(m)
        self._s = m // rad  # Phi_m(x) = Phi_rad(x^s)
        self._k = rad // 2 if rad % 2 == 0 else rad  # odd kernel of rad
        self._sign = -1 if rad % 2 == 0 else 1  # zeta^(s*k) = -1 or 1
        # (l, m_i) for the prime powers m_i = l^a of m, ascending: the tensor axes
        self._axes = tuple((l, l**a) for l, a in numth.factorize(m).items())
        # the least prime l of k; the relation leaves width s*(l-1)k/l
        self._l = l = next((p for p, _ in self._axes if p % 2), 1)
        self._top = self._s * (self._k - self._k // l if l > 1 else 1)

    @cached_property
    def table(self) -> np.ndarray:
        """Row r holds y^(d + r) mod Phi_rad, d = phi(k) <= d + r < (l-1)k/l."""
        poly = _cyclotomic_radical(self._rad)
        d = len(poly) - 1
        n = self._top // self._s - d
        nz = np.flatnonzero(poly[:d])
        minus_head = -np.asarray(poly[:d], dtype=np.int64)[nz]  # y^d = -head
        table = np.empty((n, d), dtype=np.float64)
        # row r is the window work[lo : lo + d], lo = n - r: multiplying by
        # y moves the window one place left and folds its old top back in
        work = np.zeros(n + d, dtype=np.int64)
        lo = n
        work[lo + nz] = minus_head
        for r in range(n):
            table[r] = work[lo : lo + d]
            top = int(work[lo + d - 1])
            lo -= 1
            if top:
                work[lo + nz] += top * minus_head
        table.setflags(write=False)
        return table

    @cached_property
    def _rows_max(self) -> int:
        rows_max = _max_abs(self.table)
        if rows_max > 1 << 50:  # pragma: no cover
            raise OverflowError("reduction-table entries exceed the exact-integer guard")
        return rows_max

    # -- reduction ----------------------------------------------------------

    def reduce_matrix(self, mat: np.ndarray) -> np.ndarray:
        """Canonical coefficients of sum_k mat[b, k] * zeta^k for each row b.

        Rows wider than s*(l-1)k/l fold to width s*k (zeta^(s*k) = +-1);
        of l blocks of s*k/l places, block t < l-1 then takes -(+-1)^t times
        the last, dropped.  Kernel row i (coefficient i + s*t at place t)
        reduces as head + tail @ table[:n].

        Bounds: fold and relation add at most 2*segs entries, segs =
        ceil(width / (s*k)), so int64 holds while 2*segs*max|mat| < 2^62.
        Then each partial sum of head + sum_{r<n} tail_r*table_r is an
        integer of size <= M*(1 + n*max|table|), M = max|entry|: exact in
        float64 below 2^52, else Python ints.
        """
        s, phi, l, top = self._s, self.phi, self._l, self._top
        fold = s * self._k
        mat = np.asarray(mat)
        b, width = mat.shape
        if width <= phi:
            out = np.zeros((b, phi), dtype=mat.dtype)
            out[:, :width] = mat
            return out
        if width > top:
            segs = -(-width // fold)
            if mat.dtype != object and 2 * segs * _max_abs(mat) >= _I64_SAFE:
                mat = mat.astype(object)
            wide = _pad(mat, segs * fold).reshape(b, segs, fold)
            mat = wide[:, 0].copy()
            for j in range(1, segs):  # zeta^(j*fold) = sign^j
                (np.add if self._sign ** j > 0 else np.subtract)(mat, wide[:, j], out=mat)
            if l > 1:
                blocks = mat.reshape(b, l, fold // l)
                last, odd = blocks[:, -1:], blocks[:, 1:-1:2]
                blocks[:, :-1:2] -= last
                (np.subtract if self._sign > 0 else np.add)(odd, last, out=odd)
                mat = mat[:, :top]
        else:
            mat = _pad(mat, -(-width // s) * s)
        head, tail = mat[:, :phi], mat[:, phi:]
        tail_max = _max_abs(tail)
        if not tail_max:
            return head.copy()
        n = tail.shape[1] // s
        tail = tail.reshape(b, n, s)  # [b, r, i] = coefficient of x^(phi + i + s*r)
        bound = max(_max_abs(head), tail_max) * (1 + n * self._rows_max)
        rows = self.table[:n]
        carrier = np.float64 if bound < _F64_SAFE else object
        if carrier is object:
            rows = rows.astype(np.int64).astype(object)
        kernel = tail.transpose(0, 2, 1).astype(carrier, order="C").reshape(b * s, n)
        d = phi // s
        prod = (kernel @ rows).reshape(b, s, d).transpose(0, 2, 1).reshape(b, phi)
        out = head.astype(carrier) + prod
        return out.astype(np.int64) if carrier is np.float64 else out

    def reduce_vector(self, vec: np.ndarray) -> np.ndarray:
        """Canonical coefficients of sum vec[k] * zeta^k (any length)."""
        return self.reduce_matrix(np.asarray(vec)[None])[0]

    # -- the tensor ("powerful") basis ----------------------------------------

    @cached_property
    def tensor_position(self) -> np.ndarray:
        """position[e] is the column of zeta^e in tensor order: the mixed-radix
        index of (e mod m_i)_i, first axis most significant.  The ring map
        zeta -> (x)_i zeta_{m_i} is an isomorphism onto the tensor product,
        and it sends zeta^e to (x)_i zeta_{m_i}^(e mod m_i)."""
        e = np.arange(self.m, dtype=np.int64)
        position = np.zeros(self.m, dtype=np.int64)
        for _, mi in self._axes:
            position = position * mi + e % mi
        position.setflags(write=False)
        return position

    def reduce_tensor(self, mat: np.ndarray) -> np.ndarray:
        """Powerful-basis coordinates of each row of `mat`, (b, m) in tensor
        order (column `tensor_position[e]` holds the coefficient of zeta^e).

        Along the axis of m_i = l^a, Phi_{m_i}(x) = Phi_l(x^(m_i/l)), so with
        the axis viewed as l blocks of m_i/l places, the last block is minus
        the sum of the others: subtracting it from the first l - 1 blocks and
        keeping those leaves the power basis of Z[zeta_{m_i}] on that axis.
        The result, (b, phi) in mixed radix over (phi(m_i))_i, is the unique
        coordinate vector in the tensor basis.  Each axis at most doubles
        max|entry|, so the subtractions run in int64 while 2^r * max < 2^62
        (r axes) and in Python ints otherwise.
        """
        mat = np.asarray(mat)
        b = mat.shape[0]
        if mat.dtype != object and _max_abs(mat) << len(self._axes) >= _I64_SAFE:
            mat = mat.astype(object)
        out = mat.reshape(b, *(mi for _, mi in self._axes))
        for axis, (l, mi) in enumerate(self._axes, start=1):
            pre, post = out.shape[:axis], out.shape[axis + 1 :]
            head, last = np.split(out.reshape(*pre, l, mi // l, *post), [l - 1], axis=axis)
            out = (head - last).reshape(*pre, (l - 1) * (mi // l), *post)
        return out.reshape(b, self.phi)

    @cached_property
    def _powerful_columns(self) -> tuple[np.ndarray, np.ndarray]:
        # the exponent e of each tensor basis element (x)_i zeta_{m_i}^(j_i),
        # in `reduce_tensor`'s column order, is e = j_i mod m_i for every i;
        # as zeta^(s*k) = sign, it is the column e mod s*k, negated where
        # sign = -1 and e >= s*k (distinct basis elements never share a column)
        exps = np.zeros(1, dtype=np.int64)
        for _, mi in self._axes:
            rest = self.m // mi
            unit = rest * pow(rest, -1, mi)  # 1 mod m_i, 0 mod m / m_i
            exps = (exps[:, None] + unit * np.arange(numth.euler_phi(mi), dtype=np.int64)).ravel() % self.m
        fold = self._s * self._k
        return exps % fold, exps[exps >= fold] % fold

    def from_powerful(self, coords: np.ndarray) -> np.ndarray:
        """Power-basis (canonical) coefficients of rows of tensor-basis
        coordinates (`reduce_tensor`'s output), by one `reduce_matrix` call
        on rows already folded to width s*k."""
        coords = np.asarray(coords)
        cols, negated = self._powerful_columns
        # scattered as whole rows of the transpose: a column fancy index is slower
        mat = np.zeros((self._s * self._k, coords.shape[0]), dtype=coords.dtype)
        mat[cols] = coords.T
        mat[negated] = -mat[negated]
        return self.reduce_matrix(mat.T)

    # -- element constructors -------------------------------------------

    def _from_exponents(self, exps: np.ndarray, coeffs: np.ndarray) -> "CycloElement":
        # sum coeffs[i] * zeta^exps[i]; the exps (in [0, m)) are distinct
        # mod m/2 when m is even, so the fold adds no two of them
        v = np.zeros(self.m, dtype=object if coeffs.dtype == object else np.int64)
        v[exps] = coeffs
        if self._sign < 0:
            v = v[: self.m // 2] - v[self.m // 2 :]
        return CycloElement(self, self.reduce_vector(v))

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


def get_ring(m: int) -> CycloRing:
    if m > MAX_CONDUCTOR:
        raise ResourceCapError(f"conductor {m} exceeds max_conductor cap {MAX_CONDUCTOR}")
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
        if a.dtype == object or b.dtype == object or _max_abs(a) + _max_abs(b) >= _I64_SAFE:
            a, b = a.astype(object), b.astype(object)
        return CycloElement(self.ring, a + b)

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
        if a.dtype == object or max(_max_abs(a), 1) * abs(c) >= _I64_SAFE:
            a = a.astype(object)  # |c| >= 2^62 has no int64 form either
        return CycloElement(self.ring, a * c)

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
        # j is odd for even m: j*i, j*i' m/2 apart need |i - i'| = m/2 >= phi
        return self.ring._from_exponents(j * np.arange(self.ring.phi, dtype=np.int64) % m, self.coeffs)

    def conj(self) -> "CycloElement":
        return self.galois(self.ring.m - 1)

    def lift_to(self, big: CycloRing) -> "CycloElement":
        """Coerce into Z[zeta_M] for m | M via zeta_m = zeta_M^(M/m)."""
        if big.m % self.ring.m != 0:
            raise ArgumentError(
                f"cannot lift conductor {self.ring.m} into {big.m}"
            )
        # exponents M/2 apart need |i - i'| = m/2 >= phi(m), or m odd: none
        return big._from_exponents(big.m // self.ring.m * np.arange(self.ring.phi, dtype=np.int64), self.coeffs)

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

    def embed_complex(self) -> tuple[complex, float]:
        """Complex value at zeta_m = exp(2*pi*i/m) plus a crude error bound,
        summed at 25 significant digits."""
        import mpmath

        with mpmath.workdps(25):
            total = mpmath.mpc(0)
            abssum = 0
            for k, c in enumerate(self.coeffs):
                c = int(c)
                if c:
                    total += c * mpmath.expjpi(mpmath.mpf(2 * k) / self.ring.m)
                    abssum += abs(c)
            err = float(abssum) * 1e-15
            return complex(total), err

    def __repr__(self) -> str:  # pragma: no cover
        nz = {i: int(c) for i, c in enumerate(self.coeffs) if c}
        return f"CycloElement(m={self.ring.m}, {nz})"
