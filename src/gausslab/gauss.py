"""Exact Gauss sums, twisted gamma factors and the Hasse-Davenport lifting
check.

Conventions, fixed once for the whole artifact:

* psi is the additive character with psi(1) = zeta_p, evaluated through the
  absolute trace: psi(Tr x) = zeta_p^(Tr_{F_{q^n}/F_p} x).  In the shared
  ring Z[zeta_m], m = p*(q^n-1), this is zeta_m^((q^n-1)*t).
* S(chi_e) = sum_j zeta_{q^n-1}^(e*j) * psi(Tr g^j).
* G(beta, psi) = sum_a beta(a) psi(Tr a^{-1}) = S(beta^{-1}).

Every Gauss sum is a row of a GaussTable, computed from the histograms
(_accel.gauss_counts) of the p-orbit minima of the exponents, since
S(chi_{pe}) = S(chi_e).  A table keeps only the recipe of its rows and
computes them when read, in row blocks of about 1 MiB of histogram, so a
reader never holds an (R, m) or (R, phi) matrix of all its rows.  The
histograms reduce to exact tensor-basis coordinates by subtractions alone.
Integer ids of the rows' values (`value_id`, `key`) come from the one
Gauss-sum key, which the scans read too (`digits.product_labels`: the
Stickelberger valuations and Gross-Koblitz unit of each row's character),
and compute no row; the tests hold them to the Z[zeta_m] numbering of the
rows' coordinates.  The power-basis coefficients are computed, by matrix
reduction, only when a sum is read: all of them for `S`, a few for `rows`.
The whole-field table is cached per tower in `_TABLE_CACHE` and serves
gauss_S; a CLI call empties that cache when it ends, so a table lives as
long as the call that built its tower.  A table over a subfield F_{q^d} is
owned by its caller and serves the subfield sums of Hasse-Davenport and the
tensor RHS.

Every character of a subfield F_{q^d} is an exponent on the one ambient
tower, indexed against h = Nr_{n:d}(g), the norm of the tower generator, so
that inflation along norms is exponent scaling on the nose.  A standalone
degree-d tower is never used for a subfield character: its generator need
not be h (the F_25 generator has norm 3, the F_5 generator is 2), and its
sums would differ by a Galois twist.  Every cross-degree identity here
therefore stays inside one tower.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _accel, cyclo, digits
from .chars import MultChar, orbit_minima, ring_for, twist_offset
from .errors import ArgumentError
from .ff import FieldTower


# ---------------------------------------------------------------------------
# Gauss-sum tables

# A table computes its rows in blocks of about this many bytes of int64
# histogram, so no (rows, m) matrix is ever held and each block stays in cache.
_BLOCK_BYTES = 1 << 20


def _put(out: np.ndarray, block: slice, part: np.ndarray) -> np.ndarray:
    """`out` with `part` written into its rows `block`: an int64 `out`
    becomes object first if `part` holds Python ints."""
    if part.dtype == object and out.dtype != object:
        out = out.astype(object)
    out[block] = part
    return out


class GaussTable:
    """Canonical coefficients of S(chi_c) for every character c of the
    subfield F_{q^d}^x of a tower, d | n (the whole field by default).

    Characters are indexed against h = Nr_{n:d}(g) = g^s, s = (q^n-1)/(q^d-1):
    chi_c maps h^l to zeta_{q^d-1}^(c*l), and psi restricts through the
    subfield's own absolute trace, so S(chi_c) is the histogram of
    p*c*s*l + (q^n-1)*Tr(h^l) mod m in the tower's ring.  x -> x^p permutes
    the subfield and fixes the trace, so S(chi_{pc}) = S(chi_c): the table
    has one row per orbit of c -> p*c mod (q^d-1) (orbit lengths dividing
    f*d), at the orbit minimum, and `row_of[c]` names the row that holds
    S(chi_c).  At d = n, h = g and c is the plain exponent.

    A table holds `row_of` and the recipe of its rows (the trace offsets and
    the orbit-minimum exponents), never their coefficients: each reader
    computes the rows it needs, one block of about _BLOCK_BYTES of (rows, m)
    int64 histogram at a time.  A block's histograms are laid out in the
    ring's tensor order and reduced by `CycloRing.reduce_tensor` to their
    unique coordinates in the tensor ("powerful") basis.

    * `value_id[r]` numbers the exact value of row r in first-seen order, so
      two rows have equal ids exactly when their sums are equal; `key(c)` is
      the id of S(chi_c).  The ids are `digits.product_labels` of the
      orbit-minimum characters, so they compute no row.
    * `S`, the power-basis coefficients of every row, is built on its first
      read through `CycloRing.from_powerful`; `rows(exps)` computes just the
      rows of some exponents, for callers that read a few sums.  Either is
      int64 unless some block needs Python ints, and then all of it is
      object.

    Neither `value_id` nor `S` builds the other.
    """

    def __init__(self, tower: FieldTower, d: int | None = None):
        d = tower.n if d is None else d
        if d < 1 or tower.n % d != 0:
            raise ArgumentError(f"subfield degree {d} does not divide n={tower.n}")
        self.tower = tower
        self._d = d
        self.ring = ring_for(tower)
        N, p, m = tower.mult_order, tower.p, self.ring.m
        self.mult_order = Nd = tower.q**d - 1
        mins = orbit_minima(Nd, p, tower.f * d)
        reps = np.flatnonzero(mins == np.arange(Nd))
        self.row_of = np.searchsorted(reps, mins)
        self._offsets = N * tower.subfield_traces(tower.f * d) % m  # psi(Tr h^l)
        self._exps = reps * (N // Nd)

    def _coordinates(self, rows: slice | np.ndarray) -> np.ndarray:
        """Tensor-basis coordinates of the given rows, (len(rows), phi)."""
        ring = self.ring
        counts = _accel.gauss_counts(self.tower.p, ring.m, self._offsets,
                                     position=ring.tensor_position, exps=self._exps[rows])
        return ring.reduce_tensor(counts)

    def _blocks(self, n: int):
        """Consecutive slices of range(n), each a block of about _BLOCK_BYTES
        of m-wide int64 histogram."""
        step = max(1, _BLOCK_BYTES // (8 * self.ring.m))
        return (slice(lo, lo + step) for lo in range(0, n, step))

    @cached_property
    def value_id(self) -> np.ndarray:
        """An int64 id per row, numbering the rows' exact values in
        first-seen order."""
        c = self._exps // (self.tower.mult_order // self.mult_order)
        return digits.product_labels(self.tower.p, self.tower.f, [(1, (self._d,), c[:, None])])

    def _power_rows(self, rows: np.ndarray) -> np.ndarray:
        """Power-basis coefficients of the given rows, (len(rows), phi);
        int64 unless some block needs Python ints, then all object.  The
        coordinates of every block are written into the result first and
        then converted there, block by block, so no block is held twice
        beside it.  (Converting each block as soon as it is computed peaks
        no higher on the heap, but measured about 0.2 MB more RSS.)"""
        out = np.empty((len(rows), self.ring.phi), dtype=np.int64)
        for block in self._blocks(len(rows)):
            out = _put(out, block, self._coordinates(rows[block]))
        for block in self._blocks(len(rows)):
            out = _put(out, block, self.ring.from_powerful(out[block]))
        return out

    @cached_property
    def S(self) -> np.ndarray:
        """Canonical (power-basis) coefficients, one row per orbit."""
        return self._power_rows(np.arange(len(self._exps)))

    def rows(self, exps) -> np.ndarray:
        """`S[row_of[exps]]`, computed for just those orbits."""
        needed, inverse = np.unique(self.row_of[np.asarray(exps, dtype=np.int64) % self.mult_order],
                                    return_inverse=True)
        return self._power_rows(needed)[inverse]

    def element(self, e: int) -> cyclo.CycloElement:
        row = self.S[self.row_of[e % self.mult_order]]
        return cyclo.CycloElement(self.ring, row.copy())

    def key(self, e: int) -> int:
        """The id of the exact value S(chi_e)."""
        return int(self.value_id[self.row_of[e % self.mult_order]])


_TABLE_CACHE: dict[int, tuple[FieldTower, GaussTable]] = {}


def gauss_table(tower: FieldTower) -> GaussTable:
    """The whole-field table of a tower, built once and cached until the CLI
    call that built the tower ends (a library caller keeps it for the life
    of the process)."""
    hit = _TABLE_CACHE.get(id(tower))
    if hit is not None and hit[0] is tower:
        return hit[1]
    table = GaussTable(tower)
    _TABLE_CACHE[id(tower)] = (tower, table)
    return table


def gauss_S(c: MultChar) -> cyclo.CycloElement:
    """S(chi) = sum over F_{q^n}^x of chi(x) psi(Tr x)."""
    return gauss_table(c.tower).element(c.e)


def sigma_fixing_psi(x: cyclo.CycloElement, j: int, tower: FieldTower) -> cyclo.CycloElement:
    """The automorphism zeta_{q^n-1} -> zeta_{q^n-1}^j, zeta_p -> zeta_p.

    This is the sigma_j under which Gauss-sum ideals factor; it differs from
    the plain galois map, which raises every m-th root to the j-th power.
    """
    p, N = tower.p, tower.mult_order
    if math.gcd(j, N) != 1:
        raise ArgumentError(f"sigma index {j} is not a unit mod {N}")
    # CRT: jj = j mod N, jj = 1 mod p
    jj = (j % N) * p * pow(p, -1, N) + N * pow(N, -1, p)
    return x.galois(jj % (p * N))


# ---------------------------------------------------------------------------
# rational-prefactor bookkeeping


@dataclass(frozen=True)
class ScaledCyclo:
    """numerator / base^power with the q-power stripped to canonical form."""

    num: cyclo.CycloElement
    power: int
    base: int

    def __post_init__(self):
        num, power = self.num, self.power
        if num.is_zero():
            power = 0
        else:
            while num.divisible_by_int(self.base):
                num = num.divide_exact_int(self.base)
                power -= 1
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "power", power)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScaledCyclo):
            return NotImplemented
        return self.base == other.base and self.power == other.power and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.base, self.power, self.num))

    def __mul__(self, other: "ScaledCyclo") -> "ScaledCyclo":
        if self.base != other.base:
            raise ArgumentError("scale-base mismatch")
        return ScaledCyclo(self.num * other.num, self.power + other.power, self.base)


def gamma_n_by_1(c: MultChar, k: int) -> ScaledCyclo:
    """Twisted gamma factor of the cuspidal representation attached to chi_e.

    Equals (-q^{-1} tau(-1))^(n-1) * sum_a psi(Tr a^{-1}) chi_e(a) tau(Nr a)
    with tau the k-th base-field character; the sum collapses to the Gauss
    sum of the inverse twisted character.
    """
    tower = c.tower
    if tower.n < 2:
        raise ArgumentError("gamma factor needs extension degree n >= 2")
    if not c.is_regular():
        raise ArgumentError(
            f"exponent {c.e} is not regular; gamma is defined for cuspidal data only"
        )
    if not 0 <= k < tower.q - 1:
        raise ArgumentError(f"twist index {k} outside [0, {tower.q - 1})")
    tau_minus_one = 1 if tower.p == 2 else (-1) ** k
    sign = ((-1) * tau_minus_one) ** (tower.n - 1)
    twisted = (c.e + twist_offset(tower, k)) % tower.mult_order
    num = gauss_S(MultChar(tower, -twisted))
    if sign < 0:
        num = -num
    return ScaledCyclo(num, tower.n - 1, tower.q)


# ---------------------------------------------------------------------------
# subfield sums inside an ambient tower (norm-compatible indexing)


def subfield_gauss_sum(tower: FieldTower, d: int, c: int) -> cyclo.CycloElement:
    """Gauss sum over the subfield F_{q^d} of F_{q^n}, d | n, inside the
    tower's ring, for the character mapping Nr_{n:d}(g)^l to
    zeta_{q^d-1}^(c*l) (see GaussTable)."""
    return GaussTable(tower, d).element(c)


def hasse_davenport_check(tower: FieldTower, exponents) -> list[int]:
    """The base-field exponents c for which -S(chi_c o Nr_{n:1}) != (-S(chi_c))^n.

    `tower` is the lifted field F_{q^n}; the base sums are rows of one
    subfield table over the embedded F_q with the norm-of-generator indexing,
    so both sides live in one ring.
    """
    base = GaussTable(tower, 1)
    lift = tower.mult_order // (tower.q - 1)
    return [c for c in exponents
            if -gauss_S(MultChar(tower, c * lift)) != (-base.element(c)) ** tower.n]


# ---------------------------------------------------------------------------
# conjectural tensor-product gamma (RHS) over the composite field


def tensor_gamma_rhs(tower: FieldTower, n: int, m: int, chi_e: int, eta_e: int) -> ScaledCyclo:
    """c * chi(-1)^(m-1) eta(-1)^(n-1) * G(chi o Nr * eta o Nr, psi) over
    F_{q^{mn}}, with c = (-1)^(m(n-1)) q^(-mn + (m^2+m)/2).

    `tower` is the degree-m*n tower; chi = chi_{chi_e} lives on its subfield
    F_{q^n} and eta = chi_{eta_e} on F_{q^m}, each indexed against the norm
    of the tower generator (GaussTable's indexing), so composing along the
    norms scales the exponents.
    """
    if m < 1 or n <= m:
        raise ArgumentError(f"need n > m >= 1, got n={n}, m={m}")
    if tower.n != n * m:
        raise ArgumentError(f"tower degree {tower.n} is not n*m = {n * m}")
    NN, q = tower.mult_order, tower.q
    E = chi_e * (NN // (q**n - 1)) + eta_e * (NN // (q**m - 1))
    g_elt = gauss_S(MultChar(tower, -E))  # G(beta) = S(beta^{-1})
    sign = (-1) ** (m * (n - 1))
    if tower.p != 2:  # chi_c(-1) = (-1)^c: -1 is h^((q^d-1)/2) for every generator h
        sign *= (-1) ** ((chi_e * (m - 1) + eta_e * (n - 1)) % 2)
    if sign < 0:
        g_elt = -g_elt
    power = m * n - (m * m + m) // 2
    return ScaledCyclo(g_elt, power, q)
