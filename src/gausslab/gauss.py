"""Exact Gauss sums, twisted gamma factors, etale-algebra sums and the
Hasse-Davenport lifting check.

Conventions, fixed once for the whole artifact:

* psi is the additive character with psi(1) = zeta_p, evaluated through the
  absolute trace: psi(Tr x) = zeta_p^(Tr_{F_{q^n}/F_p} x).  In the shared
  ring Z[zeta_m], m = p*(q^n-1), this is zeta_m^((q^n-1)*t).
* S(chi_e) = sum_j zeta_{q^n-1}^(e*j) * psi(Tr g^j).
* G(beta, psi) = sum_a beta(a) psi(Tr a^{-1}) = S(beta^{-1}).

Every Gauss sum is a row of a GaussTable, built by one histogram call
(_accel.gauss_counts) over the p-orbit minima of the exponents, since
S(chi_{pe}) = S(chi_e), and one matrix reduction.  The whole-field table is
cached per tower and serves gauss_S; a table over a subfield F_{q^d} serves
the subfield sums of Hasse-Davenport and the etale scan.

Sums over proper subfields (Hasse-Davenport, etale scans) are evaluated
inside the ambient tower with the subfield generator pinned to the norm of
the tower generator, so that inflation along norms is exponent scaling on
the nose.  Base-field sums computed in a standalone degree-1 tower would
differ by a Galois twist whenever that tower's generator is not the norm
image; every cross-degree identity here therefore stays inside one tower.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import lcm

import numpy as np

from . import _accel, cyclo
from .chars import MultChar, orbit_minima, ring_for, twist_offset
from .errors import ArgumentError
from .ff import EtaleAlgebra, FieldTower


# ---------------------------------------------------------------------------
# Gauss-sum tables


class GaussTable:
    """Canonical coefficients of S(chi_c) for every character c of the
    subfield F_{q^d}^x of a tower, d | n (the whole field by default).

    Characters are indexed against h = Nr_{n:d}(g) = g^s, s = (q^n-1)/(q^d-1):
    chi_c maps h^l to zeta_{q^d-1}^(c*l), and psi restricts through the
    subfield's own absolute trace, so S(chi_c) is the histogram of
    p*c*s*l + (q^n-1)*Tr(h^l) mod m in the tower's ring.  x -> x^p permutes
    the subfield and fixes the trace, so S(chi_{pc}) = S(chi_c): the table
    computes one row per orbit of c -> p*c mod (q^d-1) (orbit lengths
    dividing f*d), at the orbit minimum, and `row_of[c]` names the row of S
    that holds S(chi_c).  At d = n, h = g and c is the plain exponent.
    """

    def __init__(self, tower: FieldTower, d: int | None = None,
                 max_conductor: int = cyclo.DEFAULT_MAX_CONDUCTOR):
        d = tower.n if d is None else d
        if d < 1 or tower.n % d != 0:
            raise ArgumentError(f"subfield degree {d} does not divide n={tower.n}")
        self.tower = tower
        self.ring = ring_for(tower, max_conductor=max_conductor)
        N, p, m = tower.mult_order, tower.p, self.ring.m
        self.mult_order = Nd = tower.q**d - 1
        mins = orbit_minima(Nd, p, tower.f * d)
        reps = np.flatnonzero(mins == np.arange(Nd))
        self.row_of = np.searchsorted(reps, mins)
        offsets = N * tower.subfield_traces(tower.f * d) % m  # psi(Tr h^l)
        counts = _accel.gauss_counts(p, m, offsets, exps=reps * (N // Nd))
        self.S = self.ring.reduce_matrix(counts)

    def rows(self, es) -> np.ndarray:
        """Canonical rows of S(chi_c) stacked in the order of `es`."""
        return self.S[self.row_of[np.asarray(es) % self.mult_order]]

    def element(self, e: int) -> cyclo.CycloElement:
        row = self.S[self.row_of[e % self.mult_order]]
        return cyclo.CycloElement(self.ring, row.copy())

    def key(self, e: int) -> bytes | tuple[int, ...]:
        return cyclo.canonical_key(self.S[self.row_of[e % self.mult_order]])


_TABLE_CACHE: dict[int, tuple[FieldTower, GaussTable]] = {}


def gauss_table(tower: FieldTower, max_conductor: int = cyclo.DEFAULT_MAX_CONDUCTOR) -> GaussTable:
    """The whole-field table of a tower, built once and cached."""
    hit = _TABLE_CACHE.get(id(tower))
    if hit is not None and hit[0] is tower:
        cyclo.check_conductor(hit[1].ring.m, max_conductor)
        return hit[1]
    table = GaussTable(tower, max_conductor=max_conductor)
    _TABLE_CACHE[id(tower)] = (tower, table)
    return table


def gauss_S(c: MultChar) -> cyclo.CycloElement:
    """S(chi) = sum over F_{q^n}^x of chi(x) psi(Tr x)."""
    return gauss_table(c.tower).element(c.e)


def gauss_G(c: MultChar) -> cyclo.CycloElement:
    """G(chi, psi) = sum chi(a) psi(Tr a^{-1}) = S(chi^{-1})."""
    return gauss_S(c.inverse())


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


def hasse_davenport_check(tower: FieldTower, c: int) -> bool:
    """-S(chi o Nr_{n:1}) == (-S(chi))^n for the base-field character chi_c.

    `tower` is the lifted field F_{q^n}; the base sum runs over the embedded
    F_q with the norm-of-generator indexing, so both sides live in one ring.
    """
    m_deg = tower.n
    base = subfield_gauss_sum(tower, 1, c)
    lifted = gauss_S(MultChar(tower, c * (tower.mult_order // (tower.q - 1))))
    return -lifted == (-base) ** m_deg


# ---------------------------------------------------------------------------
# etale-algebra sums


def etale_gauss(A: EtaleAlgebra, chars: list[MultChar]) -> cyclo.CycloElement:
    """G_A(chi, psi) = prod of per-factor Gauss sums, in the lcm ring."""
    if len(chars) != A.r:
        raise ArgumentError(
            f"need one character per factor: got {len(chars)} for {A.r} factors"
        )
    for c, T in zip(chars, A.factors):
        if c.tower is not T:
            raise ArgumentError("character tower does not match the algebra factor")
    # the factor conductors p*(q^{n_i}-1) share p; lcm the group orders
    big_m = A.p * lcm(*[T.mult_order for T in A.factors])
    big = cyclo.get_ring(big_m)
    out = big.one()
    for c in chars:
        out = out * gauss_S(c).lift_to(big)
    return out


def etale_gauss_signed(A: EtaleAlgebra, chars: list[MultChar]) -> cyclo.CycloElement:
    e = etale_gauss(A, chars)
    return -e if A.sign < 0 else e


# ---------------------------------------------------------------------------
# conjectural tensor-product gamma (RHS) over the composite field


def tensor_gamma_rhs(
    chi: MultChar,
    eta: MultChar,
    *,
    big_tower: FieldTower,
) -> ScaledCyclo:
    """c * chi(-1)^(m-1) eta(-1)^(n-1) * G(chi o Nr * eta o Nr, psi) over
    F_{q^{mn}}, with c = (-1)^(m(n-1)) q^(-mn + (m^2+m)/2).

    `big_tower` must be the degree-m*n tower over the same base; characters
    compose along norms by exponent scaling (norm-of-generator indexing).
    """
    n, m_deg = chi.tower.n, eta.tower.n
    if chi.tower.p != eta.tower.p or chi.tower.f != eta.tower.f:
        raise ArgumentError("chi and eta must share the base field")
    if n <= m_deg:
        raise ArgumentError(f"need n > m, got n={n}, m={m_deg}")
    if big_tower.n != n * m_deg or big_tower.p != chi.tower.p or big_tower.f != chi.tower.f:
        raise ArgumentError("big_tower is not the degree-m*n tower over the base")
    NN = big_tower.mult_order
    E = chi.e * (NN // chi.tower.mult_order) + eta.e * (NN // eta.tower.mult_order)
    g_elt = gauss_S(MultChar(big_tower, -E))  # G(beta) = S(beta^{-1})
    sign = (-1) ** (m_deg * (n - 1))
    sign *= chi.value_at_minus_one() ** (m_deg - 1)
    sign *= eta.value_at_minus_one() ** (n - 1)
    if sign < 0:
        g_elt = -g_elt
    power = m_deg * n - (m_deg * m_deg + m_deg) // 2
    return ScaledCyclo(g_elt, power, chi.tower.q)
