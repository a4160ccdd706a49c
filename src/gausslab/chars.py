"""Multiplicative characters of F_{q^n}^x indexed by Teichmueller exponents.

chi_e sends the fixed tower generator g to zeta_{q^n-1}^e, so e = 1 is the
canonical generator omega of the character group and chi_e = omega^e.  The
artifact always stores the literal exponent e; call sites that realize a
formula stated for omega^{-k} pass the negated exponent explicitly.

Values land in the shared ring Z[zeta_m], m = p*(q^n-1), where the additive
character also lives: chi_e(g^j) = zeta_{q^n-1}^(e*j) = zeta_m^(p*e*j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cyclo, numth
from .errors import ArgumentError
from .ff import FieldTower


def conductor(tower: FieldTower) -> int:
    return tower.p * tower.mult_order


def ring_for(tower: FieldTower, max_conductor: int = cyclo.DEFAULT_MAX_CONDUCTOR) -> cyclo.CycloRing:
    return cyclo.get_ring(conductor(tower), max_conductor=max_conductor)


def twist_offset(tower: FieldTower, k: int = 1) -> int:
    """k-hat = k*(q^n-1)/(q-1), the exponent shift of twisting by eta_k o Nr."""
    return numth.k_hat(tower.q, tower.n, k)


@dataclass(frozen=True)
class MultChar:
    """The character chi_e of F_{q^n}^x for the tower's pinned generator."""

    tower: FieldTower
    e: int

    def __post_init__(self):
        object.__setattr__(self, "e", self.e % self.tower.mult_order)

    @property
    def order(self) -> int:
        N = self.tower.mult_order
        return N // math.gcd(self.e, N)

    def is_trivial(self) -> bool:
        return self.e == 0

    def inverse(self) -> "MultChar":
        return MultChar(self.tower, -self.e)

    def power(self, k: int) -> "MultChar":
        return MultChar(self.tower, self.e * k)

    def is_regular(self) -> bool:
        """No factoring through a proper norm; equivalently a full Frobenius orbit."""
        N, q, n = self.tower.mult_order, self.tower.q, self.tower.n
        for d in numth.proper_divisors(n):
            if self.e % (N // (q**d - 1)) == 0:
                return False
        return True

    def frobenius_orbit(self) -> list[int]:
        N, q = self.tower.mult_order, self.tower.q
        out = set()
        e = self.e
        for _ in range(self.tower.n):
            out.add(e)
            e = (e * q) % N
        return sorted(out)

    def orbit_rep(self) -> int:
        return self.frobenius_orbit()[0]

    def twist(self, k: int) -> "MultChar":
        """chi_e tensored with eta_k o Nr_{n:1} (eta_k on the base field)."""
        if not 0 <= k < self.tower.q - 1:
            raise ArgumentError(
                f"twist index {k} outside [0, q-1) = [0, {self.tower.q - 1})"
            )
        return MultChar(self.tower, self.e + twist_offset(self.tower, k))

    def restrict_to_base(self) -> int:
        """Exponent mod q-1 of the restriction to F_q^x."""
        return self.e % (self.tower.q - 1)

    def value_at(self, x: int) -> cyclo.CycloElement:
        """chi_e(x) as an exact element of the shared conductor-m ring."""
        if x == 0:
            raise ArgumentError("characters are not defined at 0")
        ring = ring_for(self.tower)
        return ring.zeta_pow(self.tower.p * self.e * self.tower.dlog(x))

    def value_at_minus_one(self) -> int:
        """chi_e(-1) as +-1."""
        if self.tower.p == 2:
            return 1
        return -1 if (self.e * (self.tower.mult_order // 2)) % self.tower.mult_order else 1


def regular_exponents(tower: FieldTower) -> list[int]:
    return [e for e in range(tower.mult_order) if MultChar(tower, e).is_regular()]


def orbit_minima(N: int, mult: int, period: int) -> np.ndarray:
    """Smallest member of the orbit of e under e -> mult*e mod N, for every
    e in [0, N); `period` must satisfy mult^period = 1 mod N."""
    e = np.arange(N, dtype=np.int64)
    out = e.copy()
    x = e
    for _ in range(period - 1):
        x = x * mult % N
        np.minimum(out, x, out=out)
    return out


def orbit_reps(tower: FieldTower, regular_only: bool = True) -> list[int]:
    """Smallest member of each Frobenius orbit, optionally regular ones only."""
    N = tower.mult_order
    mins = orbit_minima(N, tower.q, tower.n)
    reps = np.flatnonzero(mins == np.arange(N)).tolist()
    if regular_only:
        reps = [e for e in reps if MultChar(tower, e).is_regular()]
    return reps
