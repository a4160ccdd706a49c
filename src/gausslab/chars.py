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
from .ff import FieldTower


def conductor(tower: FieldTower) -> int:
    return tower.p * tower.mult_order


def ring_for(tower: FieldTower) -> cyclo.CycloRing:
    return cyclo.get_ring(conductor(tower))


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

    def is_regular(self) -> bool:
        """No factoring through a proper norm; equivalently a full Frobenius orbit."""
        N, q, n = self.tower.mult_order, self.tower.q, self.tower.n
        for d in numth.proper_divisors(n):
            if self.e % (N // (q**d - 1)) == 0:
                return False
        return True

    def restrict_to_base(self) -> int:
        """Exponent mod q-1 of the restriction to F_q^x."""
        return self.e % (self.tower.q - 1)

    def value_at_minus_one(self) -> int:
        """chi_e(-1) as +-1."""
        if self.tower.p == 2:
            return 1
        return -1 if (self.e * (self.tower.mult_order // 2)) % self.tower.mult_order else 1


def regular_mask(N: int, q: int, n: int) -> np.ndarray:
    """Mask over e in [0, N), N = q^n - 1: True where chi_e is regular, i.e.
    e is a multiple of N / (q^d - 1) for no proper divisor d of n."""
    e = np.arange(N, dtype=np.int64)
    mask = np.ones(N, dtype=bool)
    for d in numth.proper_divisors(n):
        mask &= e % (N // (q**d - 1)) != 0
    return mask


def regular_exponents(tower: FieldTower) -> list[int]:
    return np.flatnonzero(regular_mask(tower.mult_order, tower.q, tower.n)).tolist()


def orbit_minima(N: int, mult: int, period: int, exps=None) -> np.ndarray:
    """Smallest member of the orbit of e under e -> mult*e mod N, for every
    e of `exps` (default: every e in [0, N)); `period` must satisfy
    mult^period = 1 mod N.  Two arrays the size of `exps` are held: the
    minima and the current power, reduced in place."""
    out = np.arange(N, dtype=np.int64) if exps is None else np.asarray(exps, dtype=np.int64) % N
    x = out.copy()
    for _ in range(period - 1):
        np.multiply(x, mult, out=x)
        np.remainder(x, N, out=x)
        np.minimum(out, x, out=out)
    return out


def orbit_count(q: int, n: int, regular_only: bool = True) -> int:
    """len(orbit_reps) of a degree-n tower over F_q, without an array: x q^d
    fixes q^d - 1 exponents, so the exponents of orbit length exactly n
    number sum_{d|n} mu(n/d) (q^d - 1) (Moebius), and the orbits of all
    exponents (1/n) sum_{d|n} phi(n/d) (q^d - 1) (Burnside)."""
    weight = numth.moebius if regular_only else numth.euler_phi
    return sum(weight(n // d) * (q**d - 1) for d in numth.divisors(n)) // n


def orbit_reps(tower: FieldTower, regular_only: bool = True) -> list[int]:
    """Smallest member of each Frobenius orbit, optionally regular ones only."""
    N = tower.mult_order
    keep = orbit_minima(N, tower.q, tower.n) == np.arange(N)
    if regular_only:
        keep &= regular_mask(N, tower.q, tower.n)
    return np.flatnonzero(keep).tolist()
