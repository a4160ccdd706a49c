"""Elementary number theory helpers (trial division only, no probabilistic steps).

Factorizations are exact or rejected: `factorize` raises ResourceCapError when
trial division up to the cap cannot finish the job.  All inputs in this
artifact are small (multiplicative group orders below the field size cap), so
the cap never binds in normal operation.
"""

from __future__ import annotations

from .errors import ArgumentError, ResourceCapError

DEFAULT_TRIAL_CAP = 1 << 20


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factorize(n: int, trial_cap: int = DEFAULT_TRIAL_CAP) -> dict[int, int]:
    """Exact prime factorization by trial division.

    Divisors are tried up to min(sqrt(n), trial_cap); a surviving cofactor
    larger than trial_cap**2 cannot be certified prime and is rejected.
    """
    if n < 1:
        raise ArgumentError(f"cannot factor non-positive integer {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        if d > trial_cap:
            raise ResourceCapError(
                f"trial-division cap {trial_cap} exceeded while factoring {n}"
            )
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_divisors(n: int, trial_cap: int = DEFAULT_TRIAL_CAP) -> list[int]:
    return sorted(factorize(n, trial_cap))


def divisors(n: int) -> list[int]:
    f = factorize(n)
    out = [1]
    for p, e in f.items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def proper_divisors(n: int) -> list[int]:
    return [d for d in divisors(n) if d != n]


def euler_phi(n: int) -> int:
    out = n
    for p in factorize(n):
        out = out // p * (p - 1)
    return out


def moebius(n: int) -> int:
    f = factorize(n)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


def radical(n: int) -> int:
    out = 1
    for p in factorize(n):
        out *= p
    return out


def k_hat(q: int, n: int, k: int = 1) -> int:
    """k-hat = k*(q^n-1)/(q-1): twisting a character of F_{q^n}^x by the k-th
    character of F_q^x through the norm shifts its exponent by k-hat."""
    return k * ((q**n - 1) // (q - 1))
