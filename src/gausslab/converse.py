"""Converse-theorem verification engine.

Twist signatures: the tuple over all base-field twists k of the exact Gauss
sum S(chi_{e + k*(q^n-1)/(q-1)}).  Two characters index isomorphic cuspidal
data iff they share a Frobenius orbit, and the converse statements under
test say the signature separates orbits (within their stated populations).
Every scan groups through `signature_classes`, keyed by `canonical_key` of
the stacked canonical Gauss-table rows of the twists (their int64 bytes, or
Python-int tuples past 2^62).  Equal keys mean equal coefficients and a dict
compares keys in full, so no hash re-verification step is needed: the
grouping key is the exact value.

Scans never compare floating point and never sample: populations are
exhaustive over the stated character sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import lcm

import numpy as np

from . import digits, numth
from .chars import MultChar, orbit_minima, orbit_reps, ring_for, twist_offset
from .cyclo import CycloElement, canonical_key
from .errors import ArgumentError
from .ff import FieldTower, build_tower
from .gauss import GaussTable, gauss_table, subfield_gauss_sum
from ._accel import kernel_backend
from . import __version__


def convention_stamp(tower: FieldTower) -> dict:
    """Everything a reader needs to reproduce exponent indexing bit-for-bit."""
    return {
        "p": tower.p,
        "f": tower.f,
        "n": tower.n,
        "modulus": list(tower.modulus),
        "generator": tower.g,
        "psi": "psi(x) = zeta_p^(absolute trace of x); zeta_p = zeta_m^(q^n-1)",
        "character_indexing": "chi_e(g^j) = zeta_{q^n-1}^(e*j)",
        "version": __version__,
    }


# ---------------------------------------------------------------------------
# signatures


@dataclass(frozen=True)
class TwistSignature:
    """Exact Gauss sums of the twisted family chi_e * eta_k, k < q-1."""

    tower: FieldTower
    e: int
    entries: tuple[CycloElement, ...]

    def key(self) -> tuple:
        return tuple(x.key for x in self.entries)


def signature(tower: FieldTower, e: int) -> TwistSignature:
    tab = gauss_table(tower)
    N = tower.mult_order
    stride = N // (tower.q - 1)
    entries = tuple(tab.element((e + k * stride) % N) for k in range(tower.q - 1))
    return TwistSignature(tower=tower, e=e, entries=entries)


def distinguishable(tower: FieldTower, a: int, b: int) -> bool:
    """True iff some twist k separates the exact sums of chi_a and chi_b."""
    return signature(tower, a).key() != signature(tower, b).key()


def _signature_key(tab: GaussTable, e: int, stride: int, n_twists: int) -> bytes | tuple:
    return canonical_key(tab.rows(e + stride * np.arange(n_twists)))


def signature_classes(tab: GaussTable, exps, stride: int, n_twists: int) -> list[list[int]]:
    """Partition `exps` by the exact sums of their twists e + k*stride,
    k < n_twists: classes in first-seen order, members in input order."""
    classes: dict = {}
    for e in exps:
        classes.setdefault(_signature_key(tab, e, stride, n_twists), []).append(e)
    return list(classes.values())


# ---------------------------------------------------------------------------
# scan reports


@dataclass
class Assertion:
    name: str
    status: str  # "pass" | "fail" | "inconclusive" | "expected"
    witness: dict | None = None


@dataclass
class ScanReport:
    kind: str
    stamp: dict
    population: str
    equivalence: str
    n_orbits: int
    n_classes: int
    collision_classes: list[list[int]]
    assertions: list[Assertion] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(a.status in ("pass", "expected") for a in self.assertions)


def _orbits_under(exponents, mult: int, N: int, period: int) -> list[int]:
    """Sorted orbit minima of an exponent set closed under e -> mult*e mod N;
    `period` must satisfy mult^period = 1 mod N."""
    mins = orbit_minima(N, mult, period)
    return sorted(set(mins[np.asarray(exponents, dtype=np.int64)].tolist()))


def scan_converse(tower: FieldTower, population: str = "regular") -> ScanReport:
    """Group Frobenius orbits by twist signature; collisions break the converse.

    population "regular": cuspidal data (Theorem-1.2-style scans);
    population "all": every character (appendix-bound scans).
    """
    if population not in ("regular", "all"):
        raise ArgumentError(f"unknown population {population!r}")
    tab = gauss_table(tower)
    N, q = tower.mult_order, tower.q
    stride = N // (q - 1)
    reps = orbit_reps(tower, regular_only=(population == "regular"))
    classes = signature_classes(tab, reps, stride, q - 1)
    collisions = sorted(v for v in classes if len(v) > 1)
    report = ScanReport(
        kind="converse-scan",
        stamp=convention_stamp(tower),
        population=population,
        equivalence=f"frobenius-orbit (x{q})",
        n_orbits=len(reps),
        n_classes=len(classes),
        collision_classes=collisions,
    )
    report.assertions.append(
        Assertion(
            name="signature-separates-orbits",
            status="pass" if not collisions else "fail",
            witness=None if not collisions else {"collision_classes": collisions},
        )
    )
    # partition property: every orbit in exactly one class
    total = sum(len(v) for v in classes)
    report.assertions.append(
        Assertion(name="classes-partition-orbits", status="pass" if total == len(reps) else "fail")
    )
    # cross-module necessary conditions on any collision (prime base only)
    if collisions and tower.f == 1 and tower.n >= 1:
        consistent = True
        for cls in collisions:
            base = cls[0]
            v0 = digits.expand(tower.p, tower.n, base)
            for other in cls[1:]:
                v1 = digits.expand(tower.p, tower.n, other)
                if MultChar(tower, base).restrict_to_base() != MultChar(tower, other).restrict_to_base():
                    consistent = False
                if digits.digit_sum(v0) != digits.digit_sum(v1):
                    consistent = False
                if digits.digit_factorial_mod_p(v0) != digits.digit_factorial_mod_p(v1):
                    consistent = False
        report.assertions.append(
            Assertion(
                name="collisions-respect-central-character-and-digit-invariants",
                status="pass" if consistent else "fail",
            )
        )
    return report


def primitive_scan(p: int, f: int, n: int, r: int, **tower_kwargs) -> ScanReport:
    """Conjectural primitive-representation scan: base F_{q^(n/r)}, degree r,
    population = characters of F_{q^n}^x regular over F_q (full n-orbits),
    equivalence = Frobenius orbits of the intermediate field (x q^(n/r)).
    """
    if r < 2 or not numth.is_prime(r) or n % r != 0:
        raise ArgumentError(f"r={r} must be a prime divisor of n={n}")
    tower = build_tower(p, f * (n // r), r, **tower_kwargs)
    N = tower.mult_order
    q = p**f
    Q = tower.q
    tab = gauss_table(tower)
    stride = N // (Q - 1)

    def full_orbit_size(e: int) -> int:
        x, size = e, 0
        while True:
            x = (x * q) % N
            size += 1
            if x == e:
                return size

    regular_full = [e for e in range(1, N) if full_orbit_size(e) == n]
    reps = _orbits_under(regular_full, Q, N, r)
    classes = signature_classes(tab, reps, stride, Q - 1)
    collisions = sorted(v for v in classes if len(v) > 1)
    stamp = convention_stamp(tower)
    stamp["original_base"] = {"p": p, "f": f, "q": q, "n": n, "r": r}
    report = ScanReport(
        kind="primitive-scan",
        stamp=stamp,
        population=f"regular over F_{q} (full degree {n})",
        equivalence=f"frobenius-orbit over the intermediate field (x{Q})",
        n_orbits=len(reps),
        n_classes=len(classes),
        collision_classes=collisions,
    )
    report.assertions.append(
        Assertion(
            name="intermediate-twist-signature-separates-primitive-orbits",
            status="pass" if not collisions else "fail",
            witness=None if not collisions else {"collision_classes": collisions},
        )
    )
    return report


# ---------------------------------------------------------------------------
# counterexample family (p = 3, n = 2t, characters of order p^t + 1)


@dataclass
class CounterexampleReport:
    p: int
    t: int
    n: int
    feasible: bool
    phi_value: int
    family_orbit_reps: list[int]
    family_sum_values: list[int]
    expected_value: int
    all_values_match: bool
    colliding_orbit_pairs: list[list[int]]
    stamp: dict
    assertions: list[Assertion] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(a.status in ("pass", "expected") for a in self.assertions)


def counterexample_search(t: int, p: int = 3, **tower_kwargs) -> CounterexampleReport:
    """Instantiate the order-(p^t+1) family on F_{p^(2t)} and exhibit
    non-equivalent characters sharing a full twist signature.

    Feasibility: phi(p^t+1) >= 4t guarantees at least two distinct orbits.
    """
    if t < 1:
        raise ArgumentError("t must be >= 1")
    n = 2 * t
    d = p**t + 1
    phi_d = numth.euler_phi(d)
    feasible = phi_d >= 4 * t
    tower = build_tower(p, 1, n, **tower_kwargs)
    N = tower.mult_order
    tab = gauss_table(tower)
    family = [a * (p**t - 1) % N for a in range(1, d) if math.gcd(a, d) == 1]
    reps = _orbits_under(family, p, N, n)
    values: list[int] = []
    all_int = True
    for e in family:
        el = tab.element(e)
        if el.is_integer():
            values.append(el.int_value())
        else:
            all_int = False
    expected = (-p) ** t
    all_match = all_int and all(v == expected for v in values)
    # group the family orbits by full twist signature
    stride = N // (p - 1)
    classes = signature_classes(tab, reps, stride, p - 1)
    colliding = sorted(v for v in classes if len(v) > 1)
    report = CounterexampleReport(
        p=p,
        t=t,
        n=n,
        feasible=feasible,
        phi_value=phi_d,
        family_orbit_reps=reps,
        family_sum_values=sorted(set(values)),
        expected_value=expected,
        all_values_match=all_match,
        colliding_orbit_pairs=colliding,
        stamp=convention_stamp(tower),
    )
    report.assertions.append(
        Assertion(name="feasibility-phi(p^t+1)>=4t", status="pass" if feasible else "fail",
                  witness={"phi": phi_d, "needed": 4 * t})
    )
    report.assertions.append(
        Assertion(
            name="family-sums-equal-(-p)^t",
            status="pass" if all_match else "fail",
            witness={"expected": expected, "observed": sorted(set(values))},
        )
    )
    report.assertions.append(
        Assertion(
            name="distinct-orbits-share-signatures",
            status="pass" if (colliding if feasible else True) else "fail",
            witness={"colliding_orbit_classes": colliding},
        )
    )
    return report


# ---------------------------------------------------------------------------
# Mersenne spectra


@dataclass
class MersenneReport:
    n: int
    N: int
    coset_reps: list[int]
    n_orbits: int
    spectra_injective: bool
    pivot_ok: bool
    witness: dict | None
    assertions: list[Assertion] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(a.status == "pass" for a in self.assertions)


def mersenne_spectrum(n: int, e: int) -> dict[int, int]:
    """j -> s(e*j mod 2^n-1) over canonical coset representatives of
    (Z/(2^n-1))^x modulo the subgroup generated by 2."""
    return _spectrum(n, e, _coset_reps_mod2(n))


def _spectrum(n: int, e: int, reps: list[int]) -> dict[int, int]:
    N = 2**n - 1
    return {j: digits.digit_sum(digits.expand(2, n, e * j % N)) for j in reps}


def _coset_reps_mod2(n: int) -> list[int]:
    N = 2**n - 1
    if not numth.is_prime(N):
        fac = numth.prime_divisors(N)
        raise ArgumentError(f"2^{n}-1 = {N} is not prime (factor {fac[0]})")
    return _orbits_under(range(1, N), 2, N, n)


def mersenne_check(n: int) -> MersenneReport:
    """Spectrum injectivity across nontrivial orbits when 2^n - 1 is prime."""
    N = 2**n - 1
    reps = _coset_reps_mod2(n)
    spectra = {}
    clash = None
    for a in reps:
        key = tuple(_spectrum(n, a, reps).values())
        if key in spectra:
            clash = {"orbits": [spectra[key], a], "spectrum": list(key)}
            break
        spectra[key] = a
    injective = clash is None
    # s(c) = 1 iff c is a power of 2 mod N
    powers = {pow(2, i, N) for i in range(n)}
    pivot_ok = all(
        (digits.digit_sum(digits.expand(2, n, c)) == 1) == (c in powers)
        for c in range(1, N)
    )
    report = MersenneReport(
        n=n,
        N=N,
        coset_reps=reps,
        n_orbits=len(reps),
        spectra_injective=injective,
        pivot_ok=pivot_ok,
        witness=clash,
    )
    report.assertions.append(
        Assertion(name="valuation-spectra-injective-on-orbits",
                  status="pass" if injective else "fail", witness=clash)
    )
    report.assertions.append(
        Assertion(name="digit-sum-1-exactly-on-powers-of-2",
                  status="pass" if pivot_ok else "fail")
    )
    return report


# ---------------------------------------------------------------------------
# lemma suites over exhaustive scan data


@dataclass
class LemmaResult:
    name: str
    pairs_tested: int
    cross_orbit_pairs: int
    violations: list[dict]

    @property
    def status(self) -> str:
        if self.violations:
            return "fail"
        return "pass" if self.pairs_tested else "inconclusive"


@dataclass
class LemmaSuiteReport:
    p: int
    n: int
    results: list[LemmaResult]
    stamp: dict

    @property
    def ok(self) -> bool:
        return all(r.status != "fail" for r in self.results)

    def assertions(self) -> list[Assertion]:
        return [
            Assertion(
                name=f"lemma-{r.name}",
                status=r.status,
                witness={
                    "pairs_tested": r.pairs_tested,
                    "cross_orbit_pairs": r.cross_orbit_pairs,
                    "violations": r.violations[:5],
                },
            )
            for r in self.results
        ]


def _same_orbit(tower: FieldTower, a: int, b: int) -> bool:
    return MultChar(tower, a).orbit_rep() == MultChar(tower, b).orbit_rep()


def lemma_suite(tower: FieldTower) -> LemmaSuiteReport:
    """Assert the digit-statistic consequences of equal (twisted) Gauss sums
    on every pair of regular exponents in the field that satisfies each
    statement's hypothesis.  Pair counts are reported so vacuous runs are
    flagged rather than silently passing.
    """
    if tower.f != 1:
        raise ArgumentError("lemma suite runs over prime-base fields (q = p)")
    p, n, N = tower.p, tower.n, tower.mult_order
    tab = gauss_table(tower)
    stride = N // (p - 1)
    regular = [e for e in range(N) if MultChar(tower, e).is_regular()]
    vecs = {e: digits.expand(p, n, e) for e in regular}

    # groups by equal single sums S(omega^alpha)
    by_S = signature_classes(tab, regular, stride, 1)
    # groups by equal full twist signatures of omega^{-alpha}: the twists of
    # -e with stride -stride are the exponents -(e + k*stride)
    by_sig = [
        [(-x) % N for x in cls]
        for cls in signature_classes(tab, [(-e) % N for e in regular], -stride % N, p - 1)
    ]

    r_sandt = LemmaResult("equal-sums-match-digit-sum-and-factorial", 0, 0, [])
    r_windows = LemmaResult("equal-sums-match-windowed-products", 0, 0, [])
    for group in by_S:
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                a, b = group[i], group[j]
                cross = not _same_orbit(tower, a, b)
                va, vb = vecs[a], vecs[b]
                r_sandt.pairs_tested += 1
                r_sandt.cross_orbit_pairs += cross
                if digits.digit_sum(va) != digits.digit_sum(vb):
                    r_sandt.violations.append({"pair": [a, b], "stat": "digit-sum"})
                if digits.digit_factorial_mod_p(va) != digits.digit_factorial_mod_p(vb):
                    r_sandt.violations.append({"pair": [a, b], "stat": "digit-factorial"})
                if tab.key((-a) % N) != tab.key((-b) % N):
                    r_sandt.violations.append({"pair": [a, b], "stat": "inverse-sums"})
                r_windows.pairs_tested += 1
                r_windows.cross_orbit_pairs += cross
                for w in (0, 1, 2):
                    if digits.cyclic_window_product(va, w) != digits.cyclic_window_product(vb, w):
                        r_windows.violations.append({"pair": [a, b], "window": w})

    r_extremes = LemmaResult("equal-signatures-match-extreme-digits", 0, 0, [])
    r_multiset = LemmaResult("equal-signatures-match-digit-multisets", 0, 0, [])
    for group in by_sig:
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                a, b = group[i], group[j]
                cross = not _same_orbit(tower, a, b)
                va, vb = vecs[a], vecs[b]
                pa, pb = digits.digit_profile(va), digits.digit_profile(vb)
                r_extremes.pairs_tested += 1
                r_extremes.cross_orbit_pairs += cross
                if pa[0][0] != pb[0][0] or pa[0][-1] != pb[0][-1]:
                    r_extremes.violations.append({"pair": [a, b]})
                if n <= 5:
                    r_multiset.pairs_tested += 1
                    r_multiset.cross_orbit_pairs += cross
                    for k in range(p - 1):
                        da = sorted(digits.expand(p, n, (a + k * stride) % N).digits)
                        db = sorted(digits.expand(p, n, (b + k * stride) % N).digits)
                        if da != db:
                            r_multiset.violations.append({"pair": [a, b], "k": k})

    # The consecutive-run transfer is asserted on signature-equal pairs with
    # the same scope n <= 5 as the multiset statement it rests on.  Both
    # restrictions are essential: the multiset-only hypothesis admits
    # counterexamples already at n = 4 ((1,0,2,2) vs (0,2,1,2) base 3), and
    # at n = 6 even signature equality plus equal multisets do not force the
    # transfer ((1,2,2,1,0,0) vs (2,1,2,0,1,0) base 3, exponents 52 vs 104).
    def _shifted_multisets(e: int) -> tuple:
        return tuple(
            tuple(sorted(digits.expand(p, n, (e + k * stride) % N).digits))
            for k in range(p - 1)
        )

    r_consec = LemmaResult("equal-signatures-match-consecutive-runs", 0, 0, [])
    for group in by_sig if n <= 5 else []:
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                a, b = group[i], group[j]
                va, vb = vecs[a], vecs[b]
                pa, pb = digits.digit_profile(va), digits.digit_profile(vb)
                if pa[0][0] - pa[0][-1] <= 1:
                    continue
                if _shifted_multisets(a) != _shifted_multisets(b):
                    continue
                cross = not _same_orbit(tower, a, b)
                tested = False
                if digits.max_digits_consecutive(va):
                    tested = True
                    if not digits.max_digits_consecutive(vb):
                        r_consec.violations.append({"pair": [a, b], "side": "max"})
                    else:
                        sa, la = digits.run_start_and_length(va, pa[0][0])
                        sb, lb = digits.run_start_and_length(vb, pb[0][0])
                        if la != lb:
                            r_consec.violations.append({"pair": [a, b], "side": "max-mult"})
                        elif va.digits[(sa + la) % n] != vb.digits[(sb + lb) % n]:
                            r_consec.violations.append({"pair": [a, b], "side": "max-next"})
                if digits.min_digits_consecutive(va):
                    tested = True
                    if not digits.min_digits_consecutive(vb):
                        r_consec.violations.append({"pair": [a, b], "side": "min"})
                    else:
                        sa, la = digits.run_start_and_length(va, pa[0][-1])
                        sb, lb = digits.run_start_and_length(vb, pb[0][-1])
                        if la != lb:
                            r_consec.violations.append({"pair": [a, b], "side": "min-mult"})
                        elif va.digits[(sa + la) % n] != vb.digits[(sb + lb) % n]:
                            r_consec.violations.append({"pair": [a, b], "side": "min-next"})
                if tested:
                    r_consec.pairs_tested += 1
                    r_consec.cross_orbit_pairs += cross

    results = [r_sandt, r_extremes, r_multiset, r_consec, r_windows]
    return LemmaSuiteReport(p=p, n=n, results=results, stamp=convention_stamp(tower))


# ---------------------------------------------------------------------------
# etale-algebra signature scan (appendix generalization)


def _partitions(n: int) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    out = []

    def rec(remaining, maxpart, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(remaining, maxpart), 0, -1):
            rec(remaining - part, part, acc + [part])

    rec(n, n, [])
    return out


@dataclass
class EtaleScanReport:
    p: int
    f: int
    n: int
    master_degree: int
    bound_satisfied: bool
    n_characters: int
    n_signature_classes: int
    n_divisors: int
    stamp: dict
    assertions: list[Assertion] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(a.status != "fail" for a in self.assertions)


def etale_signature_scan(p: int, f: int, n: int, **tower_kwargs) -> EtaleScanReport:
    """Scan all degree-n etale algebras (one per partition of n) and all of
    their characters, grouping by the signed twist signature
    (epsilon_A * G_A(chi * eta_k))_k, and compare the classes against
    divisor equality on the character lattice.

    All factor sums are computed inside one master tower of degree
    lcm(1..n), with each subfield generator pinned to the norm of the master
    generator; inflation along norms is then exponent scaling, so divisor
    bookkeeping and Gauss sums share one indexing.
    """
    q = p**f
    L = lcm(*range(1, n + 1))
    master = build_tower(p, f, L, **tower_kwargs)
    NL = master.mult_order
    ring = ring_for(master)
    bound = n < (q - 1) / (2 * math.sqrt(q)) + 1

    # per-degree tables of subfield Gauss sums, keyed to canonical coeffs
    sums: dict[int, list[CycloElement]] = {}
    for d in sorted({d for part in _partitions(n) for d in part}):
        if d == L:
            tab = gauss_table(master)
            sums[d] = [tab.element(e) for e in range(NL)]
        else:
            sums[d] = [subfield_gauss_sum(master, d, c) for c in range(q**d - 1)]

    def divisor(parts: tuple[int, ...], exps: tuple[int, ...]) -> tuple[int, ...]:
        points = []
        for d, c in zip(parts, exps):
            Nd = q**d - 1
            inflate = NL // Nd
            points.extend((c * pow(q, j, Nd) % Nd) * inflate % NL for j in range(d))
        return tuple(sorted(points))

    classes: dict[tuple, set] = {}
    divisors_of: dict[tuple, set] = {}
    n_chars = 0
    for parts in _partitions(n):
        sign = (-1) ** (n - len(parts))
        ranges = [range(q**d - 1) for d in parts]

        def rec(idx, exps):
            nonlocal n_chars
            if idx == len(parts):
                n_chars += 1
                key_entries = []
                for k in range(q - 1):
                    prod = ring.one()
                    for d, c in zip(parts, exps):
                        Nd = q**d - 1
                        prod = prod * sums[d][(c + k * (Nd // (q - 1))) % Nd]
                    if sign < 0:
                        prod = -prod
                    key_entries.append(prod.key)
                key = tuple(key_entries)
                div = divisor(parts, tuple(exps))
                classes.setdefault(key, set()).add(div)
                divisors_of.setdefault(div, set()).add(key)
                return
            for c in ranges[idx]:
                rec(idx + 1, exps + [c])

        rec(0, [])

    same_divisor_same_signature = all(len(v) == 1 for v in divisors_of.values())
    classes_are_single_divisors = all(len(v) == 1 for v in classes.values())
    report = EtaleScanReport(
        p=p,
        f=f,
        n=n,
        master_degree=L,
        bound_satisfied=bound,
        n_characters=n_chars,
        n_signature_classes=len(classes),
        n_divisors=len(divisors_of),
        stamp=convention_stamp(master),
    )
    report.assertions.append(
        Assertion(
            name="equal-divisors-share-signed-signatures",
            status="pass" if same_divisor_same_signature else "fail",
            witness=None
            if same_divisor_same_signature
            else {"divisor": next(list(d) for d, v in divisors_of.items() if len(v) > 1)},
        )
    )
    if bound:
        report.assertions.append(
            Assertion(
                name="signature-classes-are-single-divisors",
                status="pass" if classes_are_single_divisors else "fail",
            )
        )
    else:
        report.assertions.append(
            Assertion(name="signature-classes-are-single-divisors",
                      status="inconclusive",
                      witness={"reason": "bound n < (q-1)/(2 sqrt q) + 1 not satisfied"})
        )
    return report
