"""Converse-theorem verification engine.

Twist signatures: the tuple over all base-field twists k of the exact Gauss
sum S(chi_{e + k*(q^n-1)/(q-1)}).  Two characters index isomorphic cuspidal
data iff they share a Frobenius orbit, and the converse statements under
test say the signature separates orbits (within their stated populations).
The scans of one field (`scan_converse`, `primitive_scan`, the family of
`counterexample_search` and the groupings of `lemma_suite`) decide the
equality of sums from integers alone, through `digits.twist_classes`: the
Stickelberger valuations at every prime above p and the Gross-Koblitz unit
residue.  They build no field table, no Z[zeta_m] ring and no Gauss table
to group, so the conductor cap does not bind on them; one up-front cap on
the (orbit or exponent) x twist pairs they key does, before any length-N
array exists.  `counterexample_search` still reads its family's sums from
the Gauss table for their pure value.  The etale scan multiplies sums in
Z[zeta_m] and numbers its product values through one dict shared by all
algebras, so it compares exact coefficients.

Scans never compare floating point and never sample: populations are
exhaustive over the stated character sets.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from math import lcm

import numpy as np

from . import digits, numth
from .chars import (MultChar, orbit_count, orbit_minima, orbit_reps, regular_exponents,
                    regular_mask)
from .cyclo import value_ids
from .errors import ArgumentError, ResourceCapError
from .ff import DEFAULT_MAX_ELEMENTS, FieldTower, build_tower, check_field
from .gauss import GaussTable, etale_gauss, gauss_table
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


# The most (orbit or exponent) x twist pairs one grouping keys.  Each pair
# costs a unit residue (D products) and a refinement row, so this bounds a
# scan's time and its work arrays where the field-size cap does not: at
# n = 2 the pairs grow as q^3 / 2.
MAX_TWIST_PAIRS = 1 << 24


def _check_pairs(count: int, what: str) -> None:
    """Refuse a grouping of more than MAX_TWIST_PAIRS pairs, before its work."""
    if count > MAX_TWIST_PAIRS:
        raise ResourceCapError(
            f"{count} {what} x twist pairs exceed the twist-pair cap {MAX_TWIST_PAIRS}")


def _signature_key(tab: GaussTable, e: int, stride: int, n_twists: int) -> bytes:
    """The value ids of S(chi_{e + k*stride}), k < n_twists, as bytes: the
    Z[zeta_m] form of a signature key, which `tests/reference.py` groups by."""
    return tab.value_id[tab.row_of[(e + stride * np.arange(n_twists)) % tab.mult_order]].tobytes()


# ---------------------------------------------------------------------------
# reports


@dataclass
class Assertion:
    name: str
    status: str  # "pass" | "fail" | "inconclusive" | "expected"
    witness: dict | None = None


def check(name: str, holds: bool, witness: dict | None = None) -> Assertion:
    return Assertion(name, "pass" if holds else "fail", witness)


def every_held(name: str, key: str, failures: list) -> Assertion:
    """Pass when no case failed; otherwise fail with the first ten failures."""
    return check(name, not failures, {key: failures[:10]} if failures else None)


def statuses_ok(statuses) -> bool:
    """The one verdict rule of every report and of the CLI exit code: no
    status is "fail" ("inconclusive" and "expected" do not fail a run)."""
    return all(s != "fail" for s in statuses)


@dataclass
class Report:
    """The one report of every verifier.  `result` is exactly what the CLI
    prints under "result" (kind and stamp included); its keys also read as
    attributes, so `report.n_classes` is `report.result["n_classes"]`."""

    result: dict
    assertions: list[Assertion] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return statuses_ok(a.status for a in self.assertions)

    def __getattr__(self, name: str):
        try:
            return self.__dict__["result"][name]
        except KeyError:
            raise AttributeError(name) from None


def _orbits_under(exponents, mult: int, N: int, period: int) -> list[int]:
    """Sorted orbit minima of an exponent set closed under e -> mult*e mod N;
    `period` must satisfy mult^period = 1 mod N."""
    mins = orbit_minima(N, mult, period)
    return sorted(set(mins[np.asarray(exponents, dtype=np.int64)].tolist()))


def _scan_result(kind: str, stamp: dict, population: str, equivalence: str,
                 reps: list[int], classes: list[list[int]]) -> dict:
    return {
        "kind": kind,
        "stamp": stamp,
        "population": population,
        "equivalence": equivalence,
        "n_orbits": len(reps),
        "n_classes": len(classes),
        "collision_classes": sorted(v for v in classes if len(v) > 1),
    }


def scan_converse(tower: FieldTower, population: str = "regular") -> Report:
    """Group Frobenius orbits by twist signature; collisions break the converse.

    population "regular": cuspidal data (Theorem-1.2-style scans);
    population "all": every character (appendix-bound scans).
    """
    if population not in ("regular", "all"):
        raise ArgumentError(f"unknown population {population!r}")
    N, q = tower.mult_order, tower.q
    regular = population == "regular"
    _check_pairs(orbit_count(q, tower.n, regular) * (q - 1), "orbit")
    stride = N // (q - 1)
    reps = orbit_reps(tower, regular_only=regular)
    classes = digits.twist_classes(tower.p, tower.degree, reps, stride, q - 1)
    result = _scan_result("converse-scan", convention_stamp(tower), population,
                          f"frobenius-orbit (x{q})", reps, classes)
    collisions = result["collision_classes"]
    assertions = [
        check("signature-separates-orbits", not collisions,
              {"collision_classes": collisions} if collisions else None),
        # partition property: every orbit in exactly one class
        check("classes-partition-orbits", sum(len(v) for v in classes) == len(reps)),
    ]
    # cross-module necessary conditions on any collision (prime base only):
    # one (central character, digit sum, digit factorial) per class
    if collisions and tower.f == 1:
        def invariants(e: int) -> tuple[int, int, int]:
            v = digits.expand(tower.p, tower.n, e)
            return (MultChar(tower, e).restrict_to_base(), digits.digit_sum(v),
                    digits.digit_factorial_mod_p(v))

        assertions.append(check(
            "collisions-respect-central-character-and-digit-invariants",
            all(len({invariants(e) for e in cls}) == 1 for cls in collisions),
        ))
    return Report(result, assertions)


def primitive_scan(
    p: int, f: int, n: int, r: int, *, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> Report:
    """Conjectural primitive-representation scan: base F_{q^(n/r)}, degree r,
    population = characters of F_{q^n}^x regular over F_q (full n-orbits),
    equivalence = Frobenius orbits of the intermediate field (x q^(n/r)).
    """
    if n < 1:
        raise ArgumentError(f"degree n must be positive, got n={n}")
    if r < 2 or not numth.is_prime(r) or n % r != 0:
        raise ArgumentError(f"r={r} must be a prime divisor of n={n}")
    tower = build_tower(p, f * (n // r), r, max_elements=max_elements)
    N = tower.mult_order
    q = p**f
    Q = tower.q
    # the n * orbit_count(q, n) exponents of full degree n fall into orbits of r under x Q
    _check_pairs(n * orbit_count(q, n) // r * (Q - 1), "orbit")
    stride = N // (Q - 1)

    # full degree n over F_q: regular as characters of F_{q^n}^x
    reps = _orbits_under(np.flatnonzero(regular_mask(N, q, n)), Q, N, r)
    classes = digits.twist_classes(p, f * n, reps, stride, Q - 1)
    stamp = convention_stamp(tower)
    stamp["original_base"] = {"p": p, "f": f, "q": q, "n": n, "r": r}
    result = _scan_result("primitive-scan", stamp, f"regular over F_{q} (full degree {n})",
                          f"frobenius-orbit over the intermediate field (x{Q})", reps, classes)
    collisions = result["collision_classes"]
    return Report(result, [
        check("intermediate-twist-signature-separates-primitive-orbits", not collisions,
              {"collision_classes": collisions} if collisions else None),
    ])


# ---------------------------------------------------------------------------
# counterexample family (p = 3, n = 2t, characters of order p^t + 1)


def counterexample_search(
    t: int, p: int = 3, *, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> Report:
    """Instantiate the order-(p^t+1) family on F_{p^(2t)} and exhibit
    non-equivalent characters sharing a full twist signature.

    Feasibility: phi(p^t+1) >= 4t guarantees at least two distinct orbits.
    """
    if t < 1:
        raise ArgumentError("t must be >= 1")
    n = 2 * t
    check_field(p, n, max_elements)  # before factoring p^t + 1
    d = p**t + 1
    phi_d = numth.euler_phi(d)
    feasible = phi_d >= 4 * t
    tower = build_tower(p, 1, n, max_elements=max_elements)
    N = tower.mult_order
    tab = gauss_table(tower)
    family = [a * (p**t - 1) % N for a in range(1, d) if math.gcd(a, d) == 1]
    reps = _orbits_under(family, p, N, n)
    values: list[int] = []
    all_int = True
    for row in tab.rows(family):  # the family's sums alone, not the whole S
        if np.any(row[1:]):
            all_int = False
        else:
            values.append(int(row[0]))
    expected = (-p) ** t
    all_match = all_int and all(v == expected for v in values)
    # group the family orbits by full twist signature; the field-size cap
    # bounds these pairs, fewer than phi(p^t + 1) * (p - 1) < p^(2t)
    classes = digits.twist_classes(p, n, reps, N // (p - 1), p - 1)
    colliding = sorted(v for v in classes if len(v) > 1)
    result = {
        "p": p,
        "t": t,
        "n": n,
        "feasible": feasible,
        "phi(p^t+1)": phi_d,
        "family_orbit_reps": reps,
        "family_sum_values": sorted(set(values)),
        "expected_value": expected,
        "colliding_orbit_classes": colliding,
        "stamp": convention_stamp(tower),
    }
    return Report(result, [
        check("feasibility-phi(p^t+1)>=4t", feasible, {"phi": phi_d, "needed": 4 * t}),
        check("family-sums-equal-(-p)^t", all_match,
              {"expected": expected, "observed": sorted(set(values))}),
        check("distinct-orbits-share-signatures", bool(colliding) or not feasible,
              {"colliding_orbit_classes": colliding}),
    ])


# ---------------------------------------------------------------------------
# Mersenne spectra


def _coset_reps_mod2(n: int) -> list[int]:
    N = 2**n - 1
    if not numth.is_prime(N):
        fac = numth.prime_divisors(N)
        raise ArgumentError(f"2^{n}-1 = {N} is not prime (factor {fac[0]})")
    return _orbits_under(range(1, N), 2, N, n)


def mersenne_check(n: int, *, max_elements: int = DEFAULT_MAX_ELEMENTS) -> Report:
    """Spectrum injectivity across nontrivial orbits when 2^n - 1 is prime."""
    if n < 2:
        raise ArgumentError(f"mersenne needs n >= 2, got n={n}")
    check_field(2, n, max_elements)
    N = 2**n - 1
    reps = _coset_reps_mod2(n)
    # s(c), the binary digit sum of every c in [0, N): at most n, so a
    # spectrum key takes one byte per representative
    s = digits.digit_sum_table(2, n)
    # the spectrum of the orbit of a is (s(a*j mod N)) over the representatives j
    r = np.array(reps, dtype=np.int64)
    spectra = {}
    clash = None
    for a in reps:
        spectrum = s[a * r % N]
        key = spectrum.tobytes()
        if key in spectra:
            clash = {"orbits": [spectra[key], a], "spectrum": spectrum.tolist()}
            break
        spectra[key] = a
    # s(c) = 1 iff c is a power of 2 mod N
    powers = np.zeros(N, dtype=bool)
    powers[[pow(2, i, N) for i in range(n)]] = True
    pivot_ok = bool(np.array_equal(s[1:] == 1, powers[1:]))
    result = {
        "n": n,
        "N": N,
        "n_orbits": len(reps),
        "coset_representatives": reps,
        "spectra_injective": clash is None,
    }
    return Report(result, [
        check("valuation-spectra-injective-on-orbits", clash is None, clash),
        check("digit-sum-1-exactly-on-powers-of-2", pivot_ok),
    ])


# ---------------------------------------------------------------------------
# lemma suites over exhaustive scan data


def _pair_lemma(name: str, groups, orbit_min, compare) -> tuple[dict, Assertion]:
    """One "equal sums => equal statistics" statement over every pair of
    each group.  `compare(a, b)` is None when the pair lies outside the
    statement's hypothesis, else the extras of its violations, one dict
    each.  Pair counts are reported, so a vacuous run reads "inconclusive"
    rather than passing."""
    pairs = cross = 0
    violations = []
    for group in groups:
        for a, b in itertools.combinations(group, 2):
            found = compare(a, b)
            if found is None:
                continue
            pairs += 1
            cross += orbit_min[a] != orbit_min[b]
            violations.extend({"pair": [a, b], **extra} for extra in found)
    status = "fail" if violations else "pass" if pairs else "inconclusive"
    tally = {"pairs_tested": pairs, "cross_orbit_pairs": cross}
    return ({"name": name, **tally, "status": status},
            Assertion(f"lemma-{name}", status, {**tally, "violations": violations[:5]}))


def lemma_suite(tower: FieldTower) -> Report:
    """Assert the digit-statistic consequences of equal (twisted) Gauss sums
    on every pair of regular exponents in the field that satisfies each
    statement's hypothesis: one `_pair_lemma` row per statement.
    """
    if tower.f != 1:
        raise ArgumentError("lemma suite runs over prime-base fields (q = p)")
    p, n, N = tower.p, tower.n, tower.mult_order
    # p - 1 twists per signature, and one each for the sums and their inverses
    _check_pairs(n * orbit_count(p, n) * (p + 1), "exponent")
    stride = N // (p - 1)
    regular = regular_exponents(tower)
    negated = [(-e) % N for e in regular]
    vecs = {e: digits.expand(p, n, e) for e in regular}
    orbit_min = orbit_minima(N, p, n).tolist()

    # groups by equal single sums S(omega^alpha)
    by_S = digits.twist_classes(p, n, regular, stride, 1)
    # groups by equal full twist signatures of omega^{-alpha}: the twists of
    # -e with stride -stride are the exponents -(e + k*stride)
    by_sig = [[(-x) % N for x in cls]
              for cls in digits.twist_classes(p, n, negated, -stride % N, p - 1)]
    # the class of S(omega^-e), numbered in first-seen order
    inverse_id = {(-x) % N: i for i, cls in enumerate(digits.twist_classes(p, n, negated, 0, 1))
                  for x in cls}

    # per-exponent statistics, each computed once however many pairs read it
    @functools.cache
    def sums(e: int) -> tuple:
        """Digit sum, digit factorial mod p and the class of S(omega^-e)."""
        return digits.digit_sum(vecs[e]), digits.digit_factorial_mod_p(vecs[e]), inverse_id[e]

    @functools.cache
    def extremes(e: int) -> tuple[int, int]:
        return max(vecs[e].digits), min(vecs[e].digits)

    @functools.cache
    def shifted_multisets(e: int) -> tuple:
        """The sorted digits of each twist e + k*stride, k < p - 1."""
        return tuple(
            tuple(sorted(digits.expand(p, n, (e + k * stride) % N).digits))
            for k in range(p - 1)
        )

    @functools.cache
    def windows(e: int) -> tuple[int, ...]:
        return tuple(digits.cyclic_window_product(vecs[e], w) for w in (0, 1, 2))

    def placewise(key: str, stat, labels=None):
        """compare() of a tuple statistic: one violation per differing place,
        named by its label (by its index when there are no labels)."""
        def compare(a, b):
            names = labels or itertools.count()
            return [{key: name} for name, x, y in zip(names, stat(a), stat(b)) if x != y]
        return compare

    def runs(a: int, b: int):
        """A run of a's largest (smallest) digit must recur in b with the
        same length and the same digit after it."""
        va, vb = vecs[a], vecs[b]
        (hi, lo), (hi_b, lo_b) = extremes(a), extremes(b)
        if hi - lo <= 1 or shifted_multisets(a) != shifted_multisets(b):
            return None
        found, tested = [], False
        for side, value_a, value_b in (("max", hi, hi_b), ("min", lo, lo_b)):
            run_a = digits.cyclic_run(va, value_a)
            if run_a is None:
                continue
            tested = True
            run_b = digits.cyclic_run(vb, value_b)
            if run_b is None:
                found.append({"side": side})
                continue
            (sa, la), (sb, lb) = run_a, run_b
            if la != lb:
                found.append({"side": side + "-mult"})
            elif va.digits[(sa + la) % n] != vb.digits[(sb + lb) % n]:
                found.append({"side": side + "-next"})
        return found if tested else None

    # The consecutive-run transfer is asserted on signature-equal pairs with
    # the same scope n <= 5 as the multiset statement it rests on.  Both
    # restrictions are essential: the multiset-only hypothesis admits
    # counterexamples already at n = 4 ((1,0,2,2) vs (0,2,1,2) base 3), and
    # at n = 6 even signature equality plus equal multisets do not force the
    # transfer ((1,2,2,1,0,0) vs (2,1,2,0,1,0) base 3, exponents 52 vs 104).
    by_sig_in_scope = by_sig if n <= 5 else []
    rows = [
        _pair_lemma("equal-sums-match-digit-sum-and-factorial", by_S, orbit_min,
                    placewise("stat", sums, ("digit-sum", "digit-factorial", "inverse-sums"))),
        _pair_lemma("equal-signatures-match-extreme-digits", by_sig, orbit_min,
                    lambda a, b: [] if extremes(a) == extremes(b) else [{}]),
        _pair_lemma("equal-signatures-match-digit-multisets", by_sig_in_scope, orbit_min,
                    placewise("k", shifted_multisets)),
        _pair_lemma("equal-signatures-match-consecutive-runs", by_sig_in_scope, orbit_min, runs),
        _pair_lemma("equal-sums-match-windowed-products", by_S, orbit_min,
                    placewise("window", windows)),
    ]
    result = {"p": p, "n": n, "stamp": convention_stamp(tower),
              "lemmas": [row for row, _ in rows]}
    return Report(result, [assertion for _, assertion in rows])


# ---------------------------------------------------------------------------
# etale-algebra signature scan (appendix generalization)


def _partitions(n: int) -> list[tuple[int, ...]]:
    """Partitions of n into non-increasing parts, largest first part first."""
    out = []
    stack = [((), n)]  # (parts so far, remainder)
    while stack:
        parts, remaining = stack.pop()
        if remaining == 0:
            out.append(parts)
            continue
        largest = min(remaining, parts[-1] if parts else n)
        # pushed smallest first, so the largest next part is taken first
        stack.extend((parts + (part,), remaining - part) for part in range(1, largest + 1))
    return out


def etale_signature_scan(
    p: int, f: int, n: int, *, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> Report:
    """Scan all degree-n etale algebras (one per partition of n) and all of
    their characters, grouping by the signed twist signature
    (epsilon_A * G_A(chi * eta_k))_k, and compare the classes against
    divisor equality on the character lattice.

    All factor sums are computed inside one master tower of degree
    lcm(1..n), with each subfield generator pinned to the norm of the master
    generator; inflation along norms is then exponent scaling, so divisor
    bookkeeping and Gauss sums share one indexing.  Each signed product is
    one `gauss.etale_gauss` call on the master tower's subfield tables, and
    gets the id of its value from one numbering shared by every algebra, so
    a signature key depends on the values alone, not on the algebra.
    """
    if n < 1:
        raise ArgumentError(f"degree n must be positive, got n={n}")
    q = p**f
    L = lcm(*range(1, n + 1))
    check_field(p, f * L, max_elements)  # before the master tower's p^(f*L)
    master = build_tower(p, f, L, max_elements=max_elements)
    NL = master.mult_order
    bound = n < (q - 1) / (2 * math.sqrt(q)) + 1
    tables: dict[int, GaussTable] = {}  # one subfield table per part degree, shared

    def divisor(parts: tuple[int, ...], exps: tuple[int, ...]) -> tuple[int, ...]:
        points = []
        for d, c in zip(parts, exps):
            Nd = q**d - 1
            inflate = NL // Nd
            points.extend((c * pow(q, j, Nd) % Nd) * inflate % NL for j in range(d))
        return tuple(sorted(points))

    classes: dict[bytes, set] = {}
    divisors_of: dict[tuple, set] = {}
    ids: dict = {}  # canonical key -> value id, for the products of all algebras
    n_chars = 0
    for parts in _partitions(n):
        chars = list(itertools.product(*(range(q**d - 1) for d in parts)))
        # signed product epsilon_A * G_A(chi) once per character, as a value id
        value_id = value_ids((etale_gauss(master, tables, parts, exps).coeffs for exps in chars), ids)
        # twisting by eta_k sends (c_i) to (c_i + k*(q^d_i - 1)/(q - 1)), another
        # character of the same algebra: read its id at its mixed-radix index
        orders = np.array([q**d - 1 for d in parts], dtype=np.int64)
        place = np.array([math.prod(orders[i + 1:]) for i in range(len(parts))], dtype=np.int64)
        twists = np.arange(q - 1)[:, None] * (orders // (q - 1))
        exps_of = np.array(chars, dtype=np.int64).reshape(len(chars), len(parts))
        twist_rows = (exps_of[:, None, :] + twists) % orders @ place
        for exps, idx in zip(chars, twist_rows):
            n_chars += 1
            key = value_id[idx].tobytes()
            div = divisor(parts, exps)
            classes.setdefault(key, set()).add(div)
            divisors_of.setdefault(div, set()).add(key)

    shared = [list(d) for d, v in divisors_of.items() if len(v) > 1]
    result = {
        "p": p,
        "f": f,
        "n": n,
        "master_degree": L,
        "bound_satisfied": bound,
        "n_characters": n_chars,
        "n_signature_classes": len(classes),
        "n_divisors": len(divisors_of),
        "stamp": convention_stamp(master),
    }
    single = "signature-classes-are-single-divisors"
    return Report(result, [
        check("equal-divisors-share-signed-signatures", not shared,
              {"divisor": shared[0]} if shared else None),
        check(single, all(len(v) == 1 for v in classes.values())) if bound else
        Assertion(single, "inconclusive",
                  {"reason": "bound n < (q-1)/(2 sqrt q) + 1 not satisfied"}),
    ])
