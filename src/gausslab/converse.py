"""Converse-theorem verification engine.

Twist signatures: the tuple over all base-field twists k of the exact Gauss
sum S(chi_{e + k*(q^n-1)/(q-1)}).  Two characters index isomorphic cuspidal
data iff they share a Frobenius orbit, and the converse statements under
test say the signature separates orbits (within their stated populations).
The scans (`scan_converse`, `primitive_scan`, the family of
`counterexample_search`, the groupings of `lemma_suite` and
`etale_signature_scan`) decide the equality of sums from integers alone,
through the one key `digits.product_labels`: the Stickelberger valuations
at every prime above p and the Gross-Koblitz unit residue.  The first
three key each (orbit, twist) pair (`digits.twist_classes`).  The lemma
suite and the etale scan key each sum once and read its twists (and the
lemma suite its inverses) by lookup, as their populations are closed
under twisting and negation.  No scan builds a field table, a Z[zeta_m]
ring or a Gauss table to group, so the conductor cap does not bind on
them; one up-front cap on the (orbit, exponent or character) x twist
pairs they read does, before any length-N array exists.
`counterexample_search` still reads its family's sums from the Gauss
table for their pure value.  The etale scan numbers the signed products of
all its algebras in one numbering, so a signature key depends on the
values alone.

Scans never compare floating point and never sample: populations are
exhaustive over the stated character sets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from math import lcm

import numpy as np

from . import digits, numth
from .chars import MultChar, orbit_count, orbit_minima, orbit_reps, regular_exponents, regular_mask
from .errors import ArgumentError, ResourceCapError
from .ff import DEFAULT_MAX_ELEMENTS, FieldTower, build_tower, check_field
from .gauss import GaussTable, gauss_table
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
    q = tower.q
    regular = population == "regular"
    _check_pairs(orbit_count(q, tower.n, regular) * (q - 1), "orbit")
    reps = orbit_reps(tower, regular_only=regular)
    classes = digits.twist_classes(tower.p, tower.f, tower.n, reps)
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
        members = np.concatenate(collisions)
        table = digits.digit_table(tower.p, tower.n, members)
        central = [MultChar(tower, e).restrict_to_base() for e in members.tolist()]
        invariants = np.column_stack([central, table.sum(axis=1),
                                      digits.factorial_residues(tower.p, table)])
        sizes = [len(cls) for cls in collisions]
        first = np.repeat(np.cumsum([0] + sizes[:-1]), sizes)  # each member's class head
        assertions.append(check(
            "collisions-respect-central-character-and-digit-invariants",
            bool((invariants == invariants[first]).all()),
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

    # full degree n over F_q: regular as characters of F_{q^n}^x, a set closed
    # under x Q, so its orbit minima are the members that are their own
    regular = np.flatnonzero(regular_mask(N, q, n))
    reps = regular[orbit_minima(N, Q, r, regular) == regular].tolist()
    classes = digits.twist_classes(p, f * (n // r), r, reps)
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
    # ascending and closed under x p, so its orbit minima are the members that are their own
    family = np.array([a * (p**t - 1) for a in range(1, d) if math.gcd(a, d) == 1], dtype=np.int64)
    reps = family[orbit_minima(N, p, n, family) == family].tolist()
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
    classes = digits.twist_classes(p, 1, n, reps)
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


def mersenne_check(n: int, *, max_elements: int = DEFAULT_MAX_ELEMENTS) -> Report:
    """Spectrum injectivity across nontrivial orbits when 2^n - 1 is prime."""
    if n < 2:
        raise ArgumentError(f"mersenne needs n >= 2, got n={n}")
    check_field(2, n, max_elements)
    N = 2**n - 1
    if not numth.is_prime(N):
        raise ArgumentError(f"2^{n}-1 = {N} is not prime (factor {numth.prime_divisors(N)[0]})")
    # N is prime, so every nonzero class is a unit: the orbits are the cosets of <2>
    reps = digits._coset_reps(2, n, N).tolist()
    # s(c), the binary digit sum of every c in [0, N): at most n, so a
    # spectrum entry takes one byte
    s = digits.digit_sum_table(2, n)
    # the spectrum of the orbit of a is (s(a*j mod N)) over the representatives
    # j, grouped by blocks of j: no step holds more than (orbits, KEY_COLUMNS)
    r = np.array(reps, dtype=np.int64)
    labels = digits.refine(len(r), ((lambda alive, j=r[lo:lo + digits.KEY_COLUMNS]: s[r[alive, None] * j % N])
                                    for lo in range(0, len(r), digits.KEY_COLUMNS)))
    # the first clash, as a scan in order meets it: the class whose second
    # member comes first
    order = np.argsort(labels, kind="stable")
    counts = np.bincount(labels)
    heads = (np.cumsum(counts) - counts)[counts > 1]
    clash = None
    if len(heads):
        head = heads[np.argmin(order[heads + 1])]
        first, second = reps[order[head]], reps[order[head + 1]]
        clash = {"orbits": [first, second], "spectrum": s[second * r % N].tolist()}
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


def _later(keys: list[np.ndarray], mask: np.ndarray) -> int:
    """The pairs (a, b), a before b and a in `mask`, on which every
    label array of `keys` agrees, counted from each row's rank within its
    bucket."""
    order = np.lexsort(keys[::-1])  # stable: a bucket keeps its rows in order
    ordered = np.stack(keys)[:, order]
    new = np.r_[True, (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)]
    bucket = np.cumsum(new) - 1
    start = np.flatnonzero(new)
    size = np.diff(np.r_[start, len(order)])
    later = size[bucket] - 1 - (np.arange(len(order)) - start[bucket])
    return int(later[mask[order]].sum())


def _pair_lemma(name: str, exps: np.ndarray, classes, orbit: np.ndarray, stat: np.ndarray,
                compare, scope: np.ndarray | None = None,
                tested: np.ndarray | None = None) -> tuple[dict, Assertion]:
    """One "equal sums => equal statistics" statement over the pairs (a, b),
    a before b, of each class of `classes` (a first-seen label per exponent)
    whose `scope` labels agree and whose a is `tested`.  Pairs are counted
    from bucket ranks; only classes on which the per-exponent statistic
    `stat` is not constant can hold a violation, and only their pairs are
    visited, in class order, for the first five.  `compare(i, j)` lists the
    extras of the violations of one pair, one dict each.  Pair counts are
    reported, so a vacuous run reads "inconclusive" rather than passing."""
    R = len(exps)
    scope = np.zeros(R, dtype=np.int64) if scope is None else scope
    tested = np.ones(R, dtype=bool) if tested is None else tested
    pairs = _later([classes, scope], tested)
    cross = pairs - _later([classes, scope, orbit], tested)
    # the classes on which the statistic differs from their first member's
    # (labels number the classes 0, 1, ... in first-seen order)
    flat = stat.reshape(R, -1)
    first = np.unique(classes, return_index=True)[1][classes]
    mixed = np.flatnonzero(np.bincount(classes[(flat != flat[first]).any(axis=1)]))
    violations = []
    for label in mixed.tolist():
        for i, j in itertools.combinations(np.flatnonzero(classes == label).tolist(), 2):
            if tested[i] and scope[i] == scope[j]:
                violations.extend({"pair": [int(exps[i]), int(exps[j])], **extra} for extra in compare(i, j))
        if len(violations) >= 5:
            break
    status = "fail" if violations else "pass" if pairs else "inconclusive"
    tally = {"pairs_tested": pairs, "cross_orbit_pairs": cross}
    return ({"name": name, **tally, "status": status},
            Assertion(f"lemma-{name}", status, {**tally, "violations": violations[:5]}))


def _placewise(key: str, stat: np.ndarray, labels=None):
    """compare() of a tuple statistic: one violation per differing place,
    named by its label (by its index when there are no labels)."""
    def compare(i: int, j: int) -> list[dict]:
        names = labels or itertools.count()
        return [{key: name} for name, x, y in zip(names, stat[i], stat[j]) if np.any(x != y)]
    return compare


def lemma_suite(tower: FieldTower) -> Report:
    """Assert the digit-statistic consequences of equal (twisted) Gauss sums
    on every pair of regular exponents in the field that satisfies each
    statement's hypothesis: one `_pair_lemma` row per statement.  Every
    per-exponent statistic is one array over one digit table.
    """
    if tower.f != 1:
        raise ArgumentError("lemma suite runs over prime-base fields (q = p)")
    p, n, N = tower.p, tower.n, tower.mult_order
    # p - 1 twists per signature, and one each for the sums and their inverses
    _check_pairs(n * orbit_count(p, n) * (p + 1), "exponent")
    stride = N // (p - 1)
    regular = np.array(regular_exponents(tower), dtype=np.int64)
    orbit = orbit_minima(N, p, n, regular)
    # S(chi_{pe}) = S(chi_e), so each sum is keyed once, at its orbit minimum.
    # The regular exponents are closed under twists and negation, so every
    # sum the statements compare is read from these labels by lookup
    reps = regular[orbit == regular]
    value = digits.product_labels(p, 1, [(1, (n,), reps[:, None])])

    def read(exps: np.ndarray) -> np.ndarray:
        return value[np.searchsorted(reps, orbit_minima(N, p, n, exps))]

    # classes of equal single sums S(omega^alpha)
    by_S = digits.refine(len(regular), [lambda alive: value[np.searchsorted(reps, orbit[alive]), None]])
    # classes of equal full twist signatures of omega^{-alpha}, the sums of
    # -(e + k*stride), k < p - 1
    twists = stride * np.arange(p - 1)
    by_sig = digits.refine(len(regular), [lambda alive: read(-(regular[alive, None] + twists))])
    # the value of S(omega^-e)
    inverse = read(-regular)

    table = digits.digit_table(p, n, regular)
    sums = np.column_stack([table.sum(axis=1), digits.factorial_residues(p, table), inverse])
    extremes = np.column_stack([table.max(axis=1), table.min(axis=1)])
    # the sorted digits of each twist e + k*stride, k < p - 1
    multisets = np.stack([np.sort(digits.digit_table(p, n, (regular + k * stride) % N), axis=1)
                          for k in range(p - 1)], axis=1)
    windows = np.column_stack([digits.window_products(p, table, w) for w in (0, 1, 2)])

    # the run of each exponent's largest (smallest) digit and the digit after it
    runs = {}
    for side, value in (("max", extremes[:, 0]), ("min", extremes[:, 1])):
        start, length = digits.cyclic_runs(table, value)
        after = table[np.arange(len(table)), (start + length) % n]
        runs[side] = (length, np.where(length > 0, after, -1))

    def run_transfer(i: int, j: int) -> list[dict]:
        """A run of a's largest (smallest) digit must recur in b with the
        same length and the same digit after it."""
        found = []
        for side, (length, after) in runs.items():
            if not length[i]:
                continue
            if not length[j]:
                found.append({"side": side})
            elif length[i] != length[j]:
                found.append({"side": side + "-mult"})
            elif after[i] != after[j]:
                found.append({"side": side + "-next"})
        return found

    # The consecutive-run transfer is asserted on signature-equal pairs with
    # equal digit multisets, whose a has a run of an extreme digit that is
    # not within 1 of the other extreme, and with the same scope n <= 5 as
    # the multiset statement it rests on.  Both restrictions are essential:
    # the multiset-only hypothesis admits counterexamples already at n = 4
    # ((1,0,2,2) vs (0,2,1,2) base 3), and at n = 6 even signature equality
    # plus equal multisets do not force the transfer ((1,2,2,1,0,0) vs
    # (2,1,2,0,1,0) base 3, exponents 52 vs 104).
    by_sig_in_scope = by_sig if n <= 5 else np.arange(len(regular))  # single classes: no pairs
    same_multisets = digits.refine(len(regular), [lambda alive: multisets[alive].reshape(len(alive), -1)])
    has_run = (extremes[:, 0] - extremes[:, 1] > 1) & ((runs["max"][0] > 0) | (runs["min"][0] > 0))
    run_stat = np.column_stack([column for pair in runs.values() for column in pair])
    rows = [
        _pair_lemma("equal-sums-match-digit-sum-and-factorial", regular, by_S, orbit, sums,
                    _placewise("stat", sums, ("digit-sum", "digit-factorial", "inverse-sums"))),
        _pair_lemma("equal-signatures-match-extreme-digits", regular, by_sig, orbit, extremes,
                    lambda i, j: [] if np.array_equal(extremes[i], extremes[j]) else [{}]),
        _pair_lemma("equal-signatures-match-digit-multisets", regular, by_sig_in_scope, orbit,
                    multisets, _placewise("k", multisets)),
        _pair_lemma("equal-signatures-match-consecutive-runs", regular, by_sig_in_scope, orbit,
                    run_stat, run_transfer, scope=same_multisets, tested=has_run),
        _pair_lemma("equal-sums-match-windowed-products", regular, by_S, orbit, windows,
                    _placewise("window", windows)),
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

    A character of A = prod_i F_{q^(d_i)} is a tuple (c_i), each c_i indexed
    against the norm of one master generator of F_{q^lcm(1..n)}, so that
    inflation along norms is exponent scaling and divisors and Gauss sums
    share one indexing.  Each signed product is numbered by its exact value
    from integers alone (`digits.product_labels`), with one numbering shared
    by every algebra, so a signature key depends on the values alone, not
    on the algebra.  The master tower is built for the report's stamp (its
    modulus and generator) and nothing else.
    """
    if n < 1:
        raise ArgumentError(f"degree n must be positive, got n={n}")
    q = p**f
    L = lcm(*range(1, n + 1))
    check_field(p, f * L, max_elements)  # before the master tower's p^(f*L)
    algebras = [(parts, [q**d - 1 for d in parts]) for parts in _partitions(n)]
    sizes = [math.prod(orders) for _, orders in algebras]
    _check_pairs(sum(sizes) * (q - 1), "character")
    master = build_tower(p, f, L, max_elements=max_elements)
    bound = n < (q - 1) / (2 * math.sqrt(q)) + 1
    M = lcm(*(q**d - 1 for d in range(1, n + 1)))

    # every character of every algebra, in mixed radix (the last exponent
    # fastest), one row each; signed products epsilon_A * G_A(chi) by value
    chars = [np.stack(np.unravel_index(np.arange(size), orders), axis=1)
             for (_, orders), size in zip(algebras, sizes)]
    value = digits.product_labels(p, f, [((-1) ** (sum(parts) - len(parts)), parts, exps)
                                         for (parts, _), exps in zip(algebras, chars)])
    starts = np.cumsum([0] + sizes)

    # per algebra: the factor orders, their mixed-radix place values and the
    # exponent step of a twist by eta_1, (q^d_i - 1)/(q - 1)
    radix = [(np.array(orders), np.array([math.prod(orders[i + 1:]) for i in range(len(orders))]),
              np.array(orders) // (q - 1)) for _, orders in algebras]

    def twisted(ks):
        """The value labels of the twists by eta_k, k in ks: twisting sends
        (c_i) to (c_i + k*(q^d_i - 1)/(q - 1)), another character of the same
        algebra, read at its mixed-radix index."""
        def block(alive):
            cut = np.searchsorted(alive, starts)
            return np.concatenate([
                value[(exps[alive[lo:hi] - start, None, :] + ks[:, None] * step) % orders @ place + start]
                for (orders, place, step), exps, lo, hi, start
                in zip(radix, chars, cut[:-1], cut[1:], starts)])
        return block

    ks = np.arange(q - 1, dtype=np.int64)
    signature = digits.refine(len(value), (twisted(ks[lo:lo + digits.KEY_COLUMNS])
                                           for lo in range(0, q - 1, digits.KEY_COLUMNS)))
    # a divisor: the sorted Frobenius orbits of the factors, inflated to Z/M
    points = np.concatenate([
        np.sort(np.concatenate([exps[:, [i]] * np.array([pow(q, j, N) for j in range(d)]) % N * (M // N)
                                for i, (d, N) in enumerate(zip(parts, orders))], axis=1), axis=1)
        for (parts, orders), exps in zip(algebras, chars)])
    divisor = digits.refine(len(points), [lambda alive: points[alive]])

    n_classes, n_divisors = int(signature.max()) + 1, int(divisor.max()) + 1
    pairs = np.unique(signature * n_divisors + divisor, return_counts=True)[0]
    shared = np.flatnonzero(np.bincount(pairs % n_divisors, minlength=n_divisors) > 1)
    result = {
        "p": p,
        "f": f,
        "n": n,
        "master_degree": L,
        "bound_satisfied": bound,
        "n_characters": len(value),
        "n_signature_classes": n_classes,
        "n_divisors": n_divisors,
        "stamp": convention_stamp(master),
    }
    witness = None
    if len(shared):  # the first divisor seen with two signatures, as points mod q^L - 1
        inflate = master.mult_order // M
        witness = {"divisor": [int(x) * inflate for x in points[np.argmax(divisor == shared[0])]]}
    single = "signature-classes-are-single-divisors"
    return Report(result, [
        check("equal-divisors-share-signed-signatures", not len(shared), witness),
        check(single, len(pairs) == n_classes) if bound else
        Assertion(single, "inconclusive",
                  {"reason": "bound n < (q-1)/(2 sqrt q) + 1 not satisfied"}),
    ])
