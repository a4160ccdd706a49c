"""Acceptance gate: ten exact criteria, one pass/fail line each.

Every criterion is an exact statement at desk scale (no tolerances); wall
time is asserted against the stated budgets, which are generous next to the
actual runtimes.  Run with `pytest -v tests/test_acceptance.py -s` to see
the per-criterion lines.
"""

import math
import time

import pytest

from gausslab import build_tower
from gausslab.chars import MultChar
from gausslab.converse import (
    counterexample_search,
    etale_signature_scan,
    lemma_suite,
    mersenne_check,
    scan_converse,
)
from gausslab.digits import (
    core_vertex_count,
    digit_sum,
    digit_sum_shifted,
    expand,
)
from gausslab.gauss import (
    gamma_n_by_1,
    gauss_S,
    gauss_table,
    hasse_davenport_check,
    sigma_fixing_psi,
)
from gausslab.gl2 import CuspidalCharacter, gamma_via_bessel, gl2_group
from gausslab.padic import gross_koblitz_check, stickelberger_check
from reference import frobenius_orbit


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


CONVERSE_FIELDS = [
    (2, 2), (2, 3), (2, 4), (2, 5),
    (3, 2), (3, 3), (3, 4), (3, 5),
    (5, 2), (5, 3), (5, 4),
    (7, 2), (7, 3),
]


def test_criterion_01_converse_sweep():
    t0 = time.monotonic()
    bad = []
    orbits = 0
    for p, n in CONVERSE_FIELDS:
        rep = scan_converse(build_tower(p, 1, n), "regular")
        orbits += rep.n_orbits
        if rep.collision_classes:
            bad.append((p, n, rep.collision_classes))
    elapsed = time.monotonic() - t0
    report(
        1,
        "converse sweep, zero collisions on 13 prime fields",
        not bad and elapsed <= 600,
        f"{orbits} orbits, {elapsed:.1f}s",
    )


def test_criterion_02_counterexample():
    t0 = time.monotonic()
    rep = counterexample_search(3)
    scan = scan_converse(build_tower(3, 1, 6), "regular")
    tab = gauss_table(build_tower(3, 1, 6))
    order28 = [e for e in range(728) if 728 // math.gcd(e, 728) == 28]
    sums_ok = all(
        tab.element(e).is_integer() and tab.element(e).int_value() == -27
        for e in order28
    )
    pair_ok = any({26, 130} <= set(c) for c in scan.collision_classes)
    elapsed = time.monotonic() - t0
    report(
        2,
        "counterexample family at (3, 6)",
        len(scan.collision_classes) >= 1 and pair_ok and sums_ok and rep.ok and elapsed <= 30,
        f"{len(order28)} order-28 characters all -27, {elapsed:.1f}s",
    )


def test_criterion_03_stickelberger():
    failures = 0
    checked = 0
    for p, nmax in [(2, 5), (3, 4), (5, 3)]:
        for n in range(1, nmax + 1):
            T = build_tower(p, 1, n)
            for r in stickelberger_check(T, range(1, T.mult_order)):
                checked += 1
                if not r.ok:
                    failures += 1
    report(3, "Stickelberger valuation and unit congruence", failures == 0,
           f"{checked} exponents, {failures} failures")


def test_criterion_04_gross_koblitz():
    failures = 0
    checked = 0
    for p, n in [(3, 2), (3, 3), (5, 2)]:
        T = build_tower(p, 1, n)
        for window in (1, 2):
            for r in gross_koblitz_check(T, range(1, T.mult_order), window):
                checked += 1
                if not (r.ok and r.routes_agree):
                    failures += 1
    report(4, "Gross-Koblitz factorization, both gamma routes", failures == 0,
           f"{checked} checks")


def test_criterion_05_digit_graph_identity():
    failures = 0
    checked = 0
    for p, nmax in [(3, 5), (5, 4), (7, 3)]:
        for n in range(1, nmax + 1):
            N = p**n - 1
            for e in range(N):
                v = expand(p, n, e)
                for a in range(1, p):
                    checked += 1
                    lhs = digit_sum_shifted(p, n, e, p - a)
                    rhs = digit_sum(v) + (p - a) * n - core_vertex_count(v, a) * (p - 1)
                    if lhs != rhs:
                        failures += 1
    report(5, "digit-sum drop identity, exhaustive", failures == 0, f"{checked} cases")


def test_criterion_06_lemma_suites():
    all_ok = True
    details = []
    for p, n in [(3, 4), (3, 5), (5, 3), (5, 4)]:
        rep = lemma_suite(build_tower(p, 1, n))
        all_ok &= rep.ok
        lemmas = rep.result["lemmas"]
        pairs = sum(r["pairs_tested"] for r in lemmas)
        cross = sum(r["cross_orbit_pairs"] for r in lemmas)
        vac = any(r["status"] == "inconclusive" for r in lemmas)
        all_ok &= not vac
        details.append(f"({p},{n}):{pairs}p/{cross}x")
    report(6, "digit-statistic lemma suites with non-vacuity counters",
           all_ok, " ".join(details))


def test_criterion_07_mersenne():
    t0 = time.monotonic()
    ok = all(mersenne_check(n).ok for n in (3, 5, 7))
    elapsed = time.monotonic() - t0
    report(7, "Mersenne valuation-spectrum injectivity", ok and elapsed <= 5,
           f"{elapsed:.2f}s")


def test_criterion_08_appendix_bound_fields():
    bad = []
    for p, f, n in [(13, 1, 2), (17, 1, 2), (5, 2, 2)]:
        T = build_tower(p, f, n)
        q = T.q
        assert n < (q - 1) / (2 * math.sqrt(q)) + 1
        rep = scan_converse(T, "all")
        if rep.collision_classes:
            bad.append((q, n))
    report(8, "all-characters scans under the appendix bound", not bad,
           "q in {13, 17, 25}")


def test_criterion_09_gl2_oracle():
    t0 = time.monotonic()
    mismatches = 0
    checked = 0
    for q in (3, 5, 7):
        G = gl2_group(q)
        for e in range(G.tower.mult_order):
            c = MultChar(G.tower, e)
            if not c.is_regular() or frobenius_orbit(G.tower, e)[0] != e:
                continue
            pi = CuspidalCharacter(G, c)  # validation gates run here
            for k in range(q - 1):
                checked += 1
                if gamma_via_bessel(pi, k) != gamma_n_by_1(c, k):
                    mismatches += 1
    elapsed = time.monotonic() - t0
    report(9, "GL2 Bessel oracle equals Gauss-sum gamma exactly",
           mismatches == 0 and elapsed <= 60, f"{checked} pairs, {elapsed:.1f}s")


MODULUS_FIELDS = (
    [(2, 1, n) for n in range(2, 11)]
    + [(3, 1, n) for n in range(2, 7)]
    + [(5, 1, n) for n in range(2, 5)]
    + [(7, 1, n) for n in range(2, 4)]
    + [(11, 1, 2), (13, 1, 2), (5, 2, 2)]
    + [(p, 1, 1) for p in (3, 5, 7, 11, 13)]
)


def test_criterion_10_modulus_identity_and_hasse_davenport():
    failures = 0
    checked = 0
    for p, f, n in MODULUS_FIELDS:
        T = build_tower(p, f, n)
        assert T.order <= 1024
        tab = gauss_table(T)
        qn = T.order
        for e in range(1, T.mult_order):
            checked += 1
            c = MultChar(T, e)
            S = tab.element(e)
            if (S * sigma_fixing_psi(S, -1, T)).int_value() != c.value_at_minus_one() * qn:
                failures += 1
            if (S * S.conj()).int_value() != qn:
                failures += 1
    hd_checked = 0
    for p, m in [(3, 2), (3, 3), (5, 2)]:
        T = build_tower(p, 1, m)
        hd_checked += T.q - 1
        failures += len(hasse_davenport_check(T, range(T.q - 1)))
    report(10, "exact modulus identity and Hasse-Davenport lifting",
           failures == 0, f"{checked} characters + {hd_checked} lifts")
