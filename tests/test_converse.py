import gc
import json

import numpy as np
import pytest

from gausslab import build_tower
from gausslab.chars import MultChar, orbit_reps, regular_exponents
from gausslab.converse import (
    convention_stamp,
    counterexample_search,
    distinguishable,
    etale_signature_scan,
    lemma_suite,
    mersenne_check,
    mersenne_spectrum,
    primitive_scan,
    scan_converse,
    signature_classes,
    _signature_key,
)
from gausslab.cyclo import canonical_key
from gausslab.errors import ArgumentError, ResourceCapError
from gausslab.gauss import gauss_table
from gausslab import digits as D


def _twist_entries(T, e):
    tab = gauss_table(T)
    stride = T.mult_order // (T.q - 1)
    return [tab.element(e + k * stride) for k in range(T.q - 1)]


def _key(T, e):
    return _signature_key(gauss_table(T), e, T.mult_order // (T.q - 1), T.q - 1)


def test_signature_entries_and_orbit_invariance(f9, f729):
    entries = _twist_entries(f9, 1)
    assert len(entries) == 2
    assert _key(f9, 1) == canonical_key(np.stack([x.coeffs for x in entries]))
    for T, e in [(f9, 3), (f729, 11)]:
        q = T.q
        assert _key(T, e) == _key(T, e * q % T.mult_order)


def test_counterexample_class_signatures(f729):
    assert all(x.int_value() == -27 for x in _twist_entries(f729, 26))
    assert _key(f729, 26) == _key(f729, 130)


def test_distinguishable(f9, f729):
    assert not distinguishable(f9, 1, 1)
    assert not distinguishable(f9, 1, 3)  # same orbit
    assert distinguishable(f9, 1, 2)
    assert not distinguishable(f729, 26, 130)  # the failing pair


def test_scan_zero_collisions(f81):
    rep = scan_converse(f81, "regular")
    assert rep.ok and rep.n_orbits == 18 and not rep.collision_classes


def test_scan_finds_counterexample(f729):
    rep = scan_converse(f729, "regular")
    assert not rep.ok
    assert any({26, 130} <= set(cls) for cls in rep.collision_classes)
    # colliding orbits still satisfy the necessary conditions
    names = [a.name for a in rep.assertions]
    assert "collisions-respect-central-character-and-digit-invariants" in names
    assert all(
        a.status == "pass"
        for a in rep.assertions
        if a.name == "collisions-respect-central-character-and-digit-invariants"
    )


def test_scan_all_population_appendix_bound():
    T = build_tower(13, 1, 2)
    rep = scan_converse(T, "all")
    assert rep.ok and rep.n_orbits == (13 * 13 - 1 + 12) // 2
    with pytest.raises(ArgumentError):
        scan_converse(T, "weird")


def test_scan_report_is_deterministic(f81):
    a = scan_converse(f81, "regular")
    b = scan_converse(f81, "regular")
    assert a.stamp == b.stamp and a.collision_classes == b.collision_classes
    json_a = json.dumps({"s": a.stamp, "c": a.collision_classes}, sort_keys=True)
    json_b = json.dumps({"s": b.stamp, "c": b.collision_classes}, sort_keys=True)
    assert json_a == json_b


def test_counterexample_report():
    rep = counterexample_search(3)
    assert rep.result["feasible"] and rep.result["phi(p^t+1)"] == 12
    assert rep.result["family_sum_values"] == [-27] and rep.result["expected_value"] == -27
    assert any({26, 130} <= set(c) for c in rep.result["colliding_orbit_classes"])
    assert rep.ok


def test_counterexample_infeasible_t1():
    rep = counterexample_search(1)
    assert not rep.result["feasible"]  # phi(4) = 2 < 4
    assert not rep.ok


def test_mersenne():
    for n in (3, 5, 7):
        rep = mersenne_check(n)
        assert rep.ok
        assert rep.n_orbits == (2**n - 2) // n
    spec = mersenne_spectrum(5, 1)
    assert spec[1] == 1 and len(spec) == 6
    with pytest.raises(ArgumentError, match="factor"):
        mersenne_check(4)  # 15 = 3*5
    with pytest.raises(ResourceCapError, match="max_elements cap"):
        mersenne_check(7, max_elements=100)


def test_report_result_keys_read_as_attributes():
    rep = mersenne_check(5)
    assert rep.n_orbits == rep.result["n_orbits"] == 6
    assert getattr(rep, "n_classes", 0) == 0
    with pytest.raises(AttributeError):
        rep.n_classes


def _primitive_population_by_orbit_walk(p, f, n, r):
    """Orbit minima under x q^(n/r) of the exponents whose x q orbit has n
    members, found by walking every orbit."""
    q, N = p**f, p ** (f * n) - 1

    def orbit(e, mult):
        out, x = {e}, e * mult % N
        while x != e:
            out.add(x)
            x = x * mult % N
        return out

    return {min(orbit(e, q ** (n // r))) for e in range(1, N) if len(orbit(e, q)) == n}


@pytest.mark.parametrize("p,f,n,r", [(2, 1, 6, 3), (2, 1, 6, 2), (3, 1, 4, 2), (2, 2, 4, 2)])
def test_primitive_scan_population_matches_orbit_walk(p, f, n, r):
    rep = primitive_scan(p, f, n, r)
    ref = _primitive_population_by_orbit_walk(p, f, n, r)
    assert rep.n_orbits == len(ref)
    assert {e for cls in rep.collision_classes for e in cls} <= ref


def test_primitive_scans():
    rep = primitive_scan(3, 1, 6, 2)
    assert rep.n_orbits == 348 and not rep.collision_classes and rep.ok
    # r = n prime reduces to the plain regular scan
    rep = primitive_scan(5, 1, 2, 2)
    plain = scan_converse(build_tower(5, 1, 2), "regular")
    assert rep.n_orbits == plain.n_orbits
    assert (not rep.collision_classes) == (not plain.collision_classes)
    # characteristic-Frobenius fusion at (2, 6, r=3)
    rep = primitive_scan(2, 1, 6, 3)
    assert rep.collision_classes == [[7, 14]]
    with pytest.raises(ArgumentError):
        primitive_scan(3, 1, 6, 4)


@pytest.mark.parametrize("p,n", [(3, 4), (5, 3)])
def test_lemma_suite(p, n):
    rep = lemma_suite(build_tower(p, 1, n))
    assert rep.ok
    for r in rep.result["lemmas"]:
        assert r["status"] == "pass"
        assert r["pairs_tested"] > 0


def test_lemma_suite_nonvacuity_reporting():
    rep = lemma_suite(build_tower(5, 1, 4))
    by_name = {r["name"]: r for r in rep.result["lemmas"]}
    # (5,4) has genuinely cross-orbit equal-sum pairs
    assert by_name["equal-sums-match-digit-sum-and-factorial"]["cross_orbit_pairs"] > 0
    assert rep.ok


def test_lemma_suite_on_counterexample_field(f729):
    # n = 6: multiset transfer is out of scope, everything else must hold
    rep = lemma_suite(f729)
    by_name = {r["name"]: r for r in rep.result["lemmas"]}
    assert by_name["equal-signatures-match-digit-multisets"]["status"] == "inconclusive"
    assert rep.ok


def test_etale_scan_q13():
    rep = etale_signature_scan(13, 1, 2)
    assert rep.bound_satisfied
    assert rep.n_characters == 168 + 144
    assert rep.n_signature_classes == rep.n_divisors
    assert rep.ok


def test_etale_scan_leaves_no_reference_cycles():
    etale_signature_scan(13, 1, 2)  # towers, rings and tables are cached here
    gc.collect()
    gc.disable()
    try:
        etale_signature_scan(13, 1, 2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_etale_scan_small_q_unbound():
    rep = etale_signature_scan(3, 1, 2)
    assert not rep.bound_satisfied
    # the unconditional direction still holds
    assert [a for a in rep.assertions if a.name == "equal-divisors-share-signed-signatures"][0].status == "pass"


def test_convention_stamp_fields(f9):
    s = convention_stamp(f9)
    assert s["p"] == 3 and s["modulus"] == [1, 0, 1] and s["generator"] == 4
    assert "version" in s


def _tuple_classes(tab, exps, twists_of):
    """Reference grouping: tuple-of-tuples keys of every twist's coefficients."""
    classes = {}
    for e in exps:
        key = tuple(tuple(int(c) for c in tab.element(x).coeffs) for x in twists_of(e))
        classes.setdefault(key, []).append(e)
    return list(classes.values())


def test_signature_classes_match_tuple_grouping_on_scan(f729):
    tab = gauss_table(f729)
    N, q = f729.mult_order, f729.q
    stride = N // (q - 1)
    reps = orbit_reps(f729, regular_only=False)
    classes = signature_classes(tab, reps, stride, q - 1)
    ref = _tuple_classes(tab, reps, lambda e: [(e + k * stride) % N for k in range(q - 1)])
    assert classes == ref
    rep = scan_converse(f729, "all")
    assert rep.n_classes == len(ref)
    assert rep.collision_classes == sorted(c for c in ref if len(c) > 1)


def test_signature_classes_match_tuple_grouping_on_lemmas():
    T = build_tower(3, 1, 5)
    tab = gauss_table(T)
    p, N = T.p, T.mult_order
    stride = N // (p - 1)
    regular = regular_exponents(T)
    ref_S = _tuple_classes(tab, regular, lambda e: [e])
    ref_sig = _tuple_classes(tab, regular, lambda e: [-(e + k * stride) % N for k in range(p - 1)])
    assert signature_classes(tab, regular, stride, 1) == ref_S
    neg = signature_classes(tab, [-e % N for e in regular], -stride % N, p - 1)
    assert [[-x % N for x in c] for c in neg] == ref_sig

    def pairs(classes):
        return sum(len(c) * (len(c) - 1) // 2 for c in classes)

    results = {r["name"]: r for r in lemma_suite(T).result["lemmas"]}
    assert results["equal-sums-match-digit-sum-and-factorial"]["pairs_tested"] == pairs(ref_S)
    assert results["equal-signatures-match-extreme-digits"]["pairs_tested"] == pairs(ref_sig)


def test_mersenne_check_n13():
    rep = mersenne_check(13)
    assert rep.ok and rep.n_orbits == (2**13 - 2) // 13
