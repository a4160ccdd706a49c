import gc
import itertools
import json
import math

import numpy as np
import pytest

from gausslab import build_tower, converse, cyclo, gauss
from gausslab.chars import MultChar, orbit_count, orbit_reps, regular_exponents
from gausslab.cli import EXIT_VIOLATION, main
from gausslab.converse import (
    convention_stamp,
    counterexample_search,
    etale_signature_scan,
    lemma_suite,
    mersenne_check,
    primitive_scan,
    scan_converse,
    _partitions,
    _signature_key,
)
from gausslab.cyclo import canonical_key
from gausslab.errors import ArgumentError, ResourceCapError
from gausslab.gauss import gauss_table
from gausslab import digits as D
import reference
from reference import (etale_gauss, etale_scan_by_products, lemma_suite_pairwise,
                       signature_classes, value_ids)


def _twist_entries(T, e):
    tab = gauss_table(T)
    stride = T.mult_order // (T.q - 1)
    return [tab.element(e + k * stride) for k in range(T.q - 1)]


def _key(T, e):
    return _signature_key(gauss_table(T), e, T.mult_order // (T.q - 1), T.q - 1)


def test_signature_entries_and_orbit_invariance(f9, f729):
    entries = _twist_entries(f9, 1)
    assert len(entries) == 2
    # the key is the value ids of the twists' sums; each id names its sum
    tab = gauss_table(f9)
    ids = np.frombuffer(_key(f9, 1), dtype=np.int64).tolist()
    assert ids == [tab.key(1 + k * 4) for k in range(2)]
    for i, x in zip(ids, entries):
        assert np.array_equal(tab.S[np.flatnonzero(tab.value_id == i)[0]], x.coeffs)
    for T, e in [(f9, 3), (f729, 11)]:
        q = T.q
        assert _key(T, e) == _key(T, e * q % T.mult_order)


def _classes_by_stacked_rows(tab, exps, stride, n_twists):
    """Reference grouping: the canonical key of the stacked rows of the twists."""
    classes = {}
    for e in exps:
        rows = tab.S[tab.row_of[(e + stride * np.arange(n_twists)) % tab.mult_order]]
        classes.setdefault(canonical_key(rows), []).append(e)
    return list(classes.values())


@pytest.mark.parametrize("p,f,n", [(3, 1, 4), (3, 1, 6), (2, 1, 6), (5, 2, 2), (13, 1, 2)])
def test_signature_classes_match_grouping_by_stacked_rows(p, f, n):
    T = build_tower(p, f, n)
    tab, N, q = gauss_table(T), T.mult_order, T.q
    stride = N // (q - 1)
    exps = list(range(N))
    for args in [(stride, q - 1), (stride, 1), (-stride % N, q - 1)]:
        classes = signature_classes(tab, exps, *args)
        assert classes == _classes_by_stacked_rows(tab, exps, *args)


def test_counterexample_class_signatures(f729):
    assert all(x.int_value() == -27 for x in _twist_entries(f729, 26))
    assert _key(f729, 26) == _key(f729, 130)


def test_distinguishable(f9, f729):
    # twist signatures separate chi_a from chi_b iff their keys differ
    assert _key(f9, 1) == _key(f9, 3)  # same orbit
    assert _key(f9, 1) != _key(f9, 2)
    assert _key(f729, 26) == _key(f729, 130)  # the failing pair


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


@pytest.mark.parametrize("a,b", [(2, 8), (2, 4)], ids=["digit-sums-differ", "factorials-differ"])
def test_collision_invariants_fail_on_a_merged_class(monkeypatch, f81, a, b):
    # F_81 has no collision; merging the classes of two orbits makes one.
    # Both pairs share the central character (e mod 2); (2,0,0,0) and
    # (2,2,0,0) differ in digit sum, (2,0,0,0) and (1,1,0,0) only in the
    # digit factorial (2 against 1 mod 3)
    twist_classes = D.twist_classes

    def merged(*args):
        classes = twist_classes(*args)
        first, second = (next(c for c in classes if e in c) for e in (a, b))
        return [first + second if c is first else c for c in classes if c is not second]

    monkeypatch.setattr(D, "twist_classes", merged)
    rep = scan_converse(f81, "regular")
    assert rep.collision_classes == [[a, b]]
    statuses = {x.name: x.status for x in rep.assertions}
    assert statuses["collisions-respect-central-character-and-digit-invariants"] == "fail"


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
    assert mersenne_check(5).coset_representatives == [1, 3, 5, 7, 11, 15]
    with pytest.raises(ArgumentError, match="factor"):
        mersenne_check(4)  # 15 = 3*5
    with pytest.raises(ResourceCapError, match="max_elements cap"):
        mersenne_check(7, max_elements=100)


@pytest.mark.parametrize("n", [5, 7, 13])
def test_mersenne_clash_is_the_first_repeat_in_order(monkeypatch, n):
    # a wrong digit-sum table, 1 at c = 3 and 0 elsewhere: the orbits a with
    # 3/a not a representative share the zero spectrum.  The witness is the
    # first orbit whose spectrum an earlier orbit already had, with that
    # earlier orbit, as a scan in order finds them
    N = 2**n - 1
    s = (np.arange(N) == 3).astype(np.uint8)
    monkeypatch.setattr(D, "digit_sum_table", lambda p, d: s)
    reps = sorted({min(a * 2**i % N for i in range(n)) for a in range(1, N)})
    seen, want = {}, None
    for a in reps:
        spectrum = [int(s[a * j % N]) for j in reps]
        if tuple(spectrum) in seen:
            want = {"orbits": [seen[tuple(spectrum)], a], "spectrum": spectrum}
            break
        seen[tuple(spectrum)] = a
    rep = mersenne_check(n)
    assert want["orbits"] != reps[:2] and not rep.spectra_injective
    assert rep.assertions[0].witness == want


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


def _corrupt_digit_tables(monkeypatch):
    """A wrong digit expansion on every exponent e = 3 mod 7, in the digit
    table and in `expand` alike: digits 0 and 2 swapped and digit 1 raised
    by one (kept below p)."""
    digit_table, expand = D.digit_table, D.expand

    def wrong(digits, p):
        d = list(digits)
        d[0], d[2] = d[2], d[0]
        d[1] = min(d[1] + 1, p - 1)
        return d

    def corrupted_table(p, n, exps):
        table = digit_table(p, n, exps)
        for i in np.flatnonzero(np.asarray(exps) % 7 == 3):
            table[i] = wrong(table[i], p)
        return table

    def corrupted_expand(p, n, e, zero_rep="zero"):
        v = expand(p, n, e, zero_rep)
        return v if e % 7 != 3 else D.DigitVector(p, n, tuple(wrong(v.digits, p)))

    monkeypatch.setattr(D, "digit_table", corrupted_table)
    monkeypatch.setattr(D, "expand", corrupted_expand)


def test_lemma_suite_reports_violations(capsys, monkeypatch):
    # every statement must see a wrong digit table
    _corrupt_digit_tables(monkeypatch)
    rep = lemma_suite(build_tower(3, 1, 4))
    shapes = {
        "equal-sums-match-digit-sum-and-factorial": {"pair", "stat"},
        "equal-signatures-match-extreme-digits": {"pair"},
        "equal-signatures-match-digit-multisets": {"pair", "k"},
        "equal-signatures-match-consecutive-runs": {"pair", "side"},
        "equal-sums-match-windowed-products": {"pair", "window"},
    }
    assert [r["status"] for r in rep.result["lemmas"]] == ["fail"] * 5
    assert [a.name for a in rep.assertions] == [f"lemma-{name}" for name in shapes]
    for assertion, shape in zip(rep.assertions, shapes.values()):
        violations = assertion.witness["violations"]
        assert assertion.status == "fail" and 0 < len(violations) <= 5
        assert all(set(v) == shape for v in violations), assertion.name
    assert main(["lemmas", "--p", "3", "--n", "4"]) == EXIT_VIOLATION
    assert json.loads(capsys.readouterr().out)["result"]["lemmas"] == rep.result["lemmas"]


def test_lemma_suite_reads_the_inverse_sums_at_minus_e(monkeypatch):
    # the values of the orbits of 1 and 2 in F_81 merged: one class of equal
    # sums, whose inverse sums S(omega^-1) and S(omega^-2) still differ
    # (valuations 1 and 2), so the inverse-sums statistic must report them
    labels = D.product_labels

    def merged(p, f, products, twists=1):
        out = labels(p, f, products, twists)
        exps = np.asarray(products[0][2])[:, 0]
        out[exps == 2] = out[exps == 1]
        return out

    monkeypatch.setattr(D, "product_labels", merged)
    rep = lemma_suite(build_tower(3, 1, 4))
    assert {"pair": [1, 2], "stat": "inverse-sums"} in rep.assertions[0].witness["violations"]


def _report_body(rep):
    return rep.result, [(a.name, a.status, a.witness) for a in rep.assertions]


# (3,6) is the f729 field of the counterexample family
@pytest.mark.parametrize("p,n", [(3, 4), (5, 3), (5, 4), (3, 5), (3, 6), (7, 3), (2, 10)])
def test_lemma_suite_matches_the_pairwise_oracle(p, n):
    T = build_tower(p, 1, n)
    assert _report_body(lemma_suite(T)) == _report_body(lemma_suite_pairwise(T))


@pytest.mark.parametrize("p,n", [(3, 4), (5, 3), (3, 5)])
def test_lemma_suite_matches_the_pairwise_oracle_on_wrong_digits(monkeypatch, p, n):
    # violations, their order and the pairs each hypothesis admits
    _corrupt_digit_tables(monkeypatch)
    T = build_tower(p, 1, n)
    rep = lemma_suite(T)
    assert not rep.ok
    assert _report_body(rep) == _report_body(lemma_suite_pairwise(T))


# every pinned etale-scan line, (13,1,2) and (2,2,3)
ETALE_FIELDS = [(3, 1, 2), (5, 1, 2), (3, 1, 3), (2, 1, 4), (7, 1, 2), (3, 2, 2), (2, 2, 2),
                (13, 1, 2), (2, 2, 3)]


@pytest.mark.parametrize("p,f,n", ETALE_FIELDS)
def test_etale_scan_matches_the_ring_route(p, f, n):
    assert _report_body(etale_signature_scan(p, f, n)) == _report_body(etale_scan_by_products(p, f, n))


@pytest.mark.parametrize("p,f,n", [(5, 1, 2), (3, 1, 3), (2, 2, 2)])
def test_etale_scan_matches_the_ring_route_without_epsilon(monkeypatch, p, f, n):
    # both routes with epsilon_A dropped: equal divisors of the field and the
    # split algebras now get different signatures, and both name the same
    # first one
    labels, signed = D.product_labels, reference.etale_gauss
    monkeypatch.setattr(D, "product_labels",
                        lambda p, f, products: labels(p, f, [(1, parts, exps) for _, parts, exps in products]))
    monkeypatch.setattr(reference, "etale_gauss", lambda tower, tables, parts, exps:
                        signed(tower, tables, parts, exps) * (-1) ** (sum(parts) - len(parts)))
    rep = etale_signature_scan(p, f, n)
    assert rep.assertions[0].status == "fail" and rep.assertions[0].witness["divisor"]
    assert _report_body(rep) == _report_body(etale_scan_by_products(p, f, n))


@pytest.mark.parametrize("p,f,n", ETALE_FIELDS)
def test_product_labels_match_the_ring_route(p, f, n):
    # one value label per signed product of every algebra: equal labels
    # exactly for equal products in Z[zeta_m], both numbered first-seen
    q, L = p**f, math.lcm(*range(1, n + 1))
    master, tables, ids = build_tower(p, f, L), {}, {}
    products, ring = [], []
    for parts in _partitions(n):
        exps = list(itertools.product(*(range(q**d - 1) for d in parts)))
        products.append(((-1) ** (sum(parts) - len(parts)), parts, np.array(exps)))
        ring.append(value_ids((etale_gauss(master, tables, parts, c).coeffs for c in exps), ids))
    assert D.product_labels(p, f, products).tolist() == np.concatenate(ring).tolist()


@pytest.mark.parametrize("p,f,n", [(13, 1, 2), (2, 2, 3)])
def test_twisted_product_labels_are_the_etale_signatures(monkeypatch, p, f, n):
    # the two ways of reading the key: every (character, twist) pair keyed
    # by product_labels, and the etale scan's lookup of each twist in the
    # value labels of the characters
    signatures = []

    class Spy:
        def __getattr__(self, name):
            return getattr(D, name)

        def refine(self, rows, blocks):
            signatures.append(D.refine(rows, blocks))
            return signatures[-1]

    monkeypatch.setattr(converse, "digits", Spy())
    etale_signature_scan(p, f, n)
    q = p**f
    products = [((-1) ** (sum(parts) - len(parts)), parts,
                 np.array(list(itertools.product(*(range(q**d - 1) for d in parts)))))
                for parts in _partitions(n)]
    # the scan's first refine is its signature grouping, the second its divisors
    assert D.product_labels(p, f, products, q - 1).tolist() == signatures[0].tolist()


@pytest.mark.parametrize("p,f,n,classes", [(5, 1, 3, 100), (7, 1, 3, 294), (3, 2, 3, 648)])
def test_etale_scan_past_the_conductor_cap(p, f, n, classes):
    # master fields F_{5^6}, F_{7^6}, F_{9^6}: conductors 78,120 to 1,594,320
    rep = etale_signature_scan(p, f, n)
    assert (rep.n_signature_classes, rep.n_divisors) == (classes, classes)
    assert [a.status for a in rep.assertions] == ["pass", "inconclusive"]


def test_etale_scan_q13():
    rep = etale_signature_scan(13, 1, 2)
    assert rep.bound_satisfied
    assert rep.n_characters == 168 + 144
    assert rep.n_signature_classes == rep.n_divisors
    assert rep.ok


def test_etale_scan_leaves_no_reference_cycles():
    etale_signature_scan(13, 1, 2)  # the first call warms lazy imports
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


# ROADMAP item 3's fields: every prime-base field under the conductor cap
# from (3,2) to (2,12), and (q, n) = (4, 2..4), (9, 2..3), (8, 2..3)
INTEGER_KEY_FIELDS = ([(3, 1, n) for n in range(2, 8)] + [(2, 1, n) for n in (4, 5, 6, 8, 9, 10, 11, 12)]
                      + [(5, 1, 2), (5, 1, 3), (5, 1, 4), (7, 1, 2), (7, 1, 3), (11, 1, 2), (13, 1, 2)]
                      + [(2, 2, 2), (2, 2, 3), (2, 2, 4), (3, 2, 2), (3, 2, 3), (2, 3, 2), (2, 3, 3)])


def _ring_route_scan(T, population):
    """scan_converse's classes, grouped by the Z[zeta_m] value ids of the oracle."""
    stride = T.mult_order // (T.q - 1)
    reps = orbit_reps(T, regular_only=population == "regular")
    return signature_classes(gauss_table(T), reps, stride, T.q - 1)


@pytest.mark.parametrize("p,f,n", INTEGER_KEY_FIELDS)
def test_integer_classes_match_the_ring_route(p, f, n):
    T = build_tower(p, f, n)
    for population in ("regular", "all"):
        ref = _ring_route_scan(T, population)
        reps = orbit_reps(T, regular_only=population == "regular")
        assert D.twist_classes(p, f, n, reps) == ref
        rep = scan_converse(T, population)
        assert rep.n_classes == len(ref), population
        assert rep.collision_classes == sorted(c for c in ref if len(c) > 1), population


def test_integer_classes_match_the_ring_route_on_primitive_scan():
    rep = primitive_scan(3, 1, 6, 2)
    T = build_tower(3, 3, 2)  # its tower: degree 2 over F_27
    N, Q = T.mult_order, T.q
    reps = sorted(_primitive_population_by_orbit_walk(3, 1, 6, 2))
    ref = signature_classes(gauss_table(T), reps, N // (Q - 1), Q - 1)
    assert D.twist_classes(3, 3, 2, reps) == ref
    assert (rep.n_orbits, rep.n_classes) == (len(reps), len(ref))


@pytest.mark.parametrize("p,n", [(3, 4), (5, 3)])
def test_integer_classes_match_the_ring_route_on_lemmas(p, n):
    T = build_tower(p, 1, n)
    tab, N = gauss_table(T), T.mult_order
    stride = N // (p - 1)
    regular = regular_exponents(T)
    negated = [-e % N for e in regular]
    # the sums, their inverses and the twists of the inverses; the suite
    # reads the twists of -e at -(e + k*stride), the same set of exponents
    for exps, twists in [(regular, 1), (negated, 1), (negated, p - 1)]:
        classes = {}
        for e, label in zip(exps, D.product_labels(p, 1, [(1, (n,), np.array(exps)[:, None])], twists)):
            classes.setdefault(label, []).append(e)
        assert list(classes.values()) == signature_classes(tab, exps, stride, twists)
    assert D.twist_classes(p, 1, n, negated) == signature_classes(tab, negated, -stride % N, p - 1)


@pytest.mark.parametrize("p,n,classes", [
    (3, 8, [[80, 400, 560, 880, 1040], [160, 320, 640, 1120, 1280]]),
    (2, 14, [[127, 381, 635, 889, 1143, 1397, 1651, 2413, 2667]]),
])
def test_ring_route_past_the_conductor_cap_agrees(monkeypatch, p, n, classes):
    T = build_tower(p, 1, n)
    rep = scan_converse(T)
    with pytest.raises(ResourceCapError, match="conductor"):
        gauss_table(T)
    monkeypatch.setattr(cyclo, "MAX_CONDUCTOR", p * T.mult_order)
    for module, cache in ((cyclo, "_RING_CACHE"), (gauss, "_TABLE_CACHE")):
        monkeypatch.setattr(module, cache, {})  # the raised cap's ring and table go with it
    ref = _ring_route_scan(T, "regular")
    assert rep.n_classes == len(ref)
    assert rep.collision_classes == sorted(c for c in ref if len(c) > 1) == classes


@pytest.mark.parametrize("p,n,sizes", [
    (3, 8, [5, 5]), (2, 14, [9]), (2, 16, [16]), (3, 10, [12, 12, 2, 2]),
    (2, 13, []), (3, 9, []), (5, 5, []), (7, 4, []),
])
def test_collision_classes_past_the_conductor_cap(p, n, sizes):
    rep = scan_converse(build_tower(p, 1, n))
    assert sorted(map(len, rep.collision_classes), reverse=True) == sizes
    assert rep.n_orbits == orbit_count(p, n)
