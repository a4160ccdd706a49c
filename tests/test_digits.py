import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausslab import digits as D
from gausslab.errors import ArgumentError
from reference import (cyclic_run, cyclic_window_product, digit_factorial_mod_p, padic_gamma_window,
                       prime_free_factorial)


def test_expansion_examples():
    v = D.expand(3, 2, 5)
    assert v.digits == (2, 1) and D.digit_sum(v) == 3
    assert digit_factorial_mod_p(v) == 2  # 2! * 1!
    v = D.expand(3, 4, 4)
    assert v.digits == (1, 1, 0, 0) and D.digit_sum(v) == 2


def test_zero_class_representatives():
    assert D.expand(3, 2, 0).digits == (0, 0)
    assert D.expand(3, 2, 8).digits == (0, 0)
    assert D.expand(3, 2, 0, zero_rep="full").digits == (2, 2)


def test_nonzero_class_unique_representative():
    for p, n in [(3, 3), (5, 2)]:
        N = p**n - 1
        for e in range(1, N):
            value = sum(d * p**i for i, d in enumerate(D.expand(p, n, e).digits))
            assert 1 <= value <= N - 1
            assert value % N == e


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(3, 4), (5, 3), (7, 2)]), st.integers(0, 10**6), st.integers(0, 12))
def test_shift_invariance_of_statistics(pn, e, j):
    p, n = pn
    v = D.expand(p, n, e)
    w = D.expand(p, n, e * pow(p, j, p**n - 1))
    assert sorted(v.digits) == sorted(w.digits)
    assert D.digit_sum(v) == D.digit_sum(w)
    assert digit_factorial_mod_p(v) == digit_factorial_mod_p(w)
    for m in (0, 1):
        assert cyclic_window_product(v, m) == cyclic_window_product(w, m)
    for a in range(1, p):
        assert D.core_vertex_count(v, a) == D.core_vertex_count(w, a)
    # w's digits are v's rotated by j places: runs keep their length
    for pick in (max, min):
        run_v, run_w = cyclic_run(v, pick(v.digits)), cyclic_run(w, pick(w.digits))
        assert (run_v is None) == (run_w is None)
        assert run_v is None or run_v[1] == run_w[1]


def test_negation_duality():
    for p, n in [(3, 4), (5, 3)]:
        N = p**n - 1
        for e in range(1, N):
            v = D.expand(p, n, e)
            w = D.expand(p, n, N - e)
            assert w.digits == tuple(p - 1 - d for d in v.digits)
            assert max(w.digits) == p - 1 - min(v.digits)


def test_prime_free_factorial():
    assert D.prime_free_factorial(0, 3, 9) == 1
    assert D.prime_free_factorial(4, 3, 10**9) == 8  # 1*2*4
    assert D.prime_free_factorial(3, 3, 10**9) == 2


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prime_free_table_equals_the_loop(p):
    # every window value and gamma argument lies below p^(m+1)
    for m in (0, 1, 2):
        modulus = p ** (m + 1)
        for N in range(modulus):
            assert D.prime_free_factorial(N, p, modulus) == prime_free_factorial(N, p, modulus), (N, m)


def test_window_products():
    v4 = D.expand(3, 4, 4)  # (1,1,0,0)
    assert cyclic_window_product(v4, 1) == 7  # 4!'*1!'*0!'*3!' = 16 mod 9
    v10 = D.expand(3, 4, 10)  # (1,0,1,0)
    assert cyclic_window_product(v10, 1) == 4
    for p, n in [(3, 4), (5, 2)]:
        for e in range(p**n - 1):
            v = D.expand(p, n, e)
            assert cyclic_window_product(v, 0) == digit_factorial_mod_p(v) % p


def test_gamma_window_formula_against_product_definition():
    random.seed(11)
    for _ in range(50):
        p = random.choice([3, 5, 7])
        n = random.randint(1, 4)
        m = random.choice([0, 1, 2])
        N = p**n - 1
        if N < 2:
            continue
        e = random.randrange(1, N)
        i = random.randint(1, n)
        v = D.expand(p, n, e)
        mod = p ** (m + 1)
        r = pow(p, i - 1, N) * e % N
        x_int = (N - r) * pow(N, -1, mod) % mod
        assert padic_gamma_window(i, v, m) == D.padic_gamma_int(x_int, p, mod)


def test_gamma_all_window_zero():
    # all-zero window: Gamma_p(1) = -1
    v = D.expand(3, 3, 0)
    assert padic_gamma_window(1, v, 1) == 9 - 1


def test_gamma_product_recombination():
    random.seed(5)
    for _ in range(30):
        p = random.choice([3, 5])
        n = random.randint(2, 4)
        m = random.choice([1, 2])
        e = random.randrange(1, p**n - 1)
        v = D.expand(p, n, e)
        mod = p ** (m + 1)
        prod = 1
        for i in range(1, n + 1):
            prod = prod * padic_gamma_window(i, v, m) % mod
        s = D.digit_sum(v)
        geom = sum(p**j for j in range(m + 1))
        expect = cyclic_window_product(v, m) % mod
        if (n + s * geom) % 2:
            expect = (-expect) % mod
        assert prod == expect


def test_graph_examples():
    g = D.carry_graph(D.DigitVector(3, 4, (2, 1, 0, 0)), 2)
    assert g.edges == frozenset({(0, 1)})
    assert g.core == frozenset({0, 1})
    assert D.core_vertex_count(D.DigitVector(3, 4, (2, 1, 0, 0)), 2) == 2
    # all digits below a-1: empty core
    assert D.core_vertex_count(D.DigitVector(5, 3, (1, 0, 1)), 4) == 0
    # full cycle of a-1 digits with no vertex >= a: empty core by convention
    assert D.core_vertex_count(D.DigitVector(3, 3, (1, 1, 1)), 2) == 0
    with pytest.raises(ArgumentError):
        D.carry_graph(D.DigitVector(3, 3, (1, 1, 1)), 3)


@pytest.mark.parametrize("p,nmax", [(3, 5), (5, 4), (7, 3)])
def test_digit_sum_drop_identity_exhaustive(p, nmax):
    # the strongest correctness gate for the carry graph
    for n in range(1, nmax + 1):
        N = p**n - 1
        for e in range(N):
            v = D.expand(p, n, e)
            for a in range(1, p):
                lhs = D.digit_sum_shifted(p, n, e, p - a)
                rhs = D.digit_sum(v) + (p - a) * n - D.core_vertex_count(v, a) * (p - 1)
                assert lhs == rhs, (p, n, e, a)


def _runs(rows, values):
    start, length = D.cyclic_runs(np.array(rows), values)
    return [(int(s), int(l)) if l else None for s, l in zip(start, length)]


def test_cyclic_runs():
    v = D.DigitVector(3, 4, (2, 2, 1, 0))
    assert [cyclic_run(v, value) for value in (2, 1, 0)] == [(0, 2), (2, 1), (3, 1)]
    assert cyclic_run(D.DigitVector(3, 4, (2, 1, 2, 0)), 2) is None  # two runs
    assert cyclic_run(D.DigitVector(3, 3, (1, 1, 1)), 1) == (0, 3)  # every digit
    # the digit-table form, one row per case
    assert _runs([(2, 2, 1, 0)] * 4, [2, 1, 0, 3]) == [(0, 2), (2, 1), (3, 1), None]
    assert _runs([(2, 1, 2, 0), (2, 1, 2, 0)], [2, 1]) == [None, (1, 1)]  # two runs
    assert _runs([(1, 0, 0, 1), (2, 1, 0, 2)], [1, 2]) == [(3, 2), (3, 2)]  # wraps
    assert _runs([(2, 1, 0, 2, 2)], [2]) == [(3, 3)]  # wraps
    assert _runs([(1, 1, 1)], [1]) == [(0, 3)]  # every digit


@pytest.mark.parametrize("p,n", [(2, 6), (3, 4), (5, 3), (7, 2)])
def test_digit_tables_match_the_vector_statistics(p, n):
    N = p**n - 1
    exps = list(range(N)) + [N, 2 * N + 5]  # classes, not integers
    table = D.digit_table(p, n, exps)
    vecs = [D.expand(p, n, e) for e in exps]
    assert table.tolist() == [list(v.digits) for v in vecs]
    assert D.factorial_residues(p, table).tolist() == [digit_factorial_mod_p(v) for v in vecs]
    for m in (0, 1, 2):
        assert D.window_products(p, table, m).tolist() == [cyclic_window_product(v, m) for v in vecs]
    for pick in (max, min):
        values = [pick(v.digits) for v in vecs]
        assert _runs(table, values) == [cyclic_run(v, x) for v, x in zip(vecs, values)]


@pytest.mark.parametrize("p,d", [(2, 1), (2, 7), (3, 5), (5, 2), (7, 3), (2, 16)])
def test_twist_key_tables(p, d):
    N = p**d - 1
    sums = D.digit_sum_table(p, d)
    assert sums.tolist() == [D.digit_sum(D.expand(p, d, c)) for c in range(N)]
    # one representative per coset of <p> in the units, the smallest, u = 1 first
    units = [u for u in range(N) if math.gcd(u, N) == 1]
    cosets = {frozenset(u * p**i % N for i in range(d)) for u in units}
    assert D._coset_reps(p, d, N).tolist() == sorted(min(c) for c in cosets)


def test_digit_sum_table_holds_sums_past_two_bytes():
    # d (p - 1) = 65538 needs more than 16 bits
    sums = D.digit_sum_table(65539, 1)
    assert sums.tolist() == list(range(65538))
