import itertools

import numpy as np
import pytest
import sympy

from gausslab import build_tower
from gausslab.errors import ArgumentError, PrimalityError, ResourceCapError
from gausslab.ff import _mul_by_matrix, is_irreducible, smallest_irreducible
from gausslab.numth import divisors, is_prime
from reference import absolute_traces, np_find_generator, np_mul_by_matrix, np_smallest_irreducible

PRIMES = [p for p in range(2, 2000) if is_prime(p)]
# every p^d <= 2^16 with d >= 2, the prime fields below 2000, and the two
# largest fields under the default cap
ORACLE_FIELDS = {
    "extensions": [(p, d) for p in PRIMES for d in range(2, 17) if p**d <= 1 << 16],
    "prime-fields": [(p, 1) for p in PRIMES],
    "largest": [(2, 20), (3, 12)],
}


def test_prime_field_generator():
    T = build_tower(3, 1, 1)
    assert T.g == 2
    assert T.pow(T.g, 2) == 1
    assert T.pow(T.g, 1) != 1


def test_f9_generator_order(f9):
    g = f9.g
    assert f9.pow(g, 8) == 1
    assert f9.pow(g, 4) != 1


def test_f32_lagrange(f32):
    assert len(f32.modulus) == 6
    for x in range(1, 32):
        assert f32.pow(x, 31) == 1


def test_modulus_is_deterministic_and_irreducible():
    for p, d in [(2, 5), (3, 4), (5, 3), (7, 2)]:
        m = smallest_irreducible(p, d)
        assert m[-1] == 1 and is_irreducible(m, p)
        # nothing smaller is irreducible
        code = sum(int(c) * p**i for i, c in enumerate(m[:-1]))
        for smaller in range(code):
            cand = np.array(
                [(smaller // p**i) % p for i in range(d)] + [1], dtype=np.int64
            )
            assert not is_irreducible(cand, p)


@pytest.mark.parametrize("fields", ORACLE_FIELDS.values(), ids=ORACLE_FIELDS.keys())
def test_modulus_and_generator_match_the_numpy_oracle(fields):
    for p, d in fields:
        T = build_tower(p, 1, d)
        modulus = np_smallest_irreducible(p, d)
        assert (T.modulus, T.g) == (modulus, np_find_generator(p, modulus, p**d - 1)), (p, d)


@pytest.mark.parametrize("p,d", [(2, 12), (3, 7), (7, 3), (13, 2), (5, 1)])
def test_mul_by_matrix_matches_the_numpy_oracle(p, d):
    T = build_tower(p, 1, d)
    for g in (T.g, p, T.order - 1):
        assert np.array_equal(_mul_by_matrix(p, T.modulus, g), np_mul_by_matrix(p, T.modulus, g))


@pytest.mark.parametrize("p,top", [(2, 10), (3, 6), (5, 4), (7, 3)])
def test_irreducibility_matches_sympy_on_every_monic_candidate(p, top):
    x = sympy.symbols("x")
    for d in range(1, top + 1):
        for low in itertools.product(range(p), repeat=d):
            coeffs = list(low) + [1]
            want = sympy.Poly(coeffs[::-1], x, modulus=p).is_irreducible
            assert is_irreducible(coeffs, p) == want, (p, coeffs)


def test_rejects_non_prime():
    with pytest.raises(PrimalityError):
        build_tower(6, 1, 2)


def test_size_cap():
    with pytest.raises(ResourceCapError, match="cap"):
        build_tower(2, 1, 21)
    build_tower(2, 1, 11, max_elements=4096)  # within a raised cap


def test_trace_examples(f9, f32):
    traces = f9.subfield_traces(2)  # absolute traces of g^j, j < 8
    assert traces[0] == 2  # Tr(1) = n * 1 mod 3
    assert traces[4] == 1  # g^4 = -1 lies in the base field: 2*(-1) = 1 in F_3
    # derived oracle: sum of the 5 Frobenius conjugates
    direct = 0
    for i in range(5):
        direct = f32.add(direct, f32.frobenius(f32.g, i))
    assert f32.subfield_traces(5)[1] == direct


def test_trace_frobenius_invariance(f9, f32, f81):
    for T in (f9, f32, f81):
        traces = T.subfield_traces(T.degree)
        for x in range(1, T.order):
            assert traces[T.dlog(x)] == traces[T.dlog(T.frobenius(x, 1))]


def test_norm_examples(f9):
    # Nr_{2:1}(g) = g^4 = -1 = 2 in F_3
    assert f9.norm_rel(f9.g, 1) == 2
    for x in range(9):
        assert f9.norm_rel(x, 2) == x  # identity norm
    # norm surjectivity: Nr(g) generates F_q^x
    h = f9.norm_rel(f9.g, 1)
    assert {f9.pow(h, i) for i in range(2)} == {1, 2}


def test_norm_multiplicativity_exhaustive(f9, f25):
    for T in (f9, f25):
        for x in range(1, T.order):
            for y in range(1, T.order):
                assert T.norm_rel(T.mul(x, y), 1) == T.mul(
                    T.norm_rel(x, 1), T.norm_rel(y, 1)
                )


def test_norm_transitivity():
    T = build_tower(2, 1, 4)
    for d in divisors(4):
        for x in range(1, 16):
            via = T.norm_rel(x, d)
            # Nr_{d:1} inside the subfield: exponent (q^d-1)/(q-1) on dlogs
            step = (2**4 - 1) // (2**d - 1)
            lhs = T.exp(T.dlog(via) * ((2**d - 1) // (2 - 1)))
            assert lhs == T.norm_rel(x, 1)


def test_dlog_roundtrip(f9, f32):
    for T in (f9, f32):
        for x in range(1, T.order):
            assert T.exp(T.dlog(x)) == x
        assert sorted(int(v) for v in T.exp_enc) == list(range(1, T.order))


def test_invalid_norm_degree(f9):
    with pytest.raises(ArgumentError):
        f9.norm_rel(f9.g, 3)


def test_subfield_trace(f81):
    # Tr_{F_9/F_3} of the degree-2 subfield elements h^l inside F_81
    idx = f81.subfield_index(2)
    traces = f81.subfield_traces(2)
    assert len(traces) == 8
    for l in range(8):
        y = f81.exp(l * idx)
        direct = f81.add(y, f81.frobenius(y, 1))  # y + y^3
        assert traces[l] == direct
    assert np.array_equal(f81.subfield_traces(4), absolute_traces(f81))
    with pytest.raises(ArgumentError):
        f81.subfield_traces(3)
