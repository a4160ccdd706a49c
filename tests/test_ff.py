import numpy as np
import pytest

from gausslab import build_tower, build_etale
from gausslab.errors import ArgumentError, PrimalityError, ResourceCapError
from gausslab.ff import is_irreducible, smallest_irreducible
from gausslab.numth import divisors


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


def test_rejects_non_prime():
    with pytest.raises(PrimalityError):
        build_tower(6, 1, 2)


def test_size_cap():
    with pytest.raises(ResourceCapError, match="cap"):
        build_tower(2, 1, 21)
    build_tower(2, 1, 11, max_elements=4096)  # within a raised cap


def test_trace_examples(f9, f32):
    assert f9.trace_rel(1) == 2  # n * 1 mod 3
    minus_one = f9.exp(4)  # g^4 = -1 lies in the base field
    assert f9.trace_rel(minus_one) == f9.scalar(2 * 2)  # 2*(-1) = 1 in F_3
    # derived oracle: sum of the 5 Frobenius conjugates
    direct = 0
    for i in range(5):
        direct = f32.add(direct, f32.frobenius(f32.g, i))
    assert f32.trace_to_prime(f32.g) == direct
    assert f32.trace_rel(f32.g) == direct  # base field is F_2 here


def test_trace_frobenius_invariance(f9, f32):
    for T in (f9, f32):
        for x in range(T.order):
            assert T.trace_rel(x) == T.trace_rel(T.frobenius(x, T.f))


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


def test_etale_signs():
    A = build_etale(3, 1, [4])
    assert A.sign == (-1) ** 3 and A.n == 4 and A.r == 1
    B = build_etale(3, 1, [1, 1, 1])
    assert B.sign == 1
    C = build_etale(3, 1, [2, 1])
    assert C.n == 3 and C.r == 2 and C.sign == -1
    with pytest.raises(ArgumentError):
        build_etale(3, 1, [])


def test_subfield_trace(f81):
    # Tr_{F_9/F_3} of the degree-2 subfield elements h^l inside F_81
    idx = f81.subfield_index(2)
    traces = f81.subfield_traces(2)
    assert len(traces) == 8
    for l in range(8):
        y = f81.exp(l * idx)
        direct = f81.add(y, f81.frobenius(y, 1))  # y + y^3
        assert traces[l] == direct
    assert np.array_equal(f81.subfield_traces(4), f81.trace_abs)
    with pytest.raises(ArgumentError):
        f81.subfield_traces(3)
