import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausslab.cyclo import CycloElement, canonical_key, cyclotomic_poly, get_ring
from gausslab.errors import ArgumentError, ResourceCapError
from gausslab.numth import divisors, euler_phi


def test_small_cyclotomics():
    assert cyclotomic_poly(1) == [-1, 1]
    assert cyclotomic_poly(6) == [1, -1, 1]
    assert len(cyclotomic_poly(24)) == euler_phi(24) + 1


@pytest.mark.parametrize("m", [24, 120, 728, 2184])
def test_divisor_product_identity(m):
    prod = np.array([1], dtype=object)
    for d in divisors(m):
        prod = np.convolve(prod, np.array(cyclotomic_poly(d), dtype=object))
    expect = np.zeros(m + 1, dtype=object)
    expect[0], expect[m] = -1, 1
    assert np.array_equal(prod, expect)


def test_reduce_examples():
    R = get_ring(24)
    assert R.zeta_pow(24) == R.one()  # x^m -> 1
    # vanishing sum of all p-th roots of unity (p = 3, m/p = 8)
    s = R.zero()
    for j in range(3):
        s = s + R.zeta_pow(j * 8)
    assert s.is_zero()
    assert R.zeta_pow(8) * R.zeta_pow(16) == R.one()  # inverse roots


def test_reduce_idempotent():
    R = get_ring(40)
    v = np.arange(40, dtype=np.int64)
    once = R.reduce_vector(v)
    twice = R.reduce_vector(once)
    assert np.array_equal(once, twice)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=8, max_size=8).map(tuple),
       st.lists(st.integers(-9, 9), min_size=8, max_size=8).map(tuple),
       st.lists(st.integers(-9, 9), min_size=8, max_size=8).map(tuple))
def test_ring_axioms(a, b, c):
    R = get_ring(24)
    x, y, z = R.element(a), R.element(b), R.element(c)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    assert x + (-x) == R.zero()
    assert R.one() * x == x


def test_conductor_mismatch():
    with pytest.raises(ArgumentError):
        get_ring(8).one() + get_ring(12).one()


def test_galois_group_action():
    R = get_ring(24)
    a = R.element(range(1, 9))
    assert a.galois(1) == a
    assert a.galois(5).galois(7) == a.galois(35 % 24)
    with pytest.raises(ArgumentError):
        a.galois(6)


def test_lift_to_bigger_conductor():
    R, S = get_ring(8), get_ring(24)
    a = R.element([1, 2, 3, 4])
    b = R.element([0, -1, 5, 2])
    assert (a * b).lift_to(S) == a.lift_to(S) * b.lift_to(S)
    assert R.zeta_pow(1).lift_to(S) == S.zeta_pow(3)


def test_embed_complex():
    R = get_ring(24)
    v, err = R.one().embed_complex()
    assert abs(v - 1) <= err + 1e-12
    v, err = R.zeta_pow(12).embed_complex()
    assert abs(v + 1) <= err + 1e-12
    with pytest.raises(ArgumentError):
        R.one().embed_complex(digits=5)


def test_mul_agrees_with_complex_embedding():
    rng = np.random.default_rng(7)
    R = get_ring(40)
    for _ in range(100):
        a = R.element(rng.integers(-20, 20, R.phi))
        b = R.element(rng.integers(-20, 20, R.phi))
        va, ea = a.embed_complex()
        vb, eb = b.embed_complex()
        vab, eab = (a * b).embed_complex()
        assert abs(vab - va * vb) < 1e-6
        vs, _ = (a + b).embed_complex()
        assert abs(vs - (va + vb)) < 1e-8


def test_integer_helpers():
    R = get_ring(12)
    x = R.from_int(-18)
    assert x.is_integer() and x.int_value() == -18
    assert x.divisible_by_int(9) and x.divide_exact_int(9).int_value() == -2
    with pytest.raises(ArgumentError):
        x.divide_exact_int(5)
    assert not R.zeta_pow(1).is_integer()


def test_integer_division_object_path_matches_int64():
    R = get_ring(12)
    vals = np.array([-18, 0, 27, -9], dtype=np.int64)
    x = CycloElement(R, vals)
    for c in (9, -9, 3, -3, 5, 2):
        y = CycloElement(R, vals.astype(object))
        assert x.divisible_by_int(c) == y.divisible_by_int(c) == all(v % c == 0 for v in vals)
        if x.divisible_by_int(c):
            assert x.divide_exact_int(c) == y.divide_exact_int(c)
            assert x.divide_exact_int(c).coeffs.tolist() == [v // c for v in vals]
        else:
            for z in (x, y):
                with pytest.raises(ArgumentError):
                    z.divide_exact_int(c)
    big = CycloElement(R, np.array([3**90, -(3**91), 0, 3**89], dtype=object))
    assert big.divisible_by_int(3**89) and not big.divisible_by_int(2)
    assert big.divide_exact_int(3**89).coeffs.tolist() == [3, -9, 0, 1]


def test_object_fallback_for_huge_coefficients():
    R = get_ring(8)
    big = 3 ** 200
    a = R.from_int(big)
    b = a * a
    assert b.int_value() == big * big


def test_conductor_cap():
    with pytest.raises(ResourceCapError, match="max_conductor"):
        get_ring(50000)


def test_canonical_key_is_dtype_insensitive():
    vals = [3, -7, 0, 2**40, -(2**62) + 1, 2**62 - 1]
    a = np.array(vals, dtype=np.int64)
    b = np.array(vals, dtype=object)
    assert isinstance(canonical_key(a), bytes)
    assert canonical_key(a) == canonical_key(b)
    assert hash(canonical_key(a)) == hash(canonical_key(b))
    assert canonical_key(a) != canonical_key(a[::-1])


def test_canonical_key_large_values_take_the_exact_tuple_tier():
    big = 2**62
    for vals in ([big, 1], [-big, 1], [2**63 - 1, 0], [3**50, -1]):
        key = canonical_key(np.array(vals, dtype=object))
        assert key == tuple(vals)
        assert hash(key) == hash(canonical_key(np.array(vals, dtype=object)))
    # an int64 array past the bound keys like the object array of its values
    assert canonical_key(np.array([big, 1], dtype=np.int64)) == (big, 1)
    assert canonical_key(np.array([3**50, 0], dtype=object)) != canonical_key(
        np.array([3**50 + 1, 0], dtype=object)
    )
    assert canonical_key(np.array([big - 1, 0])) != canonical_key(np.array([big, 0], dtype=object))


def test_element_keys_agree_across_dtypes():
    R = get_ring(24)
    x = R.element(np.arange(1, 9, dtype=np.int64))
    y = CycloElement(R, x.coeffs.astype(object))
    assert x == y and hash(x) == hash(y)
    big = R.from_int(2**70)
    assert isinstance(big.key, tuple)
    assert big == R.from_int(2**70) and big != R.from_int(2**70 + 1)
