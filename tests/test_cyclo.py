from functools import lru_cache

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gausslab import build_tower
from gausslab.chars import ring_for
from gausslab.cyclo import _RING_CACHE, CycloElement, CycloRing, canonical_key, get_ring
from gausslab.errors import ArgumentError, ResourceCapError
from gausslab.numth import divisors, euler_phi
from reference import cyclotomic_poly


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


def _sympy_remainder(row, m: int) -> list[int]:
    x = sympy.symbols("x")
    num = sympy.Poly([int(c) for c in reversed(row)] or [0], x)
    rem = sympy.rem(num, sympy.Poly(sympy.cyclotomic_poly(m, x), x)).all_coeffs()[::-1]
    return [int(c) for c in rem] + [0] * (euler_phi(m) - len(rem))


@lru_cache(maxsize=1)
def _dense_table(m: int) -> tuple[np.ndarray, int]:
    """The dense (m - phi) x phi table, row r = x^(phi + r) mod Phi_m, and
    its largest |entry| (the library's table before the odd-kernel one)."""
    phi, Phi = euler_phi(m), cyclotomic_poly(m)
    nz = np.flatnonzero(Phi[:phi])
    minus_head = -np.asarray(Phi[:phi], dtype=np.int64)[nz]
    table = np.empty((m - phi, phi), dtype=np.float64)
    work = np.zeros(m, dtype=np.int64)
    lo = m - phi
    work[lo + nz] = minus_head
    for r in range(m - phi):
        table[r] = work[lo : lo + phi]
        top = int(work[lo + phi - 1])
        lo -= 1
        if top:
            work[lo + nz] += top * minus_head
    return table, int(max(table.max(initial=0), -table.min(initial=0)))


def _dense_reduce(m: int, mat: np.ndarray) -> np.ndarray:
    """Reference: reduction through the dense table, with the same float64 /
    Python-int carrier rule."""
    phi = euler_phi(m)
    table, rows_max = _dense_table(m)
    b, width = mat.shape
    if width > m:
        segs = -(-width // m)
        if mat.dtype != object and segs * int(np.abs(mat).max(initial=0)) >= 2**62:
            mat = mat.astype(object)
        wide = np.zeros((b, segs * m), dtype=mat.dtype)
        wide[:, :width] = mat
        mat, width = wide.reshape(b, segs, m).sum(axis=1), m
    if width <= phi or not np.any(mat[:, phi:]):
        out = np.zeros((b, phi), dtype=mat.dtype)
        out[:, : min(width, phi)] = mat[:, :phi]
        return out
    head, tail = mat[:, :phi], mat[:, phi:]
    rows = table[: width - phi]
    tail_abs = np.abs(tail)
    if mat.dtype != object and int(tail_abs.max()) * tail.shape[1] >= 2**62:
        tail_abs = tail_abs.astype(object)
    bound = int(np.abs(head).max(initial=0)) + int(tail_abs.sum(axis=1).max()) * rows_max
    if bound < 2**52:
        return (head.astype(np.float64) + tail.astype(np.float64) @ rows).astype(np.int64)
    return head.astype(object) + tail.astype(object) @ rows.astype(np.int64).astype(object)


# every conductor the benchmark workloads reduce in
@pytest.mark.parametrize("m", [120, 336, 620, 726, 1022, 2046, 2184, 2394, 3120, 4094,
                               4896, 6558, 6840, 8190])
def test_reduce_matrix_matches_dense_table_reference(m):
    R = CycloRing(m)
    rng = np.random.default_rng(m)
    for width in (1, R.phi, R.phi + 1, m - 1, m, 2 * m + 5):
        mat = rng.integers(-1000, 1000, (3, width))
        want = _dense_reduce(m, mat)
        got = R.reduce_matrix(mat)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        # reduction is linear, so a Python-int row 2^60 * mat reduces to 2^60 * want
        got = R.reduce_matrix(mat[:1].astype(object) * 2**60)
        assert got.dtype == object and np.array_equal(got, want[:1].astype(object) * 2**60)


# k = 1 with an empty table (1, 2, 2^e); k prime, so no table (a prime, an odd
# prime power with s = 9, an even radical with s > 1); an odd squarefree
# conductor (k = 105, s = 1, a 22-row table)
@pytest.mark.parametrize("m", [1, 2, 8, 13, 27, 54, 105])
def test_reduce_matrix_matches_sympy_remainder(m):
    R = get_ring(m)
    phi = R.phi
    rng = np.random.default_rng(m)
    for width in sorted({max(phi - 3, 0), phi, phi + 2, m - 1, m, m + 1, 3 * m + 5}):
        mat = rng.integers(-50, 50, (4, width))
        mat[1, phi:] = 0  # a row with an all-zero tail
        # the table rows this width reads: its places below s*(l-1)k/l past phi
        n = (min(-(-width // R._s) * R._s, R._top) - phi) // R._s
        if n > 0:
            # max|entry| * (1 + n * max|table|) just below and at 2^52; nothing
            # sits at or above s*(l-1)k/l, so neither fold nor relation acts
            per = 1 + n * R._rows_max
            low = min(width, R._top)
            mat[2:] = 0
            mat[2, :low] = (2**52 - 1) // per * rng.choice([-1, 1], low)
            mat[3, :low] = -(-(2**52) // per) * rng.choice([-1, 1], low)
        out = R.reduce_matrix(mat)
        assert out.shape == (4, phi)
        for row, got in zip(mat, out):
            assert [int(v) for v in got] == _sympy_remainder(row, m)
            assert np.array_equal(R.reduce_vector(row), got)
        if n > 0:
            assert R.reduce_matrix(mat[2:3]).dtype == np.int64  # float64 carrier
            assert R.reduce_matrix(mat[3:4]).dtype == object  # Python-int carrier
    mat = np.zeros((2, 0), dtype=np.int64)
    assert np.array_equal(R.reduce_matrix(mat), np.zeros((2, phi), dtype=np.int64))
    # a fold whose int64 column sums would wrap, and Python-int input
    wide = np.full((1, 3 * m), 2**61, dtype=np.int64)
    wide[0, ::2] = -(2**61) + 7
    for row in (wide, wide.astype(object) * 2**40):
        assert [int(v) for v in R.reduce_matrix(row)[0]] == _sympy_remainder(row[0], m)
    if R._l > 1:
        # one row of width s*k, which needs no fold: x^0 and x^top at -c and c
        # put -2c at x^0 through the relation, so the int64 tier, which holds only
        # |values| < 2^62, must certify 2 * max|row| < 2^62 and not max|row|
        for c in (2**61 - 1, 2**61):
            row = np.zeros((1, R._s * R._k), dtype=np.int64)
            row[0, 0], row[0, R._top] = -c, c
            got = R.reduce_matrix(row)
            assert [int(v) for v in got[0]] == _sympy_remainder(row[0], m)
            assert got.dtype == object or -(2**62) < got.min() and got.max() < 2**62


@lru_cache(maxsize=None)
def _sympy_cyclotomic(m: int) -> np.ndarray:
    return np.array(sympy.cyclotomic_poly(m, polys=True).all_coeffs()[::-1], dtype=np.int64)


def _schoolbook_remainder(mat: np.ndarray, m: int) -> np.ndarray:
    """Rows of small integers mod Phi_m, with Phi_m from sympy: mod x^m - 1
    first (Phi_m divides it), then by schoolbook division in int64."""
    Phi = _sympy_cyclotomic(m)
    phi = len(Phi) - 1
    b, width = mat.shape
    segs = -(-width // m)
    assert segs * int(np.abs(mat).max(initial=0)) < 2**62
    rem = np.zeros((b, segs * m), dtype=np.int64)
    rem[:, :width] = mat
    rem = rem.reshape(b, segs, m).sum(axis=1)
    start, c_max = int(np.abs(rem).max(initial=0)), 0
    for i in range(m - 1, phi - 1, -1):
        c = rem[:, i].copy()
        rem[:, i - phi : i + 1] -= c[:, None] * Phi
        c_max = max(c_max, int(np.abs(c).max()))
    # each entry is its start minus at most m - phi products c * Phi_j, so
    # this bound certifies that no int64 step wrapped
    assert start + (m - phi) * c_max * int(np.abs(Phi).max()) < 2**62
    return rem[:, :phi]


# rad even with s > 1 (2184, 8190), k = 3 * 1093 (6558), k prime (16382) and
# multi-prime k (2046, 15620), with CycloRing(m) built past the conductor cap
@pytest.mark.parametrize("m, table_rows", [(2046, 82), (2184, 38), (6558, 2), (8190, 334),
                                           (15620, 324), (16382, 0)])
def test_reduce_matrix_matches_sympy_at_large_conductors(m, table_rows):
    R = CycloRing(m)
    rng = np.random.default_rng(m)
    # up to s*(l-1)k/l, where no relation acts; s*k; and 2m + 5, which folds
    widths = (R.phi + 1, R._top, R._s * R._k, 2 * m + 5)
    mats = [rng.integers(-50, 50, (2, w)) for w in widths]
    full = np.zeros((2 * len(widths), max(widths)), dtype=np.int64)
    for i, mat in enumerate(mats):
        full[2 * i : 2 * i + 2, : mat.shape[1]] = mat
    want = _schoolbook_remainder(full, m)
    for i, mat in enumerate(mats):
        got = R.reduce_matrix(mat)
        assert got.dtype == np.int64 and np.array_equal(got, want[2 * i : 2 * i + 2])
        big = R.reduce_matrix(mat.astype(object) * 2**60)
        assert big.dtype == object and np.array_equal(big, want[2 * i : 2 * i + 2].astype(object) * 2**60)
    assert R.table.shape == (table_rows, R.phi // R._s)


def _arrays(obj) -> list[tuple[tuple[int, ...], np.dtype]]:
    return [(v.shape, v.dtype) for v in vars(obj).values() if isinstance(v, np.ndarray)]


def test_ring_holds_one_float64_table():
    # the ((l-1)k/l - phi(k)) x phi(k) table of the odd kernel k of rad(m)
    # and its least prime l, built by the first reduction that reads it
    R = CycloRing(8190)
    assert _arrays(R) == []
    R.reduce_vector(np.arange(2 * R.m))
    assert _arrays(R) == [((334, 576), np.float64)]
    # at m = 2^e a folded row has no tail, so no reduction reads the empty table
    R = CycloRing(8192)
    R.reduce_vector(np.arange(2 * R.m))
    assert _arrays(R) == []


# m = 1 (no tensor axis), one axis (2, 8, 9, 27, 8192), odd squarefree (105),
# and the scan conductors 2184 = 2^3 * 3 * 7 * 13 and 8190 = 2 * 3^2 * 5 * 7 * 13
@pytest.mark.parametrize("m", [1, 2, 8, 9, 27, 105, 2184, 8190, 8192])
def test_powerful_basis_round_trip(m):
    R = CycloRing(m)
    rng = np.random.default_rng(m)
    mat = rng.integers(-1000, 1000, (3, m))
    tensor = np.empty_like(mat)
    tensor[:, R.tensor_position] = mat
    coords = R.reduce_tensor(tensor)
    assert coords.shape == (3, R.phi) and coords.dtype == np.int64
    want = R.reduce_matrix(mat)
    got = R.from_powerful(coords)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    # the coordinates are unique: adding x^i * Phi_m(x) mod x^m - 1 changes none
    Phi = np.array(cyclotomic_poly(m), dtype=np.int64)
    shifted = mat.copy()
    np.add.at(shifted[0], (int(rng.integers(m)) + np.arange(len(Phi))) % m, 7 * Phi)
    tensor[:, R.tensor_position] = shifted
    assert np.array_equal(R.reduce_tensor(tensor), coords)
    # Python ints scaled by 2^60 take the object tier and scale exactly
    big = R.reduce_tensor(tensor.astype(object) * 2**60)
    assert big.dtype == object and np.array_equal(big, coords.astype(object) * 2**60)
    got = R.from_powerful(big)
    assert got.dtype == object and np.array_equal(got, want.astype(object) * 2**60)


def test_reduce_tensor_int64_tier_bound():
    # 5 axes: int64 while 2^5 * max|entry| < 2^62, Python ints from there
    R = CycloRing(8190)
    rng = np.random.default_rng(5)
    row = rng.integers(-3, 4, (1, R.m))
    for top, dtype in ((2**57 - 1, np.int64), (2**57, object)):
        row[0, :2] = top, -top
        coords = R.reduce_tensor(row)
        assert coords.dtype == dtype
        exact = R.reduce_tensor(row.astype(object))
        assert exact.dtype == object and np.array_equal(coords, exact)


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


# Galois images at an odd radical (105) and at m = 2 * s*k with s = 1 (2046,
# 6558) and s = 4 (2184); lifts into an odd radical (315), from odd m into
# M = 2 * s*k (210), and from even m (the rest)
@pytest.mark.parametrize("m, big", [(105, 315), (105, 210), (2046, 6138), (2184, 4368), (6558, 6558)])
def test_galois_and_lift_match_the_unfolded_row(m, big):
    R, S = CycloRing(m), CycloRing(big)
    rng = np.random.default_rng(m)
    for coeffs in (rng.integers(-50, 50, R.phi), rng.integers(-50, 50, R.phi).astype(object) * 2**61):
        a = CycloElement(R, coeffs)
        for j in rng.choice([j for j in range(1, m) if np.gcd(j, m) == 1], 4):
            v = np.zeros(m, dtype=coeffs.dtype)
            v[j * np.arange(R.phi) % m] = coeffs
            assert a.galois(int(j)) == R.element(v)
        v = np.zeros(big, dtype=coeffs.dtype)
        v[big // m * np.arange(R.phi)] = coeffs
        assert a.lift_to(S) == S.element(v)


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


def test_conductor_cap_binds_on_cache_hit():
    # F_{3^8} has conductor 19680: refused, never cached, so refused again
    T = build_tower(3, 1, 8)
    for _ in range(2):
        with pytest.raises(ResourceCapError, match="conductor 19680 exceeds max_conductor cap 8192"):
            ring_for(T)
    assert 19680 not in _RING_CACHE


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
