import numpy as np
import pytest

from gausslab import _accel, build_tower
from gausslab.ff import _mul_by_matrix, smallest_irreducible


def _power_table_loop(mat, p, count):
    # one mat-vec per row, no chunking: an independent reference
    out = np.empty((count, mat.shape[0]), dtype=np.int64)
    v = np.zeros(mat.shape[0], dtype=np.int64)
    v[0] = 1
    for j in range(count):
        out[j] = v
        v = mat @ v % p
    return out


# (2,13) and (3,8) cross the kernel's 4096-row chunk boundary
@pytest.mark.parametrize("p,d", [(3, 4), (2, 7), (5, 3), (2, 13), (3, 8)])
def test_power_table_matches_plain_loop(p, d):
    modulus = smallest_irreducible(p, d)
    # generator encoding does not matter for the kernel test; use x (enc = p)
    mat = _mul_by_matrix(p, modulus, p)
    count = p**d - 1
    t = _accel.power_table(mat, p, count)
    assert t.shape == (count, d) and t.dtype == np.int16
    assert np.array_equal(t, _power_table_loop(mat, p, count))


@pytest.mark.parametrize("p,dtype", [(32749, np.int16), (32771, np.int32)])
def test_power_table_dtype_holds_every_coefficient(p, dtype):
    # coefficients lie in [0, p): int16 holds them while p <= 2^15, so every
    # table up to the largest prime below 2^15 stays int16 and only larger
    # primes widen
    T = build_tower(p, 1, 1)
    assert T.exp_vec.dtype == dtype
    assert T.exp_vec[:, 0].tolist() == [pow(T.g, j, p) for j in range(p - 1)]
    assert T.log_table[T.g] == 1 and T.log_table[1] == 0


def test_power_table_first_rows():
    modulus = smallest_irreducible(3, 2)
    mat = _mul_by_matrix(3, modulus, 4)  # multiply by 1 + x
    t = _accel.power_table(mat, 3, 8)
    assert list(t[0]) == [1, 0]
    assert list(t[1]) == [1, 1]


def test_gauss_counts_exponent_subset():
    rng = np.random.default_rng(2)
    offsets = rng.integers(0, 72, size=26).astype(np.int64)
    exps = np.array([0, 1, 5, 7, 25])  # an exponent subset, as orbit tables pass
    plain = np.arange(72)
    a = _accel.gauss_counts(3, 72, offsets, position=plain, exps=np.arange(len(offsets)))
    a_sub = _accel.gauss_counts(3, 72, offsets, position=plain, exps=exps)
    assert a.shape == (26, 72)
    assert np.all(a.sum(axis=1) == 26)
    assert np.array_equal(a_sub, a[exps])
    # a position map moves the count of exponent e to column position[e]
    position = rng.permutation(72)
    moved = _accel.gauss_counts(3, 72, offsets, position=position, exps=exps)
    assert np.array_equal(moved[:, position], a_sub)


def test_whole_pipeline_on_numpy_backend():
    # a tower built and scanned end to end on the numpy kernels
    from gausslab.converse import scan_converse
    from gausslab.ff import build_tower

    T = build_tower(5, 1, 2)
    rep = scan_converse(T, "regular")
    assert rep.ok and rep.n_orbits == 10
