import numpy as np
import pytest

from gausslab import _accel
from gausslab.ff import _mul_by_matrix, smallest_irreducible


@pytest.fixture()
def force_numpy(monkeypatch):
    monkeypatch.setenv("GAUSSLAB_NO_NUMBA", "1")


def test_backend_reporting(monkeypatch):
    if _accel.HAS_NUMBA:
        monkeypatch.delenv("GAUSSLAB_NO_NUMBA", raising=False)
        monkeypatch.delenv("NUMBA_DISABLE_JIT", raising=False)
        assert _accel.kernel_backend() == "numba"
    monkeypatch.setenv("GAUSSLAB_NO_NUMBA", "1")
    assert _accel.kernel_backend() == "numpy"


@pytest.mark.parametrize("p,d", [(3, 4), (2, 7), (5, 3)])
def test_power_table_backends_agree(p, d, monkeypatch):
    modulus = smallest_irreducible(p, d)
    # generator encoding does not matter for the kernel test; use x (enc = p)
    mat = _mul_by_matrix(p, modulus, p)
    count = p**d - 1
    monkeypatch.setenv("GAUSSLAB_NO_NUMBA", "1")
    a = _accel.power_table(mat, p, count)
    if not _accel.HAS_NUMBA:
        pytest.skip("numba unavailable")
    monkeypatch.delenv("GAUSSLAB_NO_NUMBA")
    monkeypatch.delenv("NUMBA_DISABLE_JIT", raising=False)
    if not _accel.numba_enabled():
        pytest.skip("jit disabled in this environment")
    b = _accel.power_table(mat, p, count)
    assert np.array_equal(a, b)


def test_power_table_first_rows(force_numpy):
    modulus = smallest_irreducible(3, 2)
    mat = _mul_by_matrix(3, modulus, 4)  # multiply by 1 + x
    t = _accel.power_table(mat, 3, 8)
    assert list(t[0]) == [1, 0]
    assert list(t[1]) == [1, 1]


def test_gauss_counts_backends_agree(monkeypatch):
    rng = np.random.default_rng(2)
    offsets = rng.integers(0, 72, size=26).astype(np.int64)
    monkeypatch.setenv("GAUSSLAB_NO_NUMBA", "1")
    exps = np.array([0, 1, 5, 7, 25])  # an exponent subset, as orbit tables pass
    a = _accel.gauss_counts(3, 72, offsets)
    a_sub = _accel.gauss_counts(3, 72, offsets, exps=exps)
    assert a.shape == (26, 72)
    assert np.all(a.sum(axis=1) == 26)
    assert np.array_equal(a_sub, a[exps])
    if not (_accel.HAS_NUMBA):
        pytest.skip("numba unavailable")
    monkeypatch.delenv("GAUSSLAB_NO_NUMBA")
    monkeypatch.delenv("NUMBA_DISABLE_JIT", raising=False)
    if not _accel.numba_enabled():
        pytest.skip("jit disabled in this environment")
    b = _accel.gauss_counts(3, 72, offsets)
    b_sub = _accel.gauss_counts(3, 72, offsets, exps=exps)
    assert np.array_equal(a, b)
    assert np.array_equal(a_sub, b_sub)


def test_whole_pipeline_on_numpy_backend(force_numpy):
    # a tower built and scanned entirely on the fallback path
    from gausslab.converse import scan_converse
    from gausslab.ff import build_tower

    T = build_tower(5, 1, 2)
    rep = scan_converse(T, "regular")
    assert rep.ok and rep.n_orbits == 10


def test_set_jobs_is_safe():
    _accel.set_jobs(1)
    _accel.set_jobs(10**6)  # out-of-range requests are ignored
