"""Hot numeric kernels with a numba fast path and a pure-numpy fallback.

Two loops dominate runtime: building the multiplicative power table of a
field generator (O(q^n * (fn)^2) small-int work) and accumulating the
exponent histograms of a family of Gauss sums at once (O(q^n) per sum).
Both exist in two semantically identical versions:

* `@njit` kernels, used when numba imports and jitting is not disabled;
* vectorized numpy versions (the power table advances in chunks through a
  precomputed matrix power of the multiply-by-g map).

Selection: the environment variable GAUSSLAB_NO_NUMBA=1 forces the numpy
path, as does NUMBA_DISABLE_JIT or numba being absent.  `kernel_backend()`
reports which path is live; benchmarks/bench_kernels.py compares the two.

All arithmetic is exact int64; values are bounded well below 2**63 by the
field size cap (q^n < 2**20, conductors m = p*(q^n-1) < 2**41).
"""

from __future__ import annotations

import os

import numpy as np

try:
    import numba

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    numba = None
    HAS_NUMBA = False


def numba_enabled() -> bool:
    if not HAS_NUMBA:
        return False
    if os.environ.get("GAUSSLAB_NO_NUMBA"):
        return False
    if os.environ.get("NUMBA_DISABLE_JIT"):
        return False
    return True


def kernel_backend() -> str:
    return "numba" if numba_enabled() else "numpy"


def set_jobs(jobs: int) -> None:
    """Best-effort thread count for the parallel numba kernels."""
    if HAS_NUMBA and jobs >= 1:
        try:
            numba.set_num_threads(jobs)
        except ValueError:
            pass  # more threads requested than the launch config allows


# ---------------------------------------------------------------------------
# power table: rows j = coefficient vector of g^j, j = 0 .. count-1


def _power_table_numpy(mul_mat: np.ndarray, p: int, count: int) -> np.ndarray:
    d = mul_mat.shape[0]
    chunk = min(count, 4096)
    v = np.zeros((d, chunk), dtype=np.int64)
    v[0, 0] = 1
    for t in range(1, chunk):
        v[:, t] = (mul_mat @ v[:, t - 1]) % p
    # advance whole chunks through M^chunk
    mc = np.eye(d, dtype=np.int64)
    b, sq = chunk, mul_mat.copy()
    while b:
        if b & 1:
            mc = (mc @ sq) % p
        sq = (sq @ sq) % p
        b >>= 1
    out = np.empty((count, d), dtype=np.int16)
    done = 0
    while done < count:
        take = min(chunk, count - done)
        out[done : done + take] = v[:, :take].T
        done += take
        if done < count:
            v = (mc @ v) % p
    return out


if HAS_NUMBA:

    @numba.njit(cache=True)
    def _power_table_njit(mul_mat: np.ndarray, p: int, count: int) -> np.ndarray:  # pragma: no cover - jitted
        d = mul_mat.shape[0]
        out = np.empty((count, d), dtype=np.int16)
        v = np.zeros(d, dtype=np.int64)
        v[0] = 1
        w = np.zeros(d, dtype=np.int64)
        for j in range(count):
            for r in range(d):
                out[j, r] = np.int16(v[r])
            for r in range(d):
                w[r] = 0
            for c in range(d):
                vc = v[c]
                if vc != 0:
                    for r in range(d):
                        w[r] += mul_mat[r, c] * vc
            for r in range(d):
                v[r] = w[r] % p
        return out


def power_table(mul_mat: np.ndarray, p: int, count: int) -> np.ndarray:
    """Rows 0..count-1 of coefficient vectors of successive powers e, g, g^2, ...

    mul_mat is the (d x d) multiply-by-g matrix over F_p acting on coefficient
    vectors in the modulus basis.
    """
    mul_mat = np.ascontiguousarray(mul_mat, dtype=np.int64)
    if numba_enabled():
        return _power_table_njit(mul_mat, p, count)
    return _power_table_numpy(mul_mat, p, count)


# ---------------------------------------------------------------------------
# Gauss-sum histograms: counts[r, (p*exps[r]*j + off[j]) % m] += 1 for all r, j


def _gauss_counts_numpy(p: int, m: int, offsets: np.ndarray, exps: np.ndarray) -> np.ndarray:
    counts = np.empty((exps.shape[0], m), dtype=np.int64)
    j = np.arange(offsets.shape[0], dtype=np.int64)
    for r, e in enumerate(exps):
        idx = (p * e * j + offsets) % m
        counts[r] = np.bincount(idx, minlength=m)
    return counts


if HAS_NUMBA:

    @numba.njit(cache=True, parallel=True)
    def _gauss_counts_njit(p: int, m: int, offsets: np.ndarray, exps: np.ndarray) -> np.ndarray:  # pragma: no cover - jitted
        n_terms = offsets.shape[0]
        counts = np.zeros((exps.shape[0], m), dtype=np.int64)
        for r in numba.prange(exps.shape[0]):
            base = (p * exps[r]) % m
            phase = 0
            for j in range(n_terms):
                idx = phase + offsets[j]
                if idx >= m:
                    idx -= m
                counts[r, idx] += 1
                phase += base
                if phase >= m:
                    phase -= m
        return counts


def gauss_counts(p: int, m: int, offsets: np.ndarray, exps: np.ndarray | None = None) -> np.ndarray:
    """Exponent histograms over Z/m for a character family at once.

    Row r collects the multiset {p*exps[r]*j + offsets[j] mod m : j}, i.e.
    the unreduced cyclotomic-exponent counts of the Gauss sum of exponent
    exps[r]; `exps` defaults to every exponent 0 .. len(offsets)-1.
    offsets[j] must already lie in [0, m).
    """
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    if exps is None:
        exps = np.arange(offsets.shape[0], dtype=np.int64)
    exps = np.ascontiguousarray(exps, dtype=np.int64)
    if numba_enabled():
        return _gauss_counts_njit(p, m, offsets, exps)
    return _gauss_counts_numpy(p, m, offsets, exps)
