"""Hot numeric kernels, vectorized in numpy.

Two loops carry the bulk numeric work: building the multiplicative power
table of a field generator (O(q^n * (fn)^2) small-int work) and
accumulating the exponent histograms of a family of Gauss sums at once
(O(q^n) per sum).  The power table advances in chunks through a
precomputed matrix power of the multiply-by-g map; each histogram row is
one `np.bincount`.

All arithmetic is exact int64; values are bounded well below 2**63 by the
field size cap (q^n < 2**20, conductors m = p*(q^n-1) < 2**41).
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# power table: rows j = coefficient vector of g^j, j = 0 .. count-1


def power_table(mul_mat: np.ndarray, p: int, count: int) -> np.ndarray:
    """Rows 0..count-1 of coefficient vectors of successive powers e, g, g^2, ...

    mul_mat is the (d x d) multiply-by-g matrix over F_p acting on coefficient
    vectors in the modulus basis.
    """
    mul_mat = np.ascontiguousarray(mul_mat, dtype=np.int64)
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


# ---------------------------------------------------------------------------
# Gauss-sum histograms: counts[r, (p*exps[r]*j + off[j]) % m] += 1 for all r, j


def gauss_counts(p: int, m: int, offsets: np.ndarray, *, exps: np.ndarray) -> np.ndarray:
    """Exponent histograms over Z/m for a character family at once.

    Row r collects the multiset {p*exps[r]*j + offsets[j] mod m : j}, i.e.
    the unreduced cyclotomic-exponent counts of the Gauss sum of exponent
    exps[r].  offsets[j] must already lie in [0, m).
    """
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    exps = np.ascontiguousarray(exps, dtype=np.int64)
    counts = np.empty((exps.shape[0], m), dtype=np.int64)
    j = np.arange(offsets.shape[0], dtype=np.int64)
    for r, e in enumerate(exps):
        idx = (p * e * j + offsets) % m
        counts[r] = np.bincount(idx, minlength=m)
    return counts
