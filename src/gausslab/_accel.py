"""Hot numeric kernels, vectorized in numpy.

Two loops carry the bulk numeric work: building the multiplicative power
table of a field generator (O(q^n * (fn)^2) small-int work) and
accumulating the exponent histograms of a family of Gauss sums
(O(q^n) per sum).  The power table fills its first chunk by doubling
(rows [t, 2t) are rows [0, t) moved by the t-th power of the multiply-by-g
map) and then advances chunk by chunk through that map's chunk-th power;
each histogram row is one `np.bincount`, and a Gauss table asks for its
rows a block at a time.

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
    vectors in the modulus basis.  The result is int16 while p <= 2^15, where
    every coefficient in [0, p) fits, and int32 above.
    """
    mul_mat = np.ascontiguousarray(mul_mat, dtype=np.int64)
    d = mul_mat.shape[0]
    chunk = min(count, 4096)
    v = np.zeros((chunk, d), dtype=np.int64)  # row j = g^j, so a step is v @ (M^t)^T
    v[0, 0] = 1
    # fill the first chunk by doubling: rows [t, 2t) are rows [0, t) times
    # (M^t)^T, and then (M^2t)^T = ((M^t)^T)^2
    step, t = mul_mat.T.copy(), 1
    while t < chunk:
        rows = v[t : t + min(t, chunk - t)]
        np.matmul(v[: len(rows)], step, out=rows)
        np.remainder(rows, p, out=rows)
        step = step @ step % p
        t += len(rows)
    # advance whole chunks; past one chunk, chunk = 4096 = 2^12, so the
    # doubling ended on a full step and `step` is (M^chunk)^T
    out = np.empty((count, d), dtype=np.int16 if p <= 1 << 15 else np.int32)
    done = 0
    while done < count:
        take = min(chunk, count - done)
        out[done : done + take] = v[:take]
        done += take
        if done < count:
            v = v @ step % p
    return out


# ---------------------------------------------------------------------------
# Gauss-sum histograms: counts[r, position[(p*exps[r]*j + off[j]) % m]] += 1


def gauss_counts(p: int, m: int, offsets: np.ndarray, *, position: np.ndarray,
                 exps: np.ndarray) -> np.ndarray:
    """Exponent histograms over Z/m for a character family at once.

    Row r collects the multiset {p*exps[r]*j + offsets[j] mod m : j}, i.e.
    the unreduced cyclotomic-exponent counts of the Gauss sum of exponent
    exps[r], with the count of exponent e in column position[e].  A ring's
    `tensor_position` lays the rows out for `CycloRing.reduce_tensor`; the
    identity permutation gives the plain exponent order.  offsets[j] must
    already lie in [0, m).  The result is (len(exps), m): `GaussTable` passes
    one row block of exponents per call, so it never holds all its rows.
    """
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    exps = np.ascontiguousarray(exps, dtype=np.int64)
    counts = np.empty((exps.shape[0], m), dtype=np.int64)
    j = np.arange(offsets.shape[0], dtype=np.int64)
    for r, e in enumerate(exps):
        idx = (p * e * j + offsets) % m
        counts[r] = np.bincount(position[idx], minlength=m)
    return counts
