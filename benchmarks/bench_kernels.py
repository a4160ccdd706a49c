#!/usr/bin/env python3
"""Benchmark the two hot kernels on both backends (numba jit vs pure numpy).

The histogram kernel is timed on every exponent and on the one-per-p-orbit
subset that GaussTable computes.

The numpy fallback is selected exactly the way production selects it, by
setting GAUSSLAB_NO_NUMBA=1 (the dispatch reads the environment per call).
Outputs a small table and verifies that both paths produce identical arrays.

Usage: python benchmarks/bench_kernels.py [--quick]
"""

import argparse
import os
import sys
import time

import numpy as np

from gausslab import _accel
from gausslab.chars import orbit_minima
from gausslab.ff import _mul_by_matrix, smallest_irreducible


def time_call(fn, *args, repeats=3):
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def with_backend(backend, fn, *args, **kwargs):
    prev = os.environ.pop("GAUSSLAB_NO_NUMBA", None)
    try:
        if backend == "numpy":
            os.environ["GAUSSLAB_NO_NUMBA"] = "1"
        return fn(*args, **kwargs)
    finally:
        os.environ.pop("GAUSSLAB_NO_NUMBA", None)
        if prev is not None:
            os.environ["GAUSSLAB_NO_NUMBA"] = prev


def bench_power_table(p, d, repeats):
    modulus = smallest_irreducible(p, d)
    mat = _mul_by_matrix(p, modulus, p)  # multiply by the element x
    count = p**d - 1
    if _accel.HAS_NUMBA:
        with_backend("numba", _accel.power_table, mat, p, count)  # compile
    t_np, out_np = with_backend(
        "numpy", lambda: time_call(_accel.power_table, mat, p, count, repeats=repeats)
    )
    row = [f"power_table p={p} d={d} ({count} rows)", t_np, None, True]
    if _accel.numba_enabled():
        t_nb, out_nb = with_backend(
            "numba", lambda: time_call(_accel.power_table, mat, p, count, repeats=repeats)
        )
        row[2] = t_nb
        row[3] = np.array_equal(out_np, out_nb)
    return row


def bench_gauss_counts(p, n, repeats, orbit_rows=False):
    N = p**n - 1
    m = p * N
    rng = np.random.default_rng(1)
    offsets = rng.integers(0, m, size=N).astype(np.int64)
    exps = None
    label = f"gauss_counts p={p} n={n} ({N}^2 terms)"
    if orbit_rows:
        # one row per orbit of e -> p*e mod N, as GaussTable computes
        exps = np.flatnonzero(orbit_minima(N, p, n) == np.arange(N))
        label = f"gauss_counts p={p} n={n} ({len(exps)} orbit rows)"

    def call():
        return _accel.gauss_counts(p, m, offsets, exps=exps)

    if _accel.HAS_NUMBA:
        with_backend("numba", call)  # compile
    t_np, out_np = with_backend("numpy", lambda: time_call(call, repeats=repeats))
    row = [label, t_np, None, True]
    if _accel.numba_enabled():
        t_nb, out_nb = with_backend("numba", lambda: time_call(call, repeats=repeats))
        row[2] = t_nb
        row[3] = np.array_equal(out_np, out_nb)
    return row


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true", help="smaller sizes, 1 repeat")
    args = ap.parse_args()
    repeats = 1 if args.quick else 3

    if args.quick:
        power_cases = [(3, 6), (2, 10)]
        count_cases = [(3, 5), (2, 8)]
    else:
        power_cases = [(3, 9), (2, 15), (5, 6)]
        count_cases = [(3, 6), (2, 10), (5, 4)]

    rows = []
    for p, d in power_cases:
        rows.append(bench_power_table(p, d, repeats))
    for p, n in count_cases:
        rows.append(bench_gauss_counts(p, n, repeats))
        rows.append(bench_gauss_counts(p, n, repeats, orbit_rows=True))

    print(f"{'kernel':44s} {'numpy':>9s} {'numba':>9s} {'speedup':>8s}  equal")
    for name, t_np, t_nb, equal in rows:
        if t_nb is None:
            print(f"{name:44s} {t_np:8.4f}s {'n/a':>9s} {'n/a':>8s}  {equal}")
        else:
            print(
                f"{name:44s} {t_np:8.4f}s {t_nb:8.4f}s {t_np / t_nb:7.1f}x  {equal}"
            )
    if not _accel.HAS_NUMBA:
        print("note: numba not importable; only the numpy path was timed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
