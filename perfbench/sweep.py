"""One sweep in a fresh interpreter: import gausslab, run one workload's jobs
in seed order, and print one JSON line with the measurements.

    python3 perfbench/sweep.py --workload NAME --seed N --trace 0|1 --t0 T

`--t0` is the launcher's `time.monotonic()` just before it started this
process, so `setup_s` covers interpreter start-up and the import of
`gausslab` and `gausslab.cli`.  With `--probe` the process stops after
that import.  Tracing wraps the layers after the import, so set-up is
never traced.  A traced sweep writes its spans under `.perfbench_out/`.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_program():
    sys.path.insert(0, SRC)
    import gausslab
    import gausslab.cli

    if not os.path.abspath(gausslab.__file__).startswith(SRC + os.sep):
        raise ImportError(f"gausslab was imported from {gausslab.__file__}, not from {SRC}")
    return gausslab.cli


def _rss_mb() -> float:
    """Resident set size now, from the kernel's per-process page counts."""
    with open("/proc/self/statm") as fh:
        resident_pages = int(fh.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def main(argv=None) -> int:
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    cli = _import_program()
    setup_s = time.monotonic() - args.t0

    import gc
    import json
    import resource

    import numpy

    import layertrace
    import workloads

    result = {"setup_s": setup_s}
    if args.probe:
        print(json.dumps(result))
        return 0

    jobs = workloads.jobs_for(args.workload, args.seed)
    expected = workloads.load_expected()
    tracer = None
    library = workloads.run_library
    if args.trace:
        tracer = layertrace.Tracer()
        tracer.install()
        library = tracer.wrap(workloads.run_library, "bench.library_job", layertrace.HARNESS_LAYER)

    outcomes = []
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    t_start = time.perf_counter()
    for job in jobs:
        t = time.perf_counter()
        try:
            outcome = workloads.run_job(job, cli.main, expected, library)
        except Exception as exc:  # a crashing job counts as failed; the sweep goes on
            outcome = {"id": job.id, "ok": False, "digest": "", "bytes": 0, "error": repr(exc)}
        outcome["s"] = time.perf_counter() - t
        outcomes.append(outcome)
    run_s = time.perf_counter() - t_start
    usage = resource.getrusage(resource.RUSAGE_SELF)

    if tracer is not None:
        tracer.uninstall()
    gc.collect()
    result.update(
        run_s=run_s,
        jobs=outcomes,
        peak_rss_mb=usage.ru_maxrss / 1024,
        cpu_s=(usage.ru_utime + usage.ru_stime) - (usage0.ru_utime + usage0.ru_stime),
        retained_rss_mb=_rss_mb(),
        env={
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "kernel_backend": cli.kernel_backend(),
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    )
    if tracer is not None:
        result["layers"] = layertrace.layer_metrics(tracer, sum(o["bytes"] for o in outcomes))
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, f"spans-{args.workload}.bin"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
