"""gausslab's end-to-end and per-layer benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop with one client: the launcher starts sweeps one after another,
each a fresh interpreter running `sweep.py`, so the module caches start
empty in every sweep as they do in every CLI invocation.  It starts a new
sweep only while the longest sweep so far still fits in `--seconds`, and
before each sweep takes a few import-only probes for the set-up time.
Each sweep may use as many threads as the machine has cores, counting
OpenBLAS's, and no more.

With `--trace 0` the last line reports the end-to-end metrics as medians
over the sweeps.  With `--trace 1` traced and untraced sweeps alternate:
the traced ones give the per-layer metrics, the untraced ones the process
metrics and the base of `trace.overhead_ratio`.  Every job's exit code
and report digest is checked; in a traced run the traced digests must also
equal the untraced ones.  The last line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SWEEP = os.path.join(HERE, "sweep.py")

RUN_LIMIT_S = 170  # every run ends well within the 180 s a run may take
SETUP_PROBES_PER_SWEEP = 3  # spread over the run, so set-up samples the same host load as the sweeps
END_TO_END = {
    "run_s": "s",
    "slowest_job_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_ratio": "ratio",
}
PROCESS_METRICS = ("cpu_s", "retained_rss_mb", "trace.overhead_ratio")


def per_layer_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" where the checkout is not a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class SweepFailed(Exception):
    pass


def launch(args, deadline: float, *, trace: int = 0, probe: bool = False) -> dict:
    cmd = [sys.executable, SWEEP, "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(trace)]
    if probe:
        cmd.append("--probe")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(args.threads), OMP_NUM_THREADS=str(args.threads))
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SweepFailed("sweep exceeded the run's time limit")
    if proc.returncode != 0:
        raise SweepFailed(f"sweep exited with {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="gausslab benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gausslab", "__init__.py")):
        print(f"perfbench: no gausslab sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    args.threads = len(os.sched_getaffinity(0))

    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    budget_end = started + args.seconds
    setup = []
    sweeps = {0: [], 1: []}
    attempted = failed = 0
    errors = []
    try:
        modes = [1, 0] if args.trace else [0]
        probes = 0 if args.trace else SETUP_PROBES_PER_SWEEP  # set-up is an end-to-end metric
        longest = 0.0
        i = 0
        # at least one sweep of each mode, then as many as still fit
        while i < len(modes) or time.monotonic() + longest <= budget_end:
            mode = modes[i % len(modes)]
            t = time.monotonic()
            for _ in range(probes):
                setup.append(launch(args, deadline, probe=True)["setup_s"])
            sweep = launch(args, deadline, trace=mode)
            longest = max(longest, time.monotonic() - t)
            setup.append(sweep["setup_s"])
            sweeps[mode].append(sweep)
            attempted += len(sweep["jobs"])
            failed += sum(not j["ok"] for j in sweep["jobs"])
            errors += [f"{j['id']}: {j.get('error', 'wrong exit code or report digest')}"
                       for j in sweep["jobs"] if not j["ok"]]
            i += 1
    except SweepFailed as exc:
        n_jobs = len(workloads.jobs_for(args.workload, args.seed))
        attempted += n_jobs
        failed += n_jobs
        errors.append(str(exc))

    def med(values):
        return statistics.median(values) if values else 0.0

    plain, traced = sweeps[0], sweeps[1]
    digests = {tuple(j["digest"] for j in s["jobs"]) for s in plain + traced}
    same_digests = len(digests) <= 1
    if not same_digests:
        errors.append("traced and untraced sweeps produced different report digests")

    if args.trace:
        units = per_layer_units()
        base = med([s["run_s"] for s in plain])
        values = {name: med([s["layers"][name] for s in traced]) for name in units
                  if name not in PROCESS_METRICS}
        values["cpu_s"] = med([s["cpu_s"] for s in plain])
        values["retained_rss_mb"] = med([s["retained_rss_mb"] for s in plain])
        values["trace.overhead_ratio"] = med([s["run_s"] for s in traced]) / base if base else 0.0
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    else:
        values = {
            "run_s": med([s["run_s"] for s in plain]),
            "slowest_job_s": med([max(j["s"] for j in s["jobs"]) for s in plain]),
            "peak_rss_mb": med([s["peak_rss_mb"] for s in plain]),
            "setup_s": med(setup),
            "ok_ratio": (attempted - failed) / attempted if attempted else 0.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    env = (plain + traced)[-1]["env"] if plain + traced else {}
    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": args.threads, "openblas_num_threads": env.get("openblas_num_threads"),
        "python": env.get("python"), "numpy": env.get("numpy"),
        "kernel_backend": env.get("kernel_backend"), "git_commit": git_commit(),
        "sweeps_untraced": len(plain), "sweeps_traced": len(traced),
        "setup_samples": len(setup),
        "run_s_samples": [s["run_s"] for s in plain],
        "job_order": [j["id"] for j in (plain + traced)[0]["jobs"]] if plain + traced else [],
    }
    print("perfbench stamp " + json.dumps(stamp, sort_keys=True))
    for e in errors:
        print(f"perfbench failure: {e}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"perfbench {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0 and same_digests and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
