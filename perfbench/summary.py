"""Run the benchmark over several seeds and print every metric by name and unit.

    python3 perfbench/summary.py [--seeds 1-10] [--trace 0|1] [--baseline PATH]

Every run measures for BENCHMARK.json's `run_seconds`.  For each workload
of BENCHMARK.json and each end-to-end metric it prints the median over the seeds,
the quartile spread (Q3 - Q1 of `statistics.quantiles(values, n=4)`) as a
share of the median next to the metric's bound, and `failed_ratio`, the
failed jobs over the jobs attempted.  Pooling the sweeps of all runs, it
also prints the sweep time's median and the highest percentile that has at
least ten sweeps beyond it.  With `--trace 1` it prints the
per-layer metrics and the layer with the most self time.  `--baseline PATH`
sets the `end_to_end` (or, traced, the `per_layer`) section of that JSON
file, with each run's environment stamp, and lists the workflows the
workloads leave out.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    stamp = next(json.loads(line[len("perfbench stamp "):]) for line in lines
                 if line.startswith("perfbench stamp "))
    return json.loads(lines[-1]), stamp


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description="benchmark summary over seeds")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--baseline", default=None)
    args = ap.parse_args()

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    section = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in parse_seeds(args.seeds):
            result, stamp = run_once(workload, seed, bench["run_seconds"], args.trace)
            runs.append({"seed": seed, "result": result, "stamp": stamp})
            print(f"  {workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
        section[workload] = summarize(workload, runs, bounds, args.trace)
    if args.baseline:
        write_baseline(args.baseline, "per_layer" if args.trace else "end_to_end", section)
    return 0


def summarize(workload: str, runs: list[dict], bounds: dict, trace: int) -> dict:
    """Print one workload's figures and return them with each run's stamp."""
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    entry = {"runs": len(runs), "failed_ratio": failed / attempted, "metrics": {},
             "stamps": [r["stamp"] for r in runs]}
    print(f"{workload}: {len(runs)} runs, {attempted} jobs, failed_ratio {failed / attempted!r}")
    for name in bounds:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        unit = runs[0]["result"]["metrics"][name]["unit"]
        med, spr = statistics.median(values), spread(values)
        entry["metrics"][name] = {"median": med, "unit": unit, "spread": spr, "values": values}
        bound = f"  bound {bounds[name]}" if bounds[name] is not None else ""
        print(f"  {name:38s} {med:>16.6g} {unit:6s} spread {spr:.4f}{bound}")
    sweeps = sorted(x for r in runs for x in r["stamp"]["run_s_samples"])
    if len(sweeps) > 10:
        # the highest percentile with at least ten sweeps beyond it
        pct = 100 * (len(sweeps) - 10) // len(sweeps)
        entry["run_s_pooled"] = {"sweeps": len(sweeps), "median": statistics.median(sweeps),
                                 f"p{pct}": sweeps[-11]}
        print(f"  run_s over all {len(sweeps)} sweeps: median {statistics.median(sweeps):.6g} s, "
              f"p{pct} {sweeps[-11]:.6g} s")
    if trace:
        layer_self = {k.split(".")[1]: v["median"] for k, v in entry["metrics"].items()
                      if k.startswith("layer.")}
        entry["dominant_layer"] = max(layer_self, key=layer_self.get)
        print(f"  dominant layer by self time: {entry['dominant_layer']}")
    return entry


def write_baseline(path: str, key: str, section: dict) -> None:
    """Set one section of the baseline file, keeping the other."""
    sys.path.insert(0, HERE)
    import workloads

    baseline = {}
    if os.path.exists(path):
        with open(path) as fh:
            baseline = json.load(fh)
    baseline[key] = section
    baseline["left_out"] = workloads.LEFT_OUT
    with open(path, "w") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")

if __name__ == "__main__":
    sys.exit(main())
