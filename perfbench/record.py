"""Record the expected exit code and report digest of every CLI job.

    python3 perfbench/record.py

Runs each CLI job of every workload once, in its own fresh state, and
writes `expected.json`.  Run it only at a commit whose reports are known to
be right: the benchmark counts every later mismatch as a failed job.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main() -> int:
    expected = {}
    for line in workloads.all_cli_jobs():
        proc = subprocess.run(
            [sys.executable, "-m", "gausslab.cli", *line.split()],
            capture_output=True, text=True, timeout=170,
            env={**os.environ, "PYTHONPATH": sys.path[0]},
        )
        expected[line] = {"exit": proc.returncode, "sha256": workloads.report_digest(proc.stdout)}
        print(f"{proc.returncode} {expected[line]['sha256'][:16]} {line}", file=sys.stderr)
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
