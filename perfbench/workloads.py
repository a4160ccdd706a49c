"""The benchmark's workloads: which jobs a sweep runs, in which order, and
how each job's output is checked.

A sweep is one acceptance-style session: the jobs of one workload run one
after another in one interpreter, so they share the module caches as a
scripted sweep of CLI invocations made through `gausslab.cli.main` does.
The seed fixes the order of the jobs and every sampled exponent.  The last
job of each workload is fixed: it is the workload's largest job, and it
closes the sweep the way the top rung closes a ladder.  The caches pin what
earlier jobs built, so with the largest job last the peak memory of a sweep
measures that job on top of everything pinned before it, whatever the order
of the rest.

CLI jobs are checked by exit code and by the SHA-256 of the canonical JSON
of their report's `result` and `assertions` (`meta` is left out: its config
echo lists flags that may be removed without changing any result).  The
expected digests were recorded from the program by `record.py` and live in
`expected.json`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")


WORKLOADS: dict[str, dict] = {
    # Gauss-table construction at conductors m = 2046 .. 8190; the (2,12)
    # scan is the top rung: dense histogram plus batch reduction.
    "scan-ladder": {
        "jobs": [
            "scan --p 2 --n 10 --expect-collisions",
            "scan --p 3 --n 6 --expect-collisions",
            "scan --p 7 --n 3",
            "scan --p 5 --n 4",
            "scan --p 2 --n 11",
            "scan --p 3 --n 7",
            "counterexample --t 3",
        ],
        "last": "scan --p 2 --n 12 --expect-collisions",
    },
    # Many small tables, so per-exponent Python tuple keys dominate.
    "signature-grouping": {
        "jobs": [
            "scan --p 13 --n 2 --population all",
            "scan --p 17 --n 2 --population all",
            "scan --p 19 --n 2 --population all",
            "lemmas --p 3 --n 5",
            "lemmas --p 5 --n 4",
            "primitive-scan --p 3 --n 6 --r 2",
            "etale-scan --p 13 --n 2",
            "mersenne --n 7",
        ],
        "last": "scan --p 5 --f 2 --n 2 --population all",
    },
    # Per-element Z[zeta_m] arithmetic: many tiny calls at m <= 336 (GL_2
    # oracle) and fewer large ones at m ~ 2-3k (the library job).
    "exact-identities": {
        "jobs": [
            "gl2-check --q 5",
            "hasse-davenport --p 3 --m 3",
            "hasse-davenport --p 5 --m 3",
            "tensor-rhs --p 3 --n 2 --m 1 --chi-e 1 --eta-e 1",
            "library",
        ],
        "last": "gl2-check --q 7",
    },
    # The only workload in which the p-adic layer does real work.
    "padic-sweeps": {
        "jobs": [
            "stickelberger --p 2 --n 9",
            "gross-koblitz --p 3 --n 5 --window 2",
            "gross-koblitz --p 5 --n 3 --window 1",
        ],
        "last": "stickelberger --p 3 --n 6",
    },
}

# CLI workflows no workload runs, and why.
LEFT_OUT = {
    "mersenne --n 13": "does not finish within 120 s: mersenne_check rebuilds the whole "
                       "spectrum inside its per-j comprehension",
    "gauss": "a single-call job",
    "field-info": "a single-call job",
    "any workflow on (3,8)": "refused by the 8192 conductor cap (m = 19680)",
}

# The library job: public functions on seeded exponent samples.
LIBRARY_FIELDS = ((2, 10), (3, 6), (5, 4), (7, 3))
LIBRARY_SAMPLES_PER_FIELD = 96


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple[str, ...] = ()
    samples: tuple[tuple[int, int, int], ...] = ()  # library job: (p, n, e)

    @property
    def is_library(self) -> bool:
        return not self.argv


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The jobs of one sweep in the order the seed fixes."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    lines = list(spec["jobs"])
    rng.shuffle(lines)
    out = []
    for line in lines + [spec["last"]]:
        if line == "library":
            samples = []
            for p, n in LIBRARY_FIELDS:
                N = p**n - 1
                samples += [(p, n, e) for e in rng.sample(range(1, N), LIBRARY_SAMPLES_PER_FIELD)]
            out.append(Job(id="library", samples=tuple(samples)))
        else:
            out.append(Job(id=line, argv=tuple(line.split())))
    return out


def all_cli_jobs() -> list[str]:
    return [line for spec in WORKLOADS.values() for line in spec["jobs"] + [spec["last"]]
            if line != "library"]


def load_expected() -> dict[str, dict]:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def report_digest(text: str) -> str:
    """SHA-256 of the canonical JSON of a report's result and assertions."""
    report = json.loads(text)
    body = {"assertions": report["assertions"], "result": report["result"]}
    canon = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def run_cli(cli_main, argv) -> tuple[int, str]:
    """Run one CLI invocation in this process; returns (exit code, report text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue()


def run_library(samples) -> dict:
    """Check S * sigma_{-1}(S) = chi(-1) q^n and S * conj(S) = q^n exactly.

    sigma_{-1} fixes zeta_p and inverts zeta_{q^n-1}, so it sends S(chi) to
    S(chi^-1); both identities hold for every nontrivial chi.
    """
    from gausslab import build_tower
    from gausslab.chars import MultChar
    from gausslab.gauss import gauss_S, sigma_fixing_psi

    towers = {}
    held = 0
    for p, n, e in samples:
        tower = towers.get((p, n))
        if tower is None:
            tower = towers[(p, n)] = build_tower(p, 1, n)
        chi = MultChar(tower, e)
        s = gauss_S(chi)
        ring, size = s.ring, tower.order
        inverse_ok = s * sigma_fixing_psi(s, -1, tower) == ring.from_int(chi.value_at_minus_one() * size)
        norm_ok = s * s.conj() == ring.from_int(size)
        held += inverse_ok and norm_ok
    return {"checked": len(samples), "held": held}


def run_job(job: Job, cli_main, expected: dict, library=run_library) -> dict:
    """Run and check one job; `library` runs the library job's samples."""
    if job.is_library:
        outcome = library(job.samples)
        ok = outcome["checked"] == len(job.samples) == outcome["held"]
        return {"id": job.id, "ok": ok, "digest": json.dumps(outcome, sort_keys=True), "bytes": 0}
    code, text = run_cli(cli_main, job.argv)
    try:
        digest = report_digest(text)
    except (ValueError, KeyError, TypeError):
        digest = ""
    want = expected.get(job.id)
    ok = want is not None and code == want["exit"] and digest == want["sha256"]
    return {"id": job.id, "ok": ok, "digest": digest, "bytes": len(text.encode())}
