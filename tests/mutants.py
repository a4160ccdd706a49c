"""Mutation runner: each listed mutant must make its named tests fail.

A mutant is (name, file, old text, new text, test ids).  For every mutant,
`python tests/mutants.py` copies `src/`, `tests/` and `pyproject.toml` into a
temporary directory, replaces the one occurrence of the old text in that
copy's file, and runs the named tests there with pytest.  The mutant is
killed when every named test fails; a test id without parameters fails when
any of its cases does.  The exit status is 0 when every mutant is killed and
1 otherwise.  Standard library only; `tests/test_mutants.py` checks in the
test suite that every old text still occurs exactly once.
"""

from __future__ import annotations

import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest ids, each expected to fail


MUTANTS = [
    Mutant(
        "jacquet-sums-skip-x0",
        "src/gausslab/gl2.py",
        "[[self.class_index((a, x, 0, b)) for x in range(q)]",
        "[[self.class_index((a, x, 0, b)) for x in range(1, q)]",
        ("tests/test_gl2.py::test_jacquet_sums_are_borel_orthogonality",),
    ),
    Mutant(
        "jacquet-sums-off-diagonal-only",
        "src/gausslab/gl2.py",
        "for a in range(1, q) for b in range(1, q)],",
        "for a in range(1, q) for b in range(1, q) if a != b],",
        ("tests/test_gl2.py::test_jacquet_sums_are_borel_orthogonality",),
    ),
    Mutant(
        "value-ids-from-digests-alone",
        "src/gausslab/gauss.py",
        "same[r] = seen.setdefault(cyclo.canonical_key(row), r)",
        "continue",
        ("tests/test_gauss.py::test_value_ids_survive_digest_collisions",),
    ),
    Mutant(
        "padic-kronecker-factors-swapped",
        "src/gausslab/padic.py",
        "np.kron(Za.astype(object), Tb.astype(object))",
        "np.kron(Tb.astype(object), Za.astype(object))",
        ("tests/test_padic.py::test_image_matrix_is_the_sequential_powers",
         "tests/test_padic.py::test_kronecker_matrices_match_the_schoolbook_product"),
    ),
]

_FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def _failed(test_id: str, failed: set[str]) -> bool:
    return any(f == test_id or f.startswith(test_id + "[") for f in failed)


def run(mutant: Mutant) -> list[str]:
    """The named tests that pass under the mutant (empty when it is killed)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = pathlib.Path(tmp)
        for top in ("src", "tests"):
            shutil.copytree(ROOT / top, copy / top, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        target = copy / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: old text occurs {text.count(mutant.old)} times")
        target.write_text(text.replace(mutant.old, mutant.new))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy, capture_output=True, text=True, timeout=1800,
        )
    failed = set(_FAILED.findall(proc.stdout))
    return [t for t in mutant.tests if not _failed(t, failed)]


def main() -> int:
    survivors = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        passing = run(mutant)
        verdict = "killed" if not passing else "SURVIVED: " + ", ".join(passing)
        print(f"{mutant.name}: {verdict} ({time.perf_counter() - start:.1f} s)", flush=True)
        survivors += bool(passing)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return int(survivors > 0)


if __name__ == "__main__":
    sys.exit(main())
