"""Mutation runner: each listed mutant must make its named tests fail.

A mutant is (name, file, old text, new text, test ids).  For every mutant,
`python tests/mutants.py` copies `src/`, `tests/` and `pyproject.toml` into a
temporary directory, replaces the one occurrence of the old text in that
copy's file, and runs the named tests there with pytest.  The mutant is
killed when every named test fails; a test id without parameters fails when
any of its cases does, and one with parameters (`test_x[a b]`) names one
case.  The exit status is 0 when every mutant is killed and 1 otherwise.
Standard library only; `tests/test_mutants.py` checks in the test suite that
every old text still occurs exactly once.
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
        "tests/reference.py",
        "same[r] = seen.setdefault(canonical_key(row), r)",
        "continue",
        ("tests/test_gauss.py::test_value_ids_survive_digest_collisions",),
    ),
    Mutant(
        "padic-kronecker-factors-swapped",
        "tests/reference.py",
        "np.kron(Za.astype(object), Tb.astype(object))",
        "np.kron(Tb.astype(object), Za.astype(object))",
        ("tests/test_padic.py::test_image_matrix_is_the_sequential_powers",
         "tests/test_padic.py::test_kronecker_matrices_match_the_schoolbook_product"),
    ),
    Mutant(
        "reduce-fold-sign-always-plus",
        "src/gausslab/cyclo.py",
        "(np.add if self._sign ** j > 0 else np.subtract)(mat, wide[:, j], out=mat)",
        "np.add(mat, wide[:, j], out=mat)",
        ("tests/test_cyclo.py::test_reduce_examples",
         "tests/test_cyclo.py::test_reduce_matrix_matches_dense_table_reference[120]"),
    ),
    Mutant(
        "reduce-kernel-not-deinterleaved",
        "src/gausslab/cyclo.py",
        'kernel = tail.transpose(0, 2, 1).astype(carrier, order="C").reshape(b * s, n)',
        'kernel = tail.astype(carrier, order="C").reshape(b * s, n)',
        ("tests/test_cyclo.py::test_reduce_matrix_matches_dense_table_reference[120]",),
    ),
    Mutant(
        "relation-sign-dropped-for-even-radical",
        "src/gausslab/cyclo.py",
        "(np.subtract if self._sign > 0 else np.add)(odd, last, out=odd)",
        "np.subtract(odd, last, out=odd)",
        ("tests/test_cyclo.py::test_reduce_matrix_matches_sympy_remainder[54]",
         "tests/test_cyclo.py::test_reduce_matrix_matches_dense_table_reference[2046]"),
    ),
    Mutant(
        "residual-table-one-row-short",
        "src/gausslab/cyclo.py",
        "n = self._top // self._s - d",
        "n = self._top // self._s - d - 1",
        ("tests/test_cyclo.py::test_ring_holds_one_float64_table",
         "tests/test_cyclo.py::test_reduce_matrix_matches_dense_table_reference[120]"),
    ),
    Mutant(
        "int64-guard-without-the-relation-factor",
        "src/gausslab/cyclo.py",
        "if mat.dtype != object and 2 * segs * _max_abs(mat) >= _I64_SAFE:",
        "if mat.dtype != object and segs * _max_abs(mat) >= _I64_SAFE:",
        ("tests/test_cyclo.py::test_reduce_matrix_matches_sympy_remainder[13]",),
    ),
    Mutant(
        "folded-scatter-not-negated",
        "src/gausslab/cyclo.py",
        "v = v[: self.m // 2] - v[self.m // 2 :]",
        "v = v[: self.m // 2] + v[self.m // 2 :]",
        ("tests/test_cyclo.py::test_galois_and_lift_match_the_unfolded_row[2046-6138]",),
    ),
    Mutant(
        "tensor-last-block-not-subtracted",
        "src/gausslab/cyclo.py",
        "out = (head - last).reshape(",
        "out = (head + 0 * last).reshape(",
        ("tests/test_cyclo.py::test_powerful_basis_round_trip[105]",),
    ),
    Mutant(
        "tensor-last-axis-skipped",
        "src/gausslab/cyclo.py",
        "for axis, (l, mi) in enumerate(self._axes, start=1):",
        "for axis, (l, mi) in enumerate(self._axes[:-1], start=1):",
        ("tests/test_cyclo.py::test_powerful_basis_round_trip[105]",),
    ),
    Mutant(
        "tensor-positions-not-crt",
        "src/gausslab/cyclo.py",
        "position = position * mi + e % mi",
        "position = e.copy()",
        ("tests/test_cyclo.py::test_powerful_basis_round_trip[105]",
         "tests/test_gauss.py::test_table_matches_naive_oracle"),
    ),
    Mutant(
        "etale-epsilon-dropped",
        "tests/reference.py",
        "return -prod if (sum(parts) - len(parts)) % 2 else prod",
        "return prod",
        ("tests/test_gauss.py::test_etale_signs",
         "tests/test_gauss.py::test_etale_sign_and_direct_summation"),
    ),
    Mutant(
        "tensor-rhs-parities-swapped",
        "src/gausslab/gauss.py",
        "(chi_e * (m - 1) + eta_e * (n - 1)) % 2",
        "(chi_e * (n - 1) + eta_e * (m - 1)) % 2",
        ("tests/test_gauss.py::test_tensor_rhs_m1_consistency",
         "tests/test_cli.py::test_tensor_rhs_m1_equals_the_literal_sum[5-1-2]"),
    ),
    Mutant(
        "tensor-rhs-eta-inverted",
        "src/gausslab/gauss.py",
        "E = chi_e * (NN // (q**n - 1)) + eta_e * (NN // (q**m - 1))",
        "E = chi_e * (NN // (q**n - 1)) - eta_e * (NN // (q**m - 1))",
        ("tests/test_gauss.py::test_tensor_rhs_m1_consistency",
         "tests/test_cli.py::test_tensor_rhs_m1_equals_the_literal_sum[2-2-2]"),
    ),
    Mutant(
        "table-last-block-skipped",
        "src/gausslab/gauss.py",
        "return (slice(lo, lo + step) for lo in range(0, n, step))",
        "return (slice(lo, lo + step) for lo in range(0, n - step, step))",
        ("tests/test_gauss.py::test_row_blocks_match_one_block",
         "tests/test_gauss.py::test_table_matches_naive_oracle"),
    ),
    Mutant(
        "table-object-promotion-dropped",
        "src/gausslab/gauss.py",
        "    if part.dtype == object and out.dtype != object:",
        "    if False:",
        ("tests/test_gauss.py::test_row_blocks_match_one_block",),
    ),
    Mutant(
        "value-ids-are-row-numbers",
        "src/gausslab/gauss.py",
        "return digits.product_labels(self.tower.p, self.tower.f, [(1, (self._d,), c[:, None])])",
        "return np.arange(len(c), dtype=np.int64)",
        ("tests/test_gauss.py::test_value_ids_are_exact",),
    ),
    Mutant(
        "stickelberger-residue-shift-s-plus-1",
        "src/gausslab/padic.py",
        "shifted[at] = emb.ctx.shift_down(X[at], shift[at]) % modulus",
        "shifted[at] = emb.ctx.shift_down(X[at], shift[at] + 1) % modulus",
        ("tests/test_padic.py::test_stickelberger_examples[3-2]",),
    ),
    Mutant(
        "stickelberger-factorial-residue-dropped",
        "src/gausslab/padic.py",
        "t = digits.factorial_residues(p, table)",
        "t = np.ones(len(es), dtype=np.int64)",
        ("tests/test_padic.py::test_stickelberger_examples[3-2]",
         "tests/test_padic.py::test_batched_reports_match_the_per_element_route[5-2]"),
    ),
    Mutant(
        "window-product-sign-dropped",
        "src/gausslab/padic.py",
        "prod_digit = np.where(odd, -V % mod, V).tolist()",
        "prod_digit = V.tolist()",
        ("tests/test_padic.py::test_gross_koblitz_windows[3-2]",
         "tests/test_padic.py::test_batched_reports_match_the_per_element_route[3-3]"),
    ),
    Mutant(
        "gamma-direct-route-read-mod-p",
        "src/gausslab/padic.py",
        "args, where = np.unique((N - c) % mod * pow(N, -1, mod) % mod, return_inverse=True)",
        "args, where = np.unique((N - c) % p * pow(N, -1, p) % p, return_inverse=True)",
        ("tests/test_padic.py::test_gross_koblitz_windows[5-2]",
         "tests/test_padic.py::test_batched_reports_match_the_per_element_route[5-2]"),
    ),
    Mutant(
        "collision-invariants-without-the-digit-factorial",
        "src/gausslab/converse.py",
        "table.sum(axis=1),\n                                      digits.factorial_residues(tower.p, table)])",
        "table.sum(axis=1)])",
        ("tests/test_converse.py::test_collision_invariants_fail_on_a_merged_class[factorials-differ]",),
    ),
    Mutant(
        "int64-product-mod-dropped",
        "src/gausslab/padic.py",
        "            return A @ B % modulus",
        "            return A @ B",
        ("tests/test_padic.py::test_embed_matches_per_term_sum[3-2]",
         "tests/test_padic.py::test_power_tables_are_the_sequential_powers[3-2]"),
    ),
    Mutant(
        "int64-product-bound-without-the-columns",
        "src/gausslab/padic.py",
        "if (a_max * A.shape[1] * b_max < _I64_LIMIT",
        "if (a_max * b_max < _I64_LIMIT",
        ("tests/test_padic.py::test_matmul_mod_certifies_every_partial_sum",),
    ),
    Mutant(
        "pi-shift-sign-plus-p",
        "src/gausslab/padic.py",
        "return src // ((-self.p) ** (t // self.e).astype(object))[:, :, None] % self.pK",
        "return src // (self.p ** (t // self.e).astype(object))[:, :, None] % self.pK",
        ("tests/test_padic.py::test_division",
         "tests/test_padic.py::test_pi_shift_gives_the_residue_over_zeta_p_minus_one[3-3]"),
    ),
    Mutant(
        "image-rows-one-power-high",
        "src/gausslab/padic.py",
        "rows[filled:filled + take] = _matmul_mod(rows[:take], power, modulus)",
        "rows[filled:filled + take] = _matmul_mod(rows[1:take + 1], power, modulus)",
        ("tests/test_padic.py::test_power_tables_are_the_sequential_powers[3-2]",),
    ),
    Mutant(
        "image-doubling-mod-dropped",
        "src/gausslab/padic.py",
        "power = _matmul_mod(power, power, modulus)",
        "power = power @ power",
        ("tests/test_padic.py::test_power_tables_are_the_sequential_powers[7-3]",),
    ),
    Mutant(
        "histogram-position-inverses-swapped",
        "src/gausslab/padic.py",
        "return v * pow(N, -1, p) % p * N + v * pow(p, -1, N) % N",
        "return v * pow(p, -1, N) % p * N + v * pow(N, -1, p) % N",
        ("tests/test_padic.py::test_gauss_sums_match_the_ring_route[3-2]",
         "tests/test_padic.py::test_embed_matches_per_term_sum[3-2]"),
    ),
    Mutant(
        "histogram-trace-offsets-dropped",
        "src/gausslab/padic.py",
        "offsets = tower.mult_order * tower.subfield_traces(tower.n) % m",
        "offsets = 0 * tower.subfield_traces(tower.n)",
        ("tests/test_padic.py::test_gauss_sums_match_the_ring_route[3-2]",
         "tests/test_padic.py::test_stickelberger_examples[3-2]"),
    ),
    Mutant(
        "orbit-valuations-not-spread",
        "src/gausslab/padic.py",
        "return [by_orbit[o] for o in inverse.tolist()], shifted[inverse]",
        "return by_orbit, shifted[inverse]",
        ("tests/test_padic.py::test_batched_reports_match_the_per_element_route[3-3]",
         "tests/test_padic.py::test_stickelberger_examples[3-2]"),
    ),
    Mutant(
        "pi-power-is-plus-p",
        "src/gausslab/padic.py",
        "self.pi = _companion((p,) + (0,) * (p - 2), self.pK)",
        "self.pi = _companion((-p,) + (0,) * (p - 2), self.pK)",
        ("tests/test_padic.py::test_zeta_p_lift",
         "tests/test_padic.py::test_zeta_p_lift_is_the_dwork_root[3-1]"),
    ),
    Mutant(
        "teichmueller-after-one-step",
        "src/gausslab/padic.py",
        "        if (T2 == T).all():\n            return T\n        T = T2",
        "        return T2",
        ("tests/test_padic.py::test_teichmuller_basics",
         "tests/test_padic.py::test_embed_is_morphism",
         "tests/test_padic.py::test_quadratic_gauss_sum_is_minus_pi"),
    ),
    Mutant(
        "newton-stop-tested-mod-p-to-the-K-minus-1",
        "src/gausslab/padic.py",
        "if not g.any():",
        "if not (g % ctx.p ** (ctx.K - 1)).any():",
        ("tests/test_padic.py::test_quadratic_gauss_sum_is_minus_pi",
         "tests/test_padic.py::test_gauss_sums_match_the_ring_route[3-2]"),
    ),
    Mutant(
        "stickelberger-precision-n",
        "src/gausslab/padic.py",
        "            K = _sweep_precision(n, 1)",
        "            K = n",
        ("tests/test_padic.py::test_valuations",
         "tests/test_padic.py::test_division"),
    ),
    Mutant(
        "gross-koblitz-precision-n-plus-window",
        "src/gausslab/padic.py",
        "embedding_for(tower, _sweep_precision(n, window + 1))",
        "embedding_for(tower, n + window)",
        ("tests/test_padic.py::test_gross_koblitz_reads_the_top_compared_digit[5-2-1]",
         "tests/test_padic.py::test_gross_koblitz_reads_the_top_compared_digit[7-2-0]"),
    ),
    Mutant(
        "lemma-violations-dropped",
        "src/gausslab/converse.py",
        'violations.extend({"pair": [int(exps[i]), int(exps[j])], **extra} for extra in compare(i, j))',
        "violations.extend([])",
        ("tests/test_converse.py::test_lemma_suite_reports_violations",),
    ),
    Mutant(
        "lemma-cross-orbit-counts-same-orbit-pairs",
        "src/gausslab/converse.py",
        "cross = pairs - _later([classes, scope, orbit], tested)",
        "cross = _later([classes, scope, orbit], tested)",
        ("tests/test_cli.py::test_report_bytes_pinned[lemmas --p 3 --n 4]",),
    ),
    Mutant(
        "lemma-run-pairs-ignore-the-multiset-hypothesis",
        "src/gausslab/converse.py",
        "run_stat, run_transfer, scope=same_multisets, tested=has_run)",
        "run_stat, run_transfer, tested=has_run)",
        ("tests/test_converse.py::test_lemma_suite_matches_the_pairwise_oracle_on_wrong_digits[3-4]",),
    ),
    Mutant(
        "etale-key-without-epsilon",
        "src/gausslab/converse.py",
        "[((-1) ** (sum(parts) - len(parts)), parts, exps)",
        "[(1, parts, exps)",
        ("tests/test_converse.py::test_etale_scan_matches_the_ring_route[13-1-2]",
         "tests/test_cli.py::test_report_bytes_pinned[etale-scan --p 5 --n 2]"),
    ),
    Mutant(
        "etale-coset-reduced-mod-q-minus-1",
        "src/gausslab/digits.py",
        "u_of = {d: cosets % (q**d - 1) for d in degrees}",
        "u_of = {d: cosets % (q - 1) for d in degrees}",
        ("tests/test_converse.py::test_product_labels_match_the_ring_route[13-1-2]",
         "tests/test_converse.py::test_etale_scan_matches_the_ring_route[2-2-3]"),
    ),
    Mutant(
        "twist-keys-without-unit-residues",
        "src/gausslab/digits.py",
        "out = out * -unit_residues(p, f * d, column) % mod",
        "out = out * 0 * unit_residues(p, f * d, column) % mod",
        ("tests/test_converse.py::test_integer_classes_match_the_ring_route[3-1-4]",
         "tests/test_converse.py::test_integer_classes_match_the_ring_route[2-1-8]"),
    ),
    Mutant(
        "unit-residue-mod-2-at-p-2",
        "src/gausslab/digits.py",
        "read, mod = (8, 4) if p == 2 else (p, p)",
        "read, mod = (8, 2) if p == 2 else (p, p)",
        ("tests/test_converse.py::test_integer_classes_match_the_ring_route[2-1-4]",
         "tests/test_padic.py::test_unit_residues_are_the_gross_koblitz_unit[2-10]"),
    ),
    Mutant(
        "valuations-at-one-prime-only",
        "src/gausslab/digits.py",
        "return u[orbit_minima(N, p, d, u) == u]",
        "return u[orbit_minima(N, p, d, u) == u][:1]",
        ("tests/test_converse.py::test_integer_classes_match_the_ring_route[3-1-5]",
         "tests/test_converse.py::test_collision_classes_past_the_conductor_cap[2-13-sizes4]",
         "tests/test_digits.py::test_twist_key_tables[3-5]"),
    ),
    Mutant(
        "twist-step-over-p-minus-1",
        "src/gausslab/digits.py",
        "return [(column - k * ((q**d - 1) // (q - 1))) % (q**d - 1)",
        "return [(column - k * ((q**d - 1) // (p - 1))) % (q**d - 1)",
        ("tests/test_converse.py::test_integer_classes_match_the_ring_route[2-2-3]",
         "tests/test_converse.py::test_twisted_product_labels_are_the_etale_signatures[2-2-3]"),
    ),
    Mutant(
        "lemma-inverse-sums-read-at-plus-e",
        "src/gausslab/converse.py",
        "inverse = read(-regular)",
        "inverse = read(regular)",
        ("tests/test_converse.py::test_lemma_suite_reads_the_inverse_sums_at_minus_e",),
    ),
    Mutant(
        "rabin-gcd-at-the-largest-proper-divisor-skipped",
        "src/gausslab/ff.py",
        "gcd_at = set(numth.proper_divisors(R.D))",
        "gcd_at = set(numth.proper_divisors(R.D)[:-1])",
        ("tests/test_ff.py::test_irreducibility_matches_sympy_on_every_monic_candidate[3-6]",),
    ),
    Mutant(
        "generator-test-without-the-largest-prime",
        "src/gausslab/ff.py",
        "cofactors = [N // ell for ell in numth.prime_divisors(N)]",
        "cofactors = [N // ell for ell in numth.prime_divisors(N)[:-1]]",
        ("tests/test_ff.py::test_modulus_and_generator_match_the_numpy_oracle[extensions]",),
    ),
    Mutant(
        "root-filter-drops-the-leading-term",
        "src/gausslab/ff.py",
        "return any(sum(c * r**i for i, c in enumerate(m)) % p == 0 for r in range(p))",
        "return any(sum(c * r**i for i, c in enumerate(m[:-1])) % p == 0 for r in range(p))",
        ("tests/test_ff.py::test_modulus_and_generator_match_the_numpy_oracle[extensions]",),
    ),
    Mutant(
        "reduction-tail-not-negated",
        "src/gausslab/ff.py",
        "self._tail = [(i, p - c) for i, c in enumerate(self.modulus[:-1]) if c]",
        "self._tail = [(i, c) for i, c in enumerate(self.modulus[:-1]) if c]",
        ("tests/test_ff.py::test_modulus_and_generator_match_the_numpy_oracle[extensions]",
         "tests/test_ff.py::test_mul_by_matrix_matches_the_numpy_oracle[3-7]"),
    ),
    Mutant(
        "power-table-doubling-steps-by-one",
        "src/gausslab/_accel.py",
        "step = step @ step % p",
        "step = step @ mul_mat.T % p",
        ("tests/test_accel.py::test_power_table_matches_plain_loop[3-4]",
         "tests/test_accel.py::test_power_table_matches_plain_loop[2-13]"),
    ),
    Mutant(
        "power-table-int16-past-2-15",
        "src/gausslab/_accel.py",
        "dtype=np.int16 if p <= 1 << 15 else np.int32",
        "dtype=np.int16",
        ("tests/test_accel.py::test_power_table_dtype_holds_every_coefficient[32771-int32]",),
    ),
    Mutant(
        "cyclic-run-without-wrap-around",
        "src/gausslab/digits.py",
        "starts = places & ~np.roll(places, 1, axis=1)",
        "starts = places & ~np.pad(places[:, :-1], ((0, 0), (1, 0)))",
        ("tests/test_digits.py::test_cyclic_runs",),
    ),
]

# a summary line is "FAILED <id> - <message>"; a parametrised id may hold spaces
_FAILED = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", re.MULTILINE)


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
