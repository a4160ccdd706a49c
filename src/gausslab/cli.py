"""Command-line surface: one subcommand per verification workflow, JSON/CSV
reports with embedded convention stamps, deterministic byte output.

Every handler returns a `converse.Report`, and the reports of the `converse`
verifiers are printed as the library returns them, apart from the scan
presentation (--expect-collisions relabelling and the CSV rows).  Schema:
{"meta": {...}, "result": report.result, "assertions": [{name, status,
witness?}]}, written by `_document` alone.  Identical configuration produces
byte-identical reports; wall-clock timings go to stderr only.

Exit status: 0 when `report.ok` (every asserted property held, was
inconclusive or was expected, see --expect-collisions), 1 property
violation, 2 invalid configuration, 3 resource cap exceeded.  --max-elements
binds on every subcommand.

Nothing a call builds outlives it: on every exit path `main` empties the
library's module caches (rings, Gauss tables, p-adic embeddings, GL2 groups
and factorial tables) in place, so a scripted sweep of calls in one process
peaks at its largest call, not at the sum of its calls.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import time

import numpy as np

from . import __version__, converse, cyclo, digits, gauss, gl2, padic
from .chars import MultChar, orbit_reps, regular_mask, ring_for
from .converse import Assertion, Report, check, every_held
from .errors import ArgumentError, GausslabError, ResourceCapError
from .ff import DEFAULT_MAX_ELEMENTS, build_tower
from .gauss import ScaledCyclo, gamma_n_by_1, hasse_davenport_check, tensor_gamma_rhs
from .padic import gross_koblitz_check, stickelberger_check

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3


def kernel_backend() -> str:
    """The kernels' backend, named in the stderr timing line: always numpy."""
    return "numpy"


def _document(report: Report, args) -> dict:
    """The one report-to-dict path: meta, result and assertions."""
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "output") and v is not None
    }
    return {
        "meta": {"tool": "gausslab", "version": __version__, "config": config},
        "result": report.result,
        "assertions": [
            {"name": a.name, "status": a.status}
            | ({"witness": a.witness} if a.witness is not None else {})
            for a in report.assertions
        ],
    }


def _json(obj, depth: int = 0) -> str:
    """json.dumps(obj, sort_keys=True, indent=2), built here from json's
    C encoder on scalars: the pure-Python indenting encoder leaves its
    self-referencing closures in a reference cycle on every call."""
    if isinstance(obj, dict) and obj:
        items = [json.dumps(k if isinstance(k, str) else json.dumps(k)) + ": " + _json(v, depth + 1)
                 for k, v in sorted(obj.items())]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)) and obj:
        items = [_json(v, depth + 1) for v in obj]
        brackets = "[]"
    else:
        return json.dumps(obj)
    pad = "\n" + "  " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + "  " * depth + brackets[1]


def _emit(doc: dict, args) -> None:
    if args.format == "json":
        text = _json(doc) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerows(doc["result"].get("csv_rows", []))
        writer.writerow(["assertion", "status"])
        writer.writerows([a["name"], a["status"]] for a in doc["assertions"])
        text = buf.getvalue()
    if args.output and args.output != "-":
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns a converse.Report


def _cmd_field_info(args):
    tower = build_tower(args.p, args.f, args.n, max_elements=args.max_elements)
    return Report({
        "order": tower.order,
        "mult_order": tower.mult_order,
        "q": tower.q,
        "stamp": converse.convention_stamp(tower),
        "num_regular_characters": int(regular_mask(tower.mult_order, tower.q, tower.n).sum()),
    })


def _cmd_gauss(args):
    tower = build_tower(args.p, args.f, args.n, max_elements=args.max_elements)
    c = MultChar(tower, args.e)
    tab = gauss.gauss_table(tower)
    s = cyclo.CycloElement(tab.ring, tab.rows([c.e])[0])  # one row, not the whole S
    val, err = s.embed_complex()
    return Report({
        "exponent": c.e,
        "regular": c.is_regular(),
        "order": c.order,
        "conductor": s.ring.m,
        "canonical_coefficients": {str(k): int(v) for k, v in enumerate(s.coeffs) if v},
        "complex_value": [val.real, val.imag],
        "complex_error_bound": err,
        "stamp": converse.convention_stamp(tower),
    })


_SEPARATION = (
    "signature-separates-orbits",
    "intermediate-twist-signature-separates-primitive-orbits",
)


def _present_scan(rep: Report, expect_collisions: bool) -> Report:
    """The library scan report plus CSV rows of its collision classes; with
    `expect_collisions` the separation verdict is inverted ("expected")."""
    assertions = rep.assertions
    if expect_collisions:
        assertions = [
            Assertion(a.name + " (collisions expected)",
                      "expected" if a.status == "fail" else "fail", a.witness)
            if a.name in _SEPARATION else a
            for a in assertions
        ]
    csv_rows = [["orbit_rep", "class_index", "class_size"]]
    for idx, cls in enumerate(rep.collision_classes):
        csv_rows.extend([e, idx, len(cls)] for e in cls)
    return Report({**rep.result, "csv_rows": csv_rows}, assertions)


def _cmd_scan(args):
    tower = build_tower(args.p, args.f, args.n, max_elements=args.max_elements)
    rep = converse.scan_converse(tower, population=args.population)
    return _present_scan(rep, args.expect_collisions)


def _cmd_primitive_scan(args):
    rep = converse.primitive_scan(args.p, args.f, args.n, args.r, max_elements=args.max_elements)
    return _present_scan(rep, args.expect_collisions)


def _cmd_lemmas(args):
    return converse.lemma_suite(build_tower(args.p, 1, args.n, max_elements=args.max_elements))


def _sweep_held(name: str, exponents, failures: list) -> Assertion:
    """A p-adic sweep's assertion: inconclusive when it had no exponent to
    check (F_2 has no nontrivial character), as a lemma with no pair is."""
    if not exponents:
        return Assertion(name, "inconclusive", {"reason": "no nontrivial character"})
    return every_held(name, "failures", failures)


def _cmd_stickelberger(args):
    tower = build_tower(args.p, 1, args.n, max_elements=args.max_elements)
    exponents = [args.e] if args.e is not None else range(1, tower.mult_order)
    failures = [
        {"e": e, "measured": r.measured_valuation, "expected": r.s}
        for e, r in zip(exponents, stickelberger_check(tower, exponents)) if not r.ok
    ]
    result = {
        "checked": len(exponents),
        "failures": len(failures),
        "stamp": converse.convention_stamp(tower),
    }
    return Report(result, [
        _sweep_held("valuation-equals-digit-sum-and-unit-congruence", exponents, failures)
    ])


def _cmd_gross_koblitz(args):
    tower = build_tower(args.p, 1, args.n, max_elements=args.max_elements)
    exponents = [args.e] if args.e is not None else range(1, tower.mult_order)
    failures = [
        {"e": e, "routes_agree": r.routes_agree, "identity": r.identity_ok}
        for e, r in zip(exponents, gross_koblitz_check(tower, exponents, args.window)) if not r.ok
    ]
    result = {
        "checked": len(exponents),
        "window": args.window,
        "failures": len(failures),
        "stamp": converse.convention_stamp(tower),
    }
    return Report(result, [_sweep_held("gamma-product-identity-both-routes", exponents, failures)])


def _cmd_counterexample(args):
    return converse.counterexample_search(args.t, p=args.p, max_elements=args.max_elements)


def _cmd_mersenne(args):
    return converse.mersenne_check(args.n, max_elements=args.max_elements)


def _cmd_gl2_check(args):
    group = gl2.gl2_group(args.q, max_q=args.max_q, max_elements=args.max_elements)
    mismatches = []
    n_checked = 0
    for e in orbit_reps(group.tower):
        c = MultChar(group.tower, e)
        pi = gl2.CuspidalCharacter(group, c)
        for k in range(args.q - 1):
            n_checked += 1
            if gl2.gamma_via_bessel(pi, k) != gamma_n_by_1(c, k):
                mismatches.append({"e": e, "k": k})
    result = {
        "q": args.q,
        "pairs_checked": n_checked,
        "stamp": converse.convention_stamp(group.tower),
    }
    return Report(result, [
        every_held("bessel-gamma-equals-gauss-sum-gamma", "mismatches", mismatches),
        # CuspidalCharacter raises FormulaValidationError when a gate fails
        Assertion("character-validation-gates", "pass"),
    ])


def _literal_tensor_rhs_m1(tower, chi_e: int, eta_e: int) -> ScaledCyclo:
    """The m = 1 right side summed term by term over x = g^j in F_{q^n}^x:
    (-eta(-1))^(n-1) q^-(n-1) * sum_x chi(x) eta(Nr x) psi(Tr x^-1), with
    chi(g^j) = zeta_N^(chi_e j), eta(Nr g^j) = zeta_{q-1}^(eta_e j) and
    psi(Tr g^-j) = zeta_p^Tr(g^(N-j)).  Its exponent histogram is built in
    the plain order of Z/m and reduced on its own, without a Gauss table."""
    ring = ring_for(tower)
    N, p, q, m = tower.mult_order, tower.p, tower.q, ring.m
    j = np.arange(N, dtype=np.int64)
    traces = tower.subfield_traces(tower.f * tower.n)  # Tr(g^j)
    idx = (p * chi_e * j + p * (N // (q - 1)) * eta_e * j + N * traces[-j % N]) % m
    total = ring.element(np.bincount(idx, minlength=m))
    eta_minus_one = 1 if p == 2 else (-1) ** eta_e  # -1 = Nr(g)^((q-1)/2)
    sign = (-eta_minus_one) ** (tower.n - 1)
    return ScaledCyclo(total if sign > 0 else -total, tower.n - 1, q)


def _cmd_tensor_rhs(args):
    big = build_tower(args.p, args.f, args.n * args.m, max_elements=args.max_elements)
    val = tensor_gamma_rhs(big, args.n, args.m, args.chi_e, args.eta_e)
    result = {
        "value_conductor": val.num.ring.m,
        "value_coefficients": {str(k): int(v) for k, v in enumerate(val.num.coeffs) if v},
        "q_power": val.power,
        "stamp": converse.convention_stamp(big),
    }
    assertions = []
    if args.m == 1:  # the degree-n tower itself: chi is a plain exponent on it
        direct = gamma_n_by_1(MultChar(big, args.chi_e), args.eta_e % (big.q - 1))
        literal = _literal_tensor_rhs_m1(big, args.chi_e, args.eta_e)
        assertions.append(check("m=1-consistency-with-gamma-formula", direct == val == literal))
    return Report(result, assertions)


def _cmd_hasse_davenport(args):
    tower = build_tower(args.p, args.f, args.m, max_elements=args.max_elements)
    exponents = [args.e] if args.e is not None else range(tower.q - 1)
    failures = hasse_davenport_check(tower, exponents)
    result = {
        "q": tower.q,
        "lift_degree": args.m,
        "checked": len(exponents),
        "stamp": converse.convention_stamp(tower),
    }
    return Report(result, [every_held("lifting-relation", "failing_exponents", failures)])


def _cmd_etale_scan(args):
    return converse.etale_signature_scan(args.p, args.f, args.n, max_elements=args.max_elements)


# ---------------------------------------------------------------------------


@functools.cache  # built once per process: a parser is a web of reference cycles
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gausslab",
        description="Exact twisted Gauss sums and converse-theorem scans over finite fields",
    )
    parser.add_argument("--version", action="version", version=f"gausslab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--output", default="-", help="report path, '-' for stdout")
        sp.add_argument("--max-elements", type=int, default=DEFAULT_MAX_ELEMENTS)
        return sp

    sp = common(sub.add_parser("field-info", help="tower parameters and conventions"))
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--f", type=int, default=1)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=_cmd_field_info)

    sp = common(sub.add_parser("gauss", help="one exact Gauss sum"))
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--f", type=int, default=1)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--e", type=int, required=True)
    sp.set_defaults(func=_cmd_gauss)

    sp = common(sub.add_parser("scan", help="twist-signature converse scan"))
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--f", type=int, default=1)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--population", choices=("regular", "all"), default="regular")
    sp.add_argument("--expect-collisions", action="store_true")
    sp.set_defaults(func=_cmd_scan)

    sp = common(sub.add_parser("primitive-scan", help="intermediate-field converse scan"))
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--f", type=int, default=1)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--expect-collisions", action="store_true")
    sp.set_defaults(func=_cmd_primitive_scan)

    sp = common(sub.add_parser("lemmas", help="digit-statistic lemma suite"))
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=_cmd_lemmas)

    sp = common(sub.add_parser("stickelberger", help="valuation + unit congruence sweep"))
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--e", type=int, default=None, help="single exponent (default: all)")
    sp.set_defaults(func=_cmd_stickelberger)

    sp = common(sub.add_parser("gross-koblitz", help="gamma-product factorization sweep"))
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--e", type=int, default=None)
    sp.add_argument("--window", type=int, default=1, help="compare mod p^(window+1)")
    sp.set_defaults(func=_cmd_gross_koblitz)

    sp = common(sub.add_parser("counterexample", help="order-(p^t+1) collision family"))
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--p", type=int, default=3)
    sp.set_defaults(func=_cmd_counterexample)

    sp = common(sub.add_parser("mersenne", help="valuation-spectrum injectivity, p=2"))
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=_cmd_mersenne)

    sp = common(sub.add_parser("gl2-check", help="Bessel oracle vs Gauss-sum gamma"))
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--max-q", type=int, default=gl2.DEFAULT_MAX_Q)
    sp.set_defaults(func=_cmd_gl2_check)

    sp = common(sub.add_parser("tensor-rhs", help="conjectural tensor gamma over F_{q^{mn}}"))
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--f", type=int, default=1)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--chi-e", type=int, required=True,
                    help="chi exponent on F_{q^n}, indexed against the norm of the F_{q^mn} generator")
    sp.add_argument("--eta-e", type=int, required=True,
                    help="eta exponent on F_{q^m}, indexed against the norm of the F_{q^mn} generator")
    sp.set_defaults(func=_cmd_tensor_rhs)

    sp = common(sub.add_parser("hasse-davenport", help="norm-lifting relation"))
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--f", type=int, default=1)
    sp.add_argument("--m", type=int, required=True, help="lift degree")
    sp.add_argument("--e", type=int, default=None, help="base-field exponent (default: all)")
    sp.set_defaults(func=_cmd_hasse_davenport)

    sp = common(sub.add_parser("etale-scan", help="signed signatures vs character divisors"))
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--f", type=int, default=1)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=_cmd_etale_scan)

    return parser


def _check_common(args) -> None:
    """Refuse, before any work, a cap no field can meet and a report that
    could not be written."""
    if args.max_elements < 1:
        raise ArgumentError(f"--max-elements must be positive, got {args.max_elements}")
    if args.output and args.output != "-":
        folder = os.path.dirname(os.path.abspath(args.output))
        if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
            raise ArgumentError(f"output directory {folder} is missing or not writable")


def _release_caches() -> None:
    """Empty every module-level cache of the library in place.  A call builds
    its own tower, and tables and embeddings are keyed by it, so no later
    call could hit what they hold; rings are rebuilt on demand."""
    for cache in (cyclo._RING_CACHE, gauss._TABLE_CACHE, padic._EMBED_CACHE,
                  digits._PRIME_FREE_TABLES):
        cache.clear()


def main(argv: list[str] | None = None) -> int:
    try:
        return _run(argv)
    finally:
        _release_caches()


def _run(argv: list[str] | None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.monotonic()
    try:
        _check_common(args)
        report = args.func(args)
    except ArgumentError as exc:
        print(f"gausslab: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceCapError as exc:
        print(f"gausslab: resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except GausslabError as exc:
        print(f"gausslab: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    _emit(_document(report, args), args)
    elapsed = time.monotonic() - t0
    print(
        f"gausslab: {args.command} finished in {elapsed:.2f}s (backend: {kernel_backend()})",
        file=sys.stderr,
    )
    return EXIT_OK if report.ok else EXIT_VIOLATION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
