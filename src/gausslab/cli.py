"""Command-line surface: one subcommand per verification workflow, JSON/CSV
reports with embedded convention stamps, deterministic byte output.

Report schema: {"meta": {...}, "result": {...}, "assertions": [{name,
status, witness?}]}. Identical configuration produces byte-identical
reports; wall-clock timings go to stderr only.

Exit status: 0 all asserted properties held (or were expected, see
--expect-collisions), 1 property violation, 2 invalid configuration,
3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
import time

from . import __version__, converse, cyclo, gl2
from .chars import MultChar
from .errors import ArgumentError, GausslabError, ResourceCapError
from .ff import DEFAULT_MAX_ELEMENTS, build_tower
from .gauss import gamma_n_by_1, gauss_S, gauss_table, hasse_davenport_check, tensor_gamma_rhs
from .padic import gross_koblitz_check, stickelberger_check

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3


def kernel_backend() -> str:
    """The kernels' backend, named in the stderr timing line: always numpy."""
    return "numpy"


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in sorted(x) if True] if isinstance(x, (set, frozenset)) else [
            _jsonable(v) for v in x
        ]
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return _jsonable(dataclasses.asdict(x))
    if isinstance(x, bool) or x is None or isinstance(x, (int, float, str)):
        return x
    return str(x)


def _assertion_dicts(assertions) -> list[dict]:
    out = []
    for a in assertions:
        d = {"name": a.name, "status": a.status}
        if a.witness is not None:
            d["witness"] = _jsonable(a.witness)
        out.append(d)
    return out


def _emit(report: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        rows = report.get("result", {}).get("csv_rows")
        if rows:
            writer.writerow(rows[0])
            writer.writerows(rows[1:])
        writer.writerow(["assertion", "status"])
        for a in report.get("assertions", []):
            writer.writerow([a["name"], a["status"]])
        text = buf.getvalue()
    if args.output and args.output != "-":
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _status_from(assertions: list[dict]) -> int:
    return EXIT_OK if converse.statuses_ok(a["status"] for a in assertions) else EXIT_VIOLATION


def _meta(args, extra: dict | None = None) -> dict:
    cfg = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "output") and v is not None
    }
    meta = {"tool": "gausslab", "version": __version__, "config": _jsonable(cfg)}
    if extra:
        meta.update(_jsonable(extra))
    return meta


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (report dict, exit status)


def _cmd_field_info(args):
    tower = build_tower(args.p, args.f, args.n, max_elements=args.max_elements)
    stamp = converse.convention_stamp(tower)
    result = {
        "order": tower.order,
        "mult_order": tower.mult_order,
        "q": tower.q,
        "stamp": stamp,
        "num_regular_characters": sum(
            1 for e in range(tower.mult_order) if MultChar(tower, e).is_regular()
        ),
    }
    report = {"meta": _meta(args), "result": result, "assertions": []}
    return report, EXIT_OK


def _cmd_gauss(args):
    tower = build_tower(args.p, args.f, args.n, max_elements=args.max_elements)
    c = MultChar(tower, args.e)
    s = gauss_S(c)
    val, err = s.embed_complex(digits=15)
    result = {
        "exponent": c.e,
        "regular": c.is_regular(),
        "order": c.order,
        "conductor": s.ring.m,
        "canonical_coefficients": {str(k): int(v) for k, v in enumerate(s.coeffs) if v},
        "complex_value": [val.real, val.imag],
        "complex_error_bound": err,
        "stamp": converse.convention_stamp(tower),
    }
    report = {"meta": _meta(args), "result": result, "assertions": []}
    return report, EXIT_OK


def _scan_to_report(rep: converse.ScanReport, args, expect_collisions: bool):
    assertions = _assertion_dicts(rep.assertions)
    if expect_collisions:
        for a in assertions:
            if a["name"] in (
                "signature-separates-orbits",
                "intermediate-twist-signature-separates-primitive-orbits",
            ):
                a["status"] = "expected" if a["status"] == "fail" else "fail"
                a["name"] += " (collisions expected)"
    csv_rows = [["orbit_rep", "class_index", "class_size"]]
    for idx, cls in enumerate(rep.collision_classes):
        for e in cls:
            csv_rows.append([e, idx, len(cls)])
    result = {
        "kind": rep.kind,
        "population": rep.population,
        "equivalence": rep.equivalence,
        "n_orbits": rep.n_orbits,
        "n_classes": rep.n_classes,
        "collision_classes": rep.collision_classes,
        "stamp": rep.stamp,
        "csv_rows": csv_rows,
    }
    report = {"meta": _meta(args), "result": result, "assertions": assertions}
    return report, _status_from(assertions)


def _cmd_scan(args):
    tower = build_tower(args.p, args.f, args.n, max_elements=args.max_elements)
    rep = converse.scan_converse(tower, population=args.population)
    return _scan_to_report(rep, args, args.expect_collisions)


def _cmd_primitive_scan(args):
    rep = converse.primitive_scan(args.p, args.f, args.n, args.r, max_elements=args.max_elements)
    return _scan_to_report(rep, args, args.expect_collisions)


def _cmd_lemmas(args):
    tower = build_tower(args.p, 1, args.n, max_elements=args.max_elements)
    rep = converse.lemma_suite(tower)
    assertions = _assertion_dicts(rep.assertions())
    result = {
        "p": rep.p,
        "n": rep.n,
        "stamp": rep.stamp,
        "lemmas": [
            {
                "name": r.name,
                "pairs_tested": r.pairs_tested,
                "cross_orbit_pairs": r.cross_orbit_pairs,
                "status": r.status,
            }
            for r in rep.results
        ],
    }
    report = {"meta": _meta(args), "result": result, "assertions": assertions}
    return report, _status_from(assertions)


def _cmd_stickelberger(args):
    tower = build_tower(args.p, 1, args.n, max_elements=args.max_elements)
    exponents = [args.e] if args.e is not None else range(1, tower.mult_order)
    failures = []
    checked = 0
    for e in exponents:
        r = stickelberger_check(tower, e)
        checked += 1
        if not r.ok:
            failures.append({"e": e, "measured": r.measured_valuation, "expected": r.s})
    assertions = [
        {
            "name": "valuation-equals-digit-sum-and-unit-congruence",
            "status": "pass" if not failures else "fail",
            **({"witness": {"failures": failures[:10]}} if failures else {}),
        }
    ]
    result = {
        "checked": checked,
        "failures": len(failures),
        "stamp": converse.convention_stamp(tower),
    }
    return {"meta": _meta(args), "result": result, "assertions": assertions}, _status_from(assertions)


def _cmd_gross_koblitz(args):
    tower = build_tower(args.p, 1, args.n, max_elements=args.max_elements)
    exponents = [args.e] if args.e is not None else range(1, tower.mult_order)
    failures = []
    checked = 0
    for e in exponents:
        r = gross_koblitz_check(tower, e, args.window)
        checked += 1
        if not r.ok:
            failures.append({"e": e, "routes_agree": r.routes_agree, "identity": r.identity_ok})
    assertions = [
        {
            "name": "gamma-product-identity-both-routes",
            "status": "pass" if not failures else "fail",
            **({"witness": {"failures": failures[:10]}} if failures else {}),
        }
    ]
    result = {
        "checked": checked,
        "window": args.window,
        "failures": len(failures),
        "stamp": converse.convention_stamp(tower),
    }
    return {"meta": _meta(args), "result": result, "assertions": assertions}, _status_from(assertions)


def _cmd_counterexample(args):
    rep = converse.counterexample_search(args.t, p=args.p, max_elements=args.max_elements)
    assertions = _assertion_dicts(rep.assertions)
    result = {
        "p": rep.p,
        "t": rep.t,
        "n": rep.n,
        "feasible": rep.feasible,
        "phi(p^t+1)": rep.phi_value,
        "family_orbit_reps": rep.family_orbit_reps,
        "family_sum_values": rep.family_sum_values,
        "expected_value": rep.expected_value,
        "colliding_orbit_classes": rep.colliding_orbit_pairs,
        "stamp": rep.stamp,
    }
    return {"meta": _meta(args), "result": result, "assertions": assertions}, _status_from(assertions)


def _cmd_mersenne(args):
    rep = converse.mersenne_check(args.n)
    assertions = _assertion_dicts(rep.assertions)
    result = {
        "n": rep.n,
        "N": rep.N,
        "n_orbits": rep.n_orbits,
        "coset_representatives": rep.coset_reps,
        "spectra_injective": rep.spectra_injective,
    }
    return {"meta": _meta(args), "result": result, "assertions": assertions}, _status_from(assertions)


def _cmd_gl2_check(args):
    group = gl2.gl2_group(args.q, max_q=args.max_q)
    mismatches = []
    n_checked = 0
    for e in range(group.tower.mult_order):
        c = MultChar(group.tower, e)
        if not c.is_regular() or c.orbit_rep() != e:
            continue
        pi = gl2.CuspidalCharacter(group, c)
        for k in range(args.q - 1):
            n_checked += 1
            if gl2.gamma_via_bessel(pi, k) != gamma_n_by_1(c, k):
                mismatches.append({"e": e, "k": k})
    assertions = [
        {
            "name": "bessel-gamma-equals-gauss-sum-gamma",
            "status": "pass" if not mismatches else "fail",
            **({"witness": {"mismatches": mismatches[:10]}} if mismatches else {}),
        },
        {"name": "character-validation-gates", "status": "pass"},
    ]
    result = {
        "q": args.q,
        "pairs_checked": n_checked,
        "stamp": converse.convention_stamp(group.tower),
    }
    return {"meta": _meta(args), "result": result, "assertions": assertions}, _status_from(assertions)


def _cmd_tensor_rhs(args):
    chi_tower = build_tower(args.p, args.f, args.n, max_elements=args.max_elements)
    eta_tower = build_tower(args.p, args.f, args.m, max_elements=args.max_elements)
    big = build_tower(args.p, args.f, args.n * args.m, max_elements=args.max_elements)
    chi = MultChar(chi_tower, args.chi_e)
    eta = MultChar(eta_tower, args.eta_e)
    val = tensor_gamma_rhs(chi, eta, big_tower=big)
    result = {
        "value_conductor": val.num.ring.m,
        "value_coefficients": {str(k): int(v) for k, v in enumerate(val.num.coeffs) if v},
        "q_power": val.power,
        "stamp": converse.convention_stamp(big),
    }
    assertions = []
    if args.m == 1:
        direct = gamma_n_by_1(chi, args.eta_e % (chi_tower.q - 1))
        assertions.append(
            {
                "name": "m=1-consistency-with-gamma-formula",
                "status": "pass" if direct == val else "fail",
            }
        )
    report = {"meta": _meta(args), "result": result, "assertions": assertions}
    return report, _status_from(assertions)


def _cmd_hasse_davenport(args):
    tower = build_tower(args.p, args.f, args.m, max_elements=args.max_elements)
    q = tower.q
    exponents = [args.e] if args.e is not None else range(q - 1)
    failures = [c for c in exponents if not hasse_davenport_check(tower, c)]
    assertions = [
        {
            "name": "lifting-relation",
            "status": "pass" if not failures else "fail",
            **({"witness": {"failing_exponents": failures[:10]}} if failures else {}),
        }
    ]
    result = {
        "q": q,
        "lift_degree": args.m,
        "checked": len(list(exponents)),
        "stamp": converse.convention_stamp(tower),
    }
    return {"meta": _meta(args), "result": result, "assertions": assertions}, _status_from(assertions)


def _cmd_etale_scan(args):
    rep = converse.etale_signature_scan(args.p, args.f, args.n, max_elements=args.max_elements)
    assertions = _assertion_dicts(rep.assertions)
    result = {
        "p": rep.p,
        "f": rep.f,
        "n": rep.n,
        "master_degree": rep.master_degree,
        "bound_satisfied": rep.bound_satisfied,
        "n_characters": rep.n_characters,
        "n_signature_classes": rep.n_signature_classes,
        "n_divisors": rep.n_divisors,
        "stamp": rep.stamp,
    }
    return {"meta": _meta(args), "result": result, "assertions": assertions}, _status_from(assertions)


# ---------------------------------------------------------------------------


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
    sp.add_argument("--chi-e", type=int, required=True)
    sp.add_argument("--eta-e", type=int, required=True)
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.monotonic()
    try:
        report, status = args.func(args)
    except ArgumentError as exc:
        print(f"gausslab: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceCapError as exc:
        print(f"gausslab: resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except GausslabError as exc:
        print(f"gausslab: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    _emit(report, args)
    elapsed = time.monotonic() - t0
    print(
        f"gausslab: {args.command} finished in {elapsed:.2f}s (backend: {kernel_backend()})",
        file=sys.stderr,
    )
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
