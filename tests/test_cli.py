import json

import pytest

from gausslab.cli import EXIT_CONFIG, EXIT_OK, EXIT_RESOURCE, EXIT_VIOLATION, main
from gausslab.converse import (
    counterexample_search,
    etale_signature_scan,
    lemma_suite,
    mersenne_check,
    primitive_scan,
    scan_converse,
)
from gausslab.ff import build_tower


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def test_scan_pass(capsys):
    status, out, err = run(capsys, "scan", "--p", "3", "--n", "4")
    assert status == EXIT_OK
    doc = json.loads(out)
    assert doc["result"]["collision_classes"] == []
    assert {a["name"]: a["status"] for a in doc["assertions"]}[
        "signature-separates-orbits"
    ] == "pass"
    assert doc["meta"]["version"]
    assert "finished in" in err


def test_scan_collision_exit_codes(capsys):
    status, out, _ = run(capsys, "scan", "--p", "3", "--n", "6")
    assert status == EXIT_VIOLATION
    doc = json.loads(out)
    assert [26, 130] in doc["result"]["collision_classes"]
    status, out, _ = run(capsys, "scan", "--p", "3", "--n", "6", "--expect-collisions")
    assert status == EXIT_OK
    doc = json.loads(out)
    statuses = [a["status"] for a in doc["assertions"]]
    assert "expected" in statuses


def test_expected_collisions_but_none_found(capsys):
    status, out, _ = run(capsys, "scan", "--p", "3", "--n", "4", "--expect-collisions")
    assert status == EXIT_VIOLATION


def test_invalid_config_exit(capsys):
    status, _, err = run(capsys, "scan", "--p", "4", "--n", "2")
    assert status == EXIT_CONFIG and "not prime" in err


def test_resource_cap_exit(capsys):
    status, _, err = run(capsys, "scan", "--p", "2", "--n", "25")
    assert status == EXIT_RESOURCE and "cap" in err


def test_report_determinism(capsys, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["mersenne", "--n", "5", "--output", str(p1)]) == EXIT_OK
    capsys.readouterr()
    assert main(["mersenne", "--n", "5", "--output", str(p2)]) == EXIT_OK
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_output(capsys):
    status, out, _ = run(
        capsys, "scan", "--p", "3", "--n", "6", "--format", "csv", "--expect-collisions"
    )
    assert status == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "orbit_rep,class_index,class_size"
    assert any(line.startswith("26,") for line in lines)


def test_field_info_and_gauss(capsys):
    status, out, _ = run(capsys, "field-info", "--p", "3", "--n", "2")
    assert status == EXIT_OK
    doc = json.loads(out)
    assert doc["result"]["stamp"]["generator"] == 4
    status, out, _ = run(capsys, "gauss", "--p", "3", "--n", "2", "--e", "0")
    doc = json.loads(out)
    assert doc["result"]["canonical_coefficients"] == {"0": -1}
    assert abs(doc["result"]["complex_value"][0] + 1) < 1e-9


def test_stickelberger_and_gross_koblitz_commands(capsys):
    status, out, _ = run(capsys, "stickelberger", "--p", "3", "--n", "2")
    assert status == EXIT_OK
    assert json.loads(out)["result"]["failures"] == 0
    status, out, _ = run(capsys, "gross-koblitz", "--p", "3", "--n", "2", "--window", "2")
    assert status == EXIT_OK


def test_counterexample_command(capsys):
    status, out, _ = run(capsys, "counterexample", "--t", "3")
    assert status == EXIT_OK
    doc = json.loads(out)
    assert doc["result"]["family_sum_values"] == [-27]


def test_gl2_command(capsys):
    status, out, _ = run(capsys, "gl2-check", "--q", "3")
    assert status == EXIT_OK
    assert json.loads(out)["result"]["pairs_checked"] == 6


def test_hasse_davenport_command(capsys):
    status, out, _ = run(capsys, "hasse-davenport", "--p", "3", "--m", "2")
    assert status == EXIT_OK


def test_tensor_rhs_command(capsys):
    status, out, _ = run(
        capsys, "tensor-rhs", "--p", "3", "--n", "2", "--m", "1",
        "--chi-e", "1", "--eta-e", "1",
    )
    assert status == EXIT_OK
    doc = json.loads(out)
    assert doc["assertions"][0]["status"] == "pass"


def test_etale_scan_command(capsys):
    status, out, _ = run(capsys, "etale-scan", "--p", "5", "--n", "2")
    assert status == EXIT_OK


def _case(case_id, argv, library, exit_code):
    return pytest.param(argv, library, exit_code, id=case_id)


@pytest.mark.parametrize(
    "argv,library,exit_code",
    [
        _case("3", "etale-scan --p 3 --n 2", lambda: etale_signature_scan(3, 1, 2), EXIT_OK),
        _case("13", "etale-scan --p 13 --n 2", lambda: etale_signature_scan(13, 1, 2), EXIT_OK),
        _case("scan-3-4", "scan --p 3 --n 4", lambda: scan_converse(build_tower(3, 1, 4)), EXIT_OK),
        _case(
            "scan-3-6", "scan --p 3 --n 6", lambda: scan_converse(build_tower(3, 1, 6)),
            EXIT_VIOLATION,
        ),
        _case(
            "primitive-scan-2-6-3",
            "primitive-scan --p 2 --n 6 --r 3",
            lambda: primitive_scan(2, 1, 6, 3),
            EXIT_VIOLATION,
        ),
        _case(
            "counterexample-3", "counterexample --t 3", lambda: counterexample_search(3), EXIT_OK
        ),
        _case("mersenne-5", "mersenne --n 5", lambda: mersenne_check(5), EXIT_OK),
        _case(
            "lemmas-3-4", "lemmas --p 3 --n 4", lambda: lemma_suite(build_tower(3, 1, 4)), EXIT_OK
        ),
    ],
)
def test_etale_scan_ok_agrees_with_exit_code(capsys, argv, library, exit_code):
    rep = library()
    status, out, _ = run(capsys, *argv.split())
    assert status == exit_code and rep.ok == (exit_code == EXIT_OK)
    statuses = {a["name"]: a["status"] for a in json.loads(out)["assertions"]}
    assertions = rep.assertions() if callable(rep.assertions) else rep.assertions
    assert statuses == {a.name: a.status for a in assertions}
    if argv.startswith("etale-scan"):
        # q = 3 misses the appendix bound: one assertion is inconclusive, none fails
        assert ("inconclusive" in statuses.values()) == (argv == "etale-scan --p 3 --n 2")


@pytest.mark.parametrize(
    "argv",
    [
        "counterexample --t 3 --max-elements 100",
        "etale-scan --p 5 --n 2 --max-elements 10",
        "primitive-scan --p 2 --n 6 --r 3 --max-elements 10",
    ],
)
def test_max_elements_reaches_library_towers(capsys, argv):
    status, _, err = run(capsys, *argv.split())
    assert status == EXIT_RESOURCE and "max_elements cap" in err


@pytest.mark.parametrize(
    "flags", [["--use-cache"], ["--cache-dir", "x"], ["--jobs", "2"]], ids=lambda f: f[0][2:]
)
def test_removed_flags_are_refused(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["field-info", "--p", "3", "--n", "2", *flags])
    assert exc.value.code == 2


def test_primitive_scan_command(capsys):
    status, out, _ = run(
        capsys, "primitive-scan", "--p", "2", "--n", "6", "--r", "3", "--expect-collisions"
    )
    assert status == EXIT_OK


def test_lemmas_command(capsys):
    status, out, _ = run(capsys, "lemmas", "--p", "3", "--n", "4")
    assert status == EXIT_OK
    doc = json.loads(out)
    assert all(l["pairs_tested"] > 0 for l in doc["result"]["lemmas"])

