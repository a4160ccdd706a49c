import json

import pytest

from gausslab.cli import EXIT_CONFIG, EXIT_OK, EXIT_RESOURCE, EXIT_VIOLATION, main
from gausslab.converse import etale_signature_scan


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


@pytest.mark.parametrize("p", [3, 13])
def test_etale_scan_ok_agrees_with_exit_code(capsys, p):
    rep = etale_signature_scan(p, 1, 2)
    status, out, _ = run(capsys, "etale-scan", "--p", str(p), "--n", "2")
    assert status == (EXIT_OK if rep.ok else EXIT_VIOLATION)
    statuses = {a["name"]: a["status"] for a in json.loads(out)["assertions"]}
    assert statuses == {a.name: a.status for a in rep.assertions}
    # q = 3 misses the appendix bound: one assertion is inconclusive, none fails
    assert rep.ok and ("inconclusive" in statuses.values()) == (p == 3)


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


def test_cache_flag(capsys, tmp_path):
    status, _, _ = run(
        capsys, "field-info", "--p", "3", "--n", "3",
        "--use-cache", "--cache-dir", str(tmp_path),
    )
    assert status == EXIT_OK
    assert (tmp_path / "tower_p3_f1_n3.npz").exists()
