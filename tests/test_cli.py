import hashlib
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
    doc = json.loads(out)
    statuses = {a["name"]: a["status"] for a in doc["assertions"]}
    assert statuses == {a.name: a.status for a in rep.assertions}
    doc["result"].pop("csv_rows", None)  # scan presentation, added by the CLI
    assert doc["result"] == rep.result
    if argv.startswith("etale-scan"):
        # q = 3 misses the appendix bound: one assertion is inconclusive, none fails
        assert ("inconclusive" in statuses.values()) == (argv == "etale-scan --p 3 --n 2")


@pytest.mark.parametrize(
    "argv",
    [
        "counterexample --t 3 --max-elements 100",
        "etale-scan --p 5 --n 2 --max-elements 10",
        "primitive-scan --p 2 --n 6 --r 3 --max-elements 10",
        "mersenne --n 7 --max-elements 10",
        "gl2-check --q 5 --max-elements 10",
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


# Exit code and SHA-256 of the full stdout (meta included) of small command
# lines covering every subcommand, pass and fail cases alike.  Any change to
# the bytes of a report shows here.
PINNED_REPORTS = [
    ("field-info --p 3 --n 2", 0,
     "947f062bcba0e50324afd3a921941c6f38e64fcfedca8901851fb7daa3f37843"),
    ("gauss --p 3 --n 2 --e 1", 0,
     "b8003000b572c4de1e10b686668ab5b6ed67f255297ef34a5660e2db8d5e7c74"),
    ("scan --p 3 --n 4", 0,
     "739d16dbc04780c46c7965128b2755061934c62624476a240b94a78e5d95dfc2"),
    ("scan --p 3 --n 4 --expect-collisions", 1,
     "dddba55f01ce333bd948fb3df03b164e95ff6d25993afa44a261757944d03f4b"),
    ("scan --p 3 --n 6", 1,
     "6c3715f178c05fa93a81d3de55c3f69758c46ec17f8be59772be834b9f534440"),
    ("scan --p 3 --n 6 --expect-collisions", 0,
     "0b65ebd8e5ac930bdd0f74e0ebe04be51c7b054cc3a58b4445ec8abec9fa0b38"),
    ("scan --p 3 --n 6 --expect-collisions --format csv", 0,
     "c86d381cd412b14444b272b9293e029ba68db050696b0858747ee30b1fe79aa0"),
    ("scan --p 4 --n 2", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("primitive-scan --p 2 --n 6 --r 3", 1,
     "35d139c26311df6f8f9c43636be521139285a37febe06d78bf40ea1115218a2f"),
    ("primitive-scan --p 2 --n 6 --r 3 --expect-collisions", 0,
     "4ef570e5702723813c065ab85010e038537f9e7f2cf8ce873729dcdd9add8928"),
    ("lemmas --p 3 --n 4", 0,
     "dde68d9aa7e7d093e1bab2b51e532610a362addef8d3dc0cc1e743ab12638380"),
    ("stickelberger --p 3 --n 2", 0,
     "920cca08fce350d316f2998d050730ca9997000958c656ebc9d1f7bb0fd2f59d"),
    ("gross-koblitz --p 3 --n 2 --window 2", 0,
     "bd9912dbed3e7e93b93bfea41ac62826e9d4e95e570e2dc0c7c23e64d1c98c32"),
    ("counterexample --t 2", 1,
     "987f89b3bdb8bc92f756fc23e5e8caa5de2cc72c29f56fab7a859ee337b81f81"),
    ("counterexample --t 3", 0,
     "d124d8489c8e5cf36dd3c07c9e6efd21de9680f91ea09664228d47b772cea1e8"),
    ("mersenne --n 5", 0,
     "6c1f211c081f091b216e95436bbe103b2b2e94ee09382eb4ff62dca249e985db"),
    ("gl2-check --q 3", 0,
     "2a6a639d1403cd0f19c0ae486a649a4b3cac52eb026b9ee6d9839876ef86634c"),
    ("tensor-rhs --p 3 --n 2 --m 1 --chi-e 1 --eta-e 1", 0,
     "8231232612e61af2f41c4dea502d3148f04aebce828dc5f5b05d3241e923c52e"),
    ("hasse-davenport --p 3 --m 2", 0,
     "f0ffe4a39b354919066a4a745fe2a981745046b4eb824ec68edefa6fbe7eef42"),
    ("etale-scan --p 3 --n 2", 0,
     "2203e1bacadd2475c29b657c0f8c180f58076002dc205c7c573a02b7281cf650"),
    ("etale-scan --p 5 --n 2", 0,
     "87d1e89d5790c2a3991e24d2d94cf28364dae4e7b36c17e5763d377e74455ecd"),
    ("etale-scan --p 3 --n 3", 0,
     "9d376722876a6a0a95eb0aff6eaf119a2f184e4061d798232dba272ac5e704ff"),
    ("etale-scan --p 2 --n 4", 0,
     "68f0b77e871dadf6bccff4ad142cc03fa982936d830a13edaaf3ca7ffd02c846"),
    ("etale-scan --p 7 --n 2", 0,
     "33fae558251715e05afe61de20fff0d3285625d3a710b7cc0c89a401692ef5a6"),
    ("hasse-davenport --p 2 --m 4", 0,
     "0d205277f2f0ec5b13eddc35ad8150cee7feb5187d6e051d5d1fd397a858fa0e"),
    ("stickelberger --p 3 --n 3", 0,
     "022eff5db1012e43d68322ac631192413aa50e9d6d8fe4833c2399746b666449"),
    ("gauss --p 3 --f 2 --n 2 --e 7", 0,
     "789f5c95a5e9732ddc40f789589fdb44bff04554915a18eaab5dd2ec96cf660a"),
    ("tensor-rhs --p 2 --n 3 --m 2 --chi-e 1 --eta-e 1", 0,
     "8fb63babdd9134cef14513fd6f0f81b2f52a08a5d4a8087778f037bdb21ce616"),
]


@pytest.mark.parametrize(
    "argv,exit_code,digest", PINNED_REPORTS, ids=[p[0] for p in PINNED_REPORTS]
)
def test_report_bytes_pinned(capsys, argv, exit_code, digest):
    status, out, _ = run(capsys, *argv.split())
    assert (status, hashlib.sha256(out.encode()).hexdigest()) == (exit_code, digest)
