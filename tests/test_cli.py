import gc
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
import weakref

import pytest

import gausslab
from gausslab import _accel, cli, converse, cyclo, digits, gauss, gl2, numth, padic
from gausslab.chars import MultChar
from gausslab.cli import EXIT_CONFIG, EXIT_OK, EXIT_RESOURCE, EXIT_VIOLATION, _literal_tensor_rhs_m1, main
from gausslab.converse import (
    counterexample_search,
    etale_signature_scan,
    lemma_suite,
    mersenne_check,
    primitive_scan,
    scan_converse,
)
from gausslab.ff import build_tower
from gausslab.gauss import tensor_gamma_rhs


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


# p = 2 (eta(-1) = 1), odd n, f = 2
@pytest.mark.parametrize("p,f,n", [(3, 1, 2), (5, 1, 2), (2, 1, 3), (3, 1, 3), (2, 2, 2)])
def test_tensor_rhs_m1_equals_the_literal_sum(p, f, n):
    T = build_tower(p, f, n)
    pairs = [(c, k) for c in range(T.mult_order) if MultChar(T, c).is_regular()
             for k in range(T.q - 1)]
    for c, k in pairs:
        assert tensor_gamma_rhs(T, n, 1, c, k) == _literal_tensor_rhs_m1(T, c, k)


@pytest.mark.parametrize("argv", [
    "--p 5 --n 2 --m 1 --chi-e 2 --eta-e 1",
    "--p 5 --n 2 --m 1 --chi-e -3 --eta-e 3",
    "--p 3 --n 3 --m 1 --chi-e 1 --eta-e 0",
    "--p 2 --f 2 --n 2 --m 1 --chi-e 7 --eta-e 2",
])
def test_tensor_rhs_m1_assertion_holds(capsys, argv):
    status, out, _ = run(capsys, "tensor-rhs", *argv.split())
    assert status == EXIT_OK
    assert [(a["name"], a["status"]) for a in json.loads(out)["assertions"]] == \
        [("m=1-consistency-with-gamma-formula", "pass")]


def test_scan_reads_keys_only(capsys, monkeypatch):
    # a scan decides equal sums from integer keys: it gets no ring, and its
    # tower never builds its power and log tables
    rings, towers = [], []
    get_ring = cyclo.get_ring
    monkeypatch.setattr(cyclo, "get_ring", lambda m: rings.append(m) or get_ring(m))

    def recording(*args, **kwargs):
        towers.append(build_tower(*args, **kwargs))
        return towers[-1]

    monkeypatch.setattr(cli, "build_tower", recording)
    status, _, _ = run(capsys, "scan", "--p", "3", "--n", "7")
    assert status == EXIT_OK and rings == []
    assert len(towers) == 1 and "exp_vec" not in vars(towers[0])


def test_etale_scan_reads_keys_only(capsys, monkeypatch):
    # the etale scan keys its products by integers: it gets no ring, and its
    # master tower, built for the stamp, never builds its power and log tables
    rings, towers = [], []
    get_ring = cyclo.get_ring
    monkeypatch.setattr(cyclo, "get_ring", lambda m: rings.append(m) or get_ring(m))

    def recording(*args, **kwargs):
        towers.append(build_tower(*args, **kwargs))
        return towers[-1]

    monkeypatch.setattr(converse, "build_tower", recording)
    status, _, _ = run(capsys, "etale-scan", "--p", "13", "--n", "2")
    assert status == EXIT_OK and rings == []
    assert len(towers) == 1 and "exp_vec" not in vars(towers[0])


@pytest.mark.parametrize("argv,classes", [
    ("etale-scan --p 5 --n 3", 100),  # master fields past the conductor cap
    ("etale-scan --p 7 --n 3", 294),
    ("etale-scan --p 3 --f 2 --n 3", 648),
])
def test_etale_scan_n3_under_the_default_caps(capsys, argv, classes):
    status, out, _ = run(capsys, *argv.split())
    result = json.loads(out)["result"]
    assert status == EXIT_OK
    assert (result["n_signature_classes"], result["n_divisors"]) == (classes, classes)


def test_gauss_reads_one_row(capsys, monkeypatch):
    # `gauss --e` computes the histogram of its own orbit alone: neither the
    # table's ids nor its whole S, which would compute every row
    rows = []
    gauss_counts = _accel.gauss_counts

    def counting(*args, exps, **kwargs):
        rows.append(len(exps))
        return gauss_counts(*args, exps=exps, **kwargs)

    monkeypatch.setattr(_accel, "gauss_counts", counting)
    status, _, _ = run(capsys, "gauss", "--p", "2", "--n", "10", "--e", "5")
    assert status == EXIT_OK and rows == [1]


@pytest.mark.parametrize("command", ["stickelberger", "gross-koblitz"])
def test_padic_sweeps_read_one_row(capsys, monkeypatch, command):
    # a single-exponent p-adic sweep embeds its own orbit's row and computes
    # no other: not the table's whole S
    rows = []
    gauss_counts = _accel.gauss_counts

    def counting(*args, exps, **kwargs):
        rows.append(len(exps))
        return gauss_counts(*args, exps=exps, **kwargs)

    monkeypatch.setattr(_accel, "gauss_counts", counting)
    status, _, _ = run(capsys, command, "--p", "3", "--n", "4", "--e", "5")
    assert status == EXIT_OK and rows == [1]


def test_the_cli_does_not_load_openssl():
    # importing hashlib loads OpenSSL's _hashlib, about 3.6 MB of RSS in
    # every CLI process; Gauss tables digest rows with the built-in hash
    src = os.path.dirname(os.path.dirname(gausslab.__file__))
    code = "import sys, gausslab.cli; sys.exit('_hashlib' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          timeout=60)
    assert proc.returncode == 0


def test_the_grouping_workflows_do_not_load_numpy_ma():
    # numpy 2's first plain np.unique (no return_* flag) imports numpy.ma,
    # about 9 ms and 1.6 MB of RSS in a fresh interpreter
    src = os.path.dirname(os.path.dirname(gausslab.__file__))
    code = ("import contextlib, io, sys\n"
            "from gausslab import cli\n"
            "for argv in ['scan --p 3 --n 6', 'counterexample --t 3', 'lemmas --p 3 --n 5',\n"
            "             'primitive-scan --p 3 --n 6 --r 2', 'etale-scan --p 5 --n 2']:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        cli.main(argv.split())\n"
            "sys.exit('numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, timeout=120)
    assert proc.returncode == 0


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


@pytest.mark.parametrize("argv", [
    "scan --p 2 --n 20000",  # p^d has more digits than an int may be printed with (4,300)
    "mersenne --n 20000",
    "gauss --p 2 --n 100000000 --e 1",
    "etale-scan --p 2 --n 12",  # master degree lcm(1..12) = 27,720
    "etale-scan --p 2 --n 30",  # p^lcm(1..30) does not fit in memory
    "counterexample --t 100",  # refused before factoring 3^100 + 1
    "field-info --p 1000000000000000003 --n 1",  # refused before trial division of p
])
def test_huge_fields_are_refused_by_the_element_cap(capsys, argv):
    start = time.perf_counter()
    status, out, err = run(capsys, *argv.split())
    assert time.perf_counter() - start < 1
    assert (status, out) == (EXIT_RESOURCE, "")
    assert "max_elements cap" in err and "^" in err


@pytest.mark.parametrize("argv,pairs", [
    ("scan --p 1021 --n 2", "531124200 orbit"),  # 520,710 orbits x 1020 twists
    ("primitive-scan --p 1021 --n 2 --r 2", "531124200 orbit"),
    ("lemmas --p 1021 --n 2", "1064331240 exponent"),
    # F_{61^6} is under the raised field-size cap: 666,180 characters x 60 twists
    ("etale-scan --p 61 --n 3 --max-elements 100000000000", "39970800 character"),
])
def test_groupings_past_the_twist_pair_cap_are_refused_at_once(capsys, argv, pairs):
    # F_{1021^2} is under the field-size cap; the pairs to key are not
    start = time.perf_counter()
    status, out, err = run(capsys, *argv.split())
    assert time.perf_counter() - start < 1
    assert (status, out) == (EXIT_RESOURCE, "")
    assert f"{pairs} x twist pairs exceed the twist-pair cap" in err


@pytest.mark.parametrize("argv,message", [
    # 4,114 orbits x 65,535 field elements; uncapped this sweep took 52 s
    ("stickelberger --p 2 --n 16",
     "4114 orbits x 65535 terms = 269610990 histogram terms exceed the histogram-term cap 16777216"),
    # a Gamma_p prefix table of 3^13 entries (70 MB) and int64 products past 3e9
    ("gross-koblitz --p 3 --n 2 --window 12", "comparison modulus 3^13 exceeds the window cap 1048576"),
])
def test_padic_sweeps_past_their_caps_are_refused_at_once(capsys, argv, message):
    start = time.perf_counter()
    status, out, err = run(capsys, *argv.split())
    assert time.perf_counter() - start < 1
    assert (status, out) == (EXIT_RESOURCE, "")
    assert message in err


@pytest.mark.parametrize("argv", ["stickelberger --p 2 --n 13", "gross-koblitz --p 3 --n 8 --window 1"])
def test_padic_sweeps_past_the_conductor_cap(capsys, argv):
    # m = 16,382 and 19,680: the sweeps build no Z[zeta_m] ring, so the
    # conductor cap does not bind on them, and their histogram terms (about
    # 5.2 and 5.5 million) are under the histogram-term cap
    start = time.perf_counter()
    status, out, _ = run(capsys, *argv.split())
    assert time.perf_counter() - start < 5
    assert status == EXIT_OK and json.loads(out)["result"]["failures"] == 0


def test_padic_sweep_builds_no_ring_and_no_gauss_table(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a p-adic sweep reached Z[zeta_m]")

    monkeypatch.setattr(cyclo, "get_ring", refuse)
    monkeypatch.setattr(gauss.GaussTable, "__init__", refuse)
    status, out, _ = run(capsys, *"stickelberger --p 3 --n 6".split())
    assert status == EXIT_OK and json.loads(out)["result"]["checked"] == 727


def test_gl2_caps_bind_before_primality(capsys, monkeypatch):
    # a q above --max-q is refused before any trial division of q
    def refuse(n):
        raise AssertionError(f"is_prime({n}) called")

    monkeypatch.setattr(numth, "is_prime", refuse)
    start = time.perf_counter()
    status, out, err = run(capsys, "gl2-check", "--q", "1000000000000000003", "--max-q", "7")
    assert time.perf_counter() - start < 1
    assert (status, out) == (EXIT_RESOURCE, "") and "max_q = 7" in err


def test_gl2_conductor_cap_binds_before_the_group(capsys):
    # F_{1031^2} is under the raised field-size cap, but the conductor
    # 1031 * (1031^2 - 1) is not: it is refused before the O(q^2) classes
    start = time.perf_counter()
    status, out, err = run(capsys, *"gl2-check --q 1031 --max-q 1031 --max-elements 2000000".split())
    assert time.perf_counter() - start < 1
    assert (status, out) == (EXIT_RESOURCE, "") and "conductor 1095911760" in err


@pytest.mark.parametrize(
    "flags", [["--use-cache"], ["--cache-dir", "x"], ["--jobs", "2"]], ids=lambda f: f[0][2:]
)
def test_removed_flags_are_refused(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["field-info", "--p", "3", "--n", "2", *flags])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv,message",
    [
        pytest.param(argv, message, id=argv)
        for argv, message in [
            ("etale-scan --p 3 --n 0", "degree n must be positive, got n=0"),
            ("etale-scan --p 3 --n -1", "degree n must be positive, got n=-1"),
            ("primitive-scan --p 3 --n 0 --r 2", "degree n must be positive, got n=0"),
            ("gross-koblitz --p 3 --n 2 --window -1", "window must be >= 0, got -1"),
            ("gross-koblitz --p 3 --n 2 --window -3", "window must be >= 0, got -3"),
            ("mersenne --n 1", "mersenne needs n >= 2, got n=1"),
            ("mersenne --n -1", "mersenne needs n >= 2, got n=-1"),
            ("scan --p 3 --n 2 --max-elements -1", "--max-elements must be positive, got -1"),
            ("field-info --p 3 --n 2 --max-elements 0", "--max-elements must be positive, got 0"),
        ]
    ],
)
def test_degenerate_sizes_are_refused(capsys, argv, message):
    status, out, err = run(capsys, *argv.split())
    assert (status, out) == (EXIT_CONFIG, "")
    assert f"invalid configuration: {message}" in err


def test_missing_output_directory_is_refused_before_the_work(capsys, tmp_path, monkeypatch):
    # exit 2, not a traceback after the whole report is computed
    monkeypatch.setattr("gausslab.cli.build_tower", lambda *a, **k: pytest.fail("the handler ran"))
    target = tmp_path / "missing" / "r.json"
    status, out, err = run(capsys, "field-info", "--p", "3", "--n", "2", "--output", str(target))
    assert (status, out) == (EXIT_CONFIG, "")
    assert f"invalid configuration: output directory {tmp_path / 'missing'} is missing" in err
    assert not target.parent.exists()


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
    ("hasse-davenport --p 13 --m 2", 0,
     "c6a0cdc58b57c1e3f6bae97d63ebcebcc2704ba2e0638c99dcc81c420c8e40bf"),
    ("hasse-davenport --p 3 --f 2 --m 3", 0,
     "f2ce281e8f623916d532f67f7a0913428ab0afc2ab661d301ccde2af20aedeef"),
    ("gauss --p 2 --n 12 --e 5", 0,
     "0e66b55de8523972f99f39a8446086cd6a0fb5bdbe44de22b6ee20530cd677cc"),
    ("scan --p 3 --n 7", 0,
     "13b1e32a3c5ee343134bab033e370fbc3705cbaa1d506b52817da8bb7c5dd413"),
    ("tensor-rhs --p 3 --n 3 --m 2 --chi-e 1 --eta-e 1", 0,
     "95f4f809f5ec06a44a0dcb544c41a37b67d3398234f349640a8b99e99c364cff"),
    ("tensor-rhs --p 5 --n 2 --m 1 --chi-e 1 --eta-e 1", 0,
     "6050941e9c1a380626ad7f07389e2218c6a854c0425406e3a3a294a648f838a6"),
    ("etale-scan --p 3 --f 2 --n 2", 0,
     "a6bd2fda3053c9346e8f41101cae3495e3db19ccd88a8b1e9c54fe05ac49b417"),
    ("etale-scan --p 2 --f 2 --n 2", 0,
     "a41f2e201ac0b269714ea1012d45d6b1df664623d499aebe5387eb245398676e"),
    ("stickelberger --p 2 --n 1", 0,
     "13337c0be850bf4ee6b10d6f070f78e9020266dc362395ac03e0108f1e596b59"),
    ("gross-koblitz --p 2 --n 1 --window 0", 0,
     "59aa0cbbf37a77bb311f5ccbfceeeae667e04e36256296adeb730e198aa9c544"),
    ("stickelberger --p 7 --n 3", 0,
     "2c78de3fb5656899ae82f117ce0b916bd6ff02e2957015a76c0ca73895607b27"),
    ("gross-koblitz --p 5 --n 3 --window 1", 0,
     "a4d1b7403359b825330026fc7cd9fe1c528171091b4b86d710d621e4f2f47c37"),
    ("stickelberger --p 3 --n 4 --e 5", 0,
     "975938c577b430bb687105aa7358c12a5a22243c44de24ac5c08636badf7808f"),
    ("gross-koblitz --p 3 --n 3 --e 4 --window 1", 0,
     "78dae7269dc4ec62b9542c218a8fcfcedda08e84fd88846d8b66e84d6a2923fa"),
    # window + 1 > n + 1: a Teichmueller lift right only mod p^(n+1) fails here
    ("gross-koblitz --p 5 --n 2 --window 4", 0,
     "219cb9feefcf0119d3bd56d0ae1189a6e691ec0e5ab88edec32a960255ecb5a5"),
    # m = 8190 = 2 * 3^2 * 5 * 7 * 13, m = 3120 (with 2^4), m = 6840, and f = 2
    ("scan --p 2 --n 12 --expect-collisions", 0,
     "085ab7ded2011ccfce768add3416cacab6e406a49fdf31564a7cf64a6a5dbbc1"),
    ("scan --p 5 --n 4", 0,
     "8aba697fe238109ae9c8d41915742292da1787190d3a7a445a940b7ed014fac9"),
    ("scan --p 19 --n 2 --population all", 0,
     "65ea3df1959fe6bd435b5ade2c602d8d6fbdb3f759ffcafe804895b0430243b4"),
    ("scan --p 5 --f 2 --n 2 --population all", 0,
     "8fc9491be834e74de1299a7695f2d137420946528bc456163865429c3cc062cc"),
    # S read from tables built in several row blocks: m = 6558, m = 4094
    ("gauss --p 3 --n 7 --e 5", 0,
     "94bf636f587d8b37f099e2588e6bba0c93e5a7da27b1885ffb69874895615cc4"),
    ("gauss --p 2 --n 11 --e 3", 0,
     "0d154c0c0ca1cb4175c2df6a4406108458ecc41ede735670ebd3ec199a2c779f"),
]


@pytest.mark.parametrize(
    "argv,exit_code,digest", PINNED_REPORTS, ids=[p[0] for p in PINNED_REPORTS]
)
def test_report_bytes_pinned(capsys, argv, exit_code, digest):
    status, out, _ = run(capsys, *argv.split())
    assert (status, hashlib.sha256(out.encode()).hexdigest()) == (exit_code, digest)


@pytest.mark.parametrize("argv", ["stickelberger --p 2 --n 1",
                                  "gross-koblitz --p 2 --n 1 --window 0"])
def test_vacuous_padic_sweep_is_inconclusive(capsys, argv):
    # F_2 has no nontrivial character: nothing was checked, so nothing passed
    status, out, _ = run(capsys, *argv.split())
    assert status == EXIT_OK
    doc = json.loads(out)
    assert doc["result"]["checked"] == 0
    assert [(a["status"], a["witness"]) for a in doc["assertions"]] == \
        [("inconclusive", {"reason": "no nontrivial character"})]


def test_main_leaves_few_reference_cycles(capsys):
    argv = ["field-info", "--p", "3", "--n", "2"]
    first = run(capsys, *argv)
    gc.collect()
    gc.disable()
    try:
        runs = [run(capsys, *argv) for _ in range(5)]
        found = gc.collect()
    finally:
        gc.enable()
    assert runs == [first] * 5
    assert found < 100  # a fresh argparse parser per call left about 795


@pytest.mark.parametrize("argv,exit_code", [
    ("gross-koblitz --p 3 --n 3 --window 2", EXIT_OK),  # embedding, factorials
    ("gl2-check --q 3", EXIT_OK),  # the GL2 group and its tower, in no cache
    ("scan --p 3 --n 6", EXIT_VIOLATION),  # collisions not expected
    ("tensor-rhs --p 3 --n 2 --m 1 --chi-e 0 --eta-e 1", EXIT_CONFIG),  # refused after its table
    ("gauss --p 3 --n 8 --e 1", EXIT_RESOURCE),  # the conductor cap, after the tower
])
def test_every_exit_path_releases_the_caches(capsys, monkeypatch, argv, exit_code):
    towers = []

    def recording(*args, **kwargs):
        tower = build_tower(*args, **kwargs)
        towers.append(weakref.ref(tower))
        return tower

    for module in (cli, gl2):
        monkeypatch.setattr(module, "build_tower", recording)
    caches = (cyclo._RING_CACHE, gauss._TABLE_CACHE, padic._EMBED_CACHE, digits._PRIME_FREE_TABLES)
    for cache in caches:
        cache[-1] = None  # what earlier calls left goes too
    assert run(capsys, *argv.split())[0] == exit_code
    assert [len(cache) for cache in caches] == [0] * len(caches)
    gc.collect()
    assert towers and [ref() for ref in towers] == [None] * len(towers)


def test_successive_scans_retain_little(capsys):
    argv = ["scan --p 2 --n 10 --expect-collisions", "scan --p 3 --n 6 --expect-collisions"]
    run(capsys, *argv[0].split())  # the parser and lazy imports are built once per process
    gc.collect()
    tracemalloc.start()
    try:
        assert [run(capsys, *a.split())[0] for a in argv] == [EXIT_OK, EXIT_OK]
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 1 << 18  # the two tables alone hold 1.1 MiB
