"""Self-tests of the benchmark harness: `python3 -m pytest perfbench -q`."""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import gausslab.cli  # noqa: E402
import gausslab.gauss  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

FAST_JOBS = ["hasse-davenport --p 3 --m 3", "tensor-rhs --p 3 --n 2 --m 1 --chi-e 1 --eta-e 1"]


def _job(line):
    return workloads.Job(id=line, argv=tuple(line.split()))


def test_recorded_digest_passes_and_wrong_digest_fails():
    expected = workloads.load_expected()
    job = _job(FAST_JOBS[0])
    assert workloads.run_job(job, gausslab.cli.main, expected)["ok"]
    tampered = dict(expected)
    tampered[job.id] = {"exit": 0, "sha256": "0" * 64}
    assert not workloads.run_job(job, gausslab.cli.main, tampered)["ok"]


def test_wrong_exit_code_and_unknown_job_fail():
    expected = workloads.load_expected()
    job = _job(FAST_JOBS[0])
    wrong_exit = dict(expected)
    wrong_exit[job.id] = dict(expected[job.id], exit=1)
    assert not workloads.run_job(job, gausslab.cli.main, wrong_exit)["ok"]
    assert not workloads.run_job(_job("gauss --p 3 --n 2 --e 1"), gausslab.cli.main, expected)["ok"]


def test_library_job_checks_identities():
    samples = ((3, 2, 1), (3, 2, 5), (2, 3, 3))
    job = workloads.Job(id="library", samples=samples)
    assert workloads.run_job(job, gausslab.cli.main, {})["ok"]
    lying = workloads.run_job(job, gausslab.cli.main, {}, library=lambda s: {"checked": 3, "held": 2})
    assert not lying["ok"]


def test_tracing_leaves_digests_unchanged_and_uninstalls():
    expected = workloads.load_expected()
    plain = [workloads.run_job(_job(line), gausslab.cli.main, expected) for line in FAST_JOBS]
    original_main = gausslab.cli.main
    original_table = gausslab.gauss.gauss_table
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert gausslab.cli.main is not original_main
        traced = [workloads.run_job(_job(line), gausslab.cli.main, expected) for line in FAST_JOBS]
    finally:
        tracer.uninstall()
    assert gausslab.cli.main is original_main
    assert gausslab.gauss.gauss_table is original_table
    assert [o["digest"] for o in traced] == [o["digest"] for o in plain]
    assert all(o["ok"] for o in traced)
    assert tracer.stat("cli.main")[0] == len(FAST_JOBS)
    assert tracer.stat("ff.build_tower")[0] >= len(FAST_JOBS)


def test_self_time_excludes_children_and_nesting_counts_once():
    tracer = layertrace.Tracer()

    def inner(x):
        return sum(range(x))

    inner_w = tracer.wrap(inner, "inner", "bench")

    def outer(depth):
        if depth:
            return outer_w(depth - 1)
        return inner_w(20000) + inner_w(20000)

    outer_w = tracer.wrap(outer, "outer", "bench")
    outer_w(2)
    o_calls, o_self, o_incl = tracer.stat("outer")
    i_calls, i_self, i_incl = tracer.stat("inner")
    assert (o_calls, i_calls) == (3, 2)
    assert i_self == i_incl
    # the outermost span covers everything; recursion is not counted twice
    assert abs((o_self + i_self) - o_incl) < 1e-9
    spans = tracer.spans
    assert len(spans) == 5 * 5
    ids = {spans[k]: spans[k + 1] for k in range(0, len(spans), 5)}
    assert sorted(ids.values()).count(-1) == 1


def test_per_layer_metrics_match_the_declared_ones():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = {m["name"] for m in bench["per_layer"]}
    produced = set(layertrace.layer_metrics(layertrace.Tracer(), 0)) | set(run.PROCESS_METRICS)
    assert declared == produced
    assert {m["name"] for m in bench["end_to_end"]} == set(run.END_TO_END)


def test_seed_fixes_order_and_samples_and_largest_job_closes():
    for name, spec in workloads.WORKLOADS.items():
        a, b = workloads.jobs_for(name, 7), workloads.jobs_for(name, 7)
        assert a == b
        assert a[-1].id == spec["last"]
        assert sorted(j.id for j in a[:-1]) == sorted(spec["jobs"])
    orders = {tuple(j.id for j in workloads.jobs_for("scan-ladder", s)) for s in range(1, 6)}
    assert len(orders) > 1
    lib = [j for j in workloads.jobs_for("exact-identities", 3) if j.is_library][0]
    assert len(lib.samples) == len(workloads.LIBRARY_FIELDS) * workloads.LIBRARY_SAMPLES_PER_FIELD


def test_every_cli_job_has_an_expected_digest():
    expected = workloads.load_expected()
    assert set(workloads.all_cli_jobs()) == set(expected)
    assert all(v["exit"] == 0 for v in expected.values())
