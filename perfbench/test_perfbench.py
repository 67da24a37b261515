"""Tests of the benchmark itself: the generator, the tracing counters, the
self-time calculation and the output checks.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import facetbench as fb

import run as bench
import spans
import synth
import workloads
from record_reference import cli

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNTS = ("lp.calls", "lp.pivots", "signpattern.lps", "facets.subsets", "scenario.lps")


@pytest.fixture(scope="module")
def workdir():
    (HERE / ".work").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=HERE / ".work"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def prepared(workdir):
    return {name: workloads.prepare(name, 5, workdir, cli) for name in workloads.WORKLOADS}


def traced(prep):
    tracer = spans.Tracer()
    restore, missing = spans.install(tracer)
    try:
        with tracer.span("op"):
            payload = bench.cli_in_process(prep.argv)
    finally:
        spans.uninstall(restore)
    prep.check(payload)
    return spans.layer_metrics(spans.summarize(tracer.spans), missing), missing


@pytest.fixture(scope="module")
def traced_twice(prepared):
    return {name: (traced(p), traced(p)) for name, p in prepared.items()}


@pytest.mark.parametrize("seed", range(8))
def test_synth_extreme_count_is_the_same_for_every_seed(seed, tmp_path):
    names, X, Y, extremes = synth.generate(seed)
    path = tmp_path / "synth.csv"
    synth.write_csv(path, names, X, Y)
    ds = fb.load_dataset(path)
    ext = fb.extreme_set(ds)
    assert {ds.names[d] for d in ext.computed} == extremes
    assert len(extremes) == synth.EXTREMES
    assert all(v == 0.0 for d, v in ext.lambda0.items() if ds.names[d] not in extremes)


def _synth_facets(seed):
    names, X, Y, _ = synth.generate(seed)
    ds = fb.Dataset(names=names, inputs=X, outputs=Y)
    return fb.enumerate_facets(ds, fb.extreme_set(ds).indices)


@pytest.mark.parametrize("seed", [7, 10_001])
def test_synth_enumeration_work_is_the_same_for_every_seed(seed):
    fs, base = _synth_facets(seed), _synth_facets(0)
    assert fs.subsets_examined == base.subsets_examined == synth.SUBSETS == 10_626
    assert [f.members for f in fs.facets] == [f.members for f in base.facets]
    assert len(fs.facets) > 0


def test_deterministic_counts_repeat_across_traced_runs(traced_twice):
    for name, ((first, missing), (second, _)) in traced_twice.items():
        assert missing == [], name
        assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}, name
    report = traced_twice["report-985"][0][0]
    coverage = traced_twice["coverage-985"][0][0]
    assert report["signpattern.lps"] > 0 and report["scenario.lps"] == 0
    assert coverage["scenario.lps"] > 0 and coverage["signpattern.lps"] == 0


def test_lp_calls_equal_the_sum_of_the_layer_counts_on_report(traced_twice):
    m = traced_twice["report-985"][0][0]
    layers = ("measures.extreme.lps", "signpattern.lps", "measures.closest.lps", "measures.russell.lps")
    assert m["lp.calls"] == sum(m[k] for k in layers)
    assert m["lp.calls"] == m["lp.optimal"] + m["lp.infeasible"]


def test_install_restores_every_binding():
    before = fb.measures.solve_lp, fb.report.batch_evaluate, fb.scenario.PriceSampler.draw
    restore, _ = spans.install(spans.Tracer())
    assert fb.measures.solve_lp is not before[0]
    spans.uninstall(restore)
    assert (fb.measures.solve_lp, fb.report.batch_evaluate, fb.scenario.PriceSampler.draw) == before


def test_a_missing_wrap_target_is_reported_not_zeroed():
    targets = spans.TARGETS + (("facetbench.lp", "_no_such_kernel.run", spans.KERNEL),)
    restore, missing = spans.install(spans.Tracer(), targets)
    spans.uninstall(restore)
    assert missing == ["facetbench.lp._no_such_kernel.run"]
    summary = spans.summarize([])
    out = spans.layer_metrics(summary, ["facetbench.lp._kernel.run", "facetbench.cli.enumerate_facets"])
    assert "lp.kernel_s" not in out and "lp.self_s" not in out
    assert not any(k.startswith("facets.") for k in out)
    assert out["lp.calls"] == 0


def test_self_time_of_nested_and_overlapping_children():
    assert spans.self_time(0.0, 10.0, []) == 10.0
    assert spans.self_time(0.0, 10.0, [(1.0, 5.0), (2.0, 3.0)]) == 6.0      # nested
    assert spans.self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0)]) == 5.0      # overlapping
    assert spans.self_time(0.0, 10.0, [(5.0, 7.0), (1.0, 2.0)]) == 7.0      # disjoint, unsorted
    assert spans.self_time(0.0, 10.0, [(-2.0, 1.0), (9.0, 12.0)]) == 8.0    # clipped to the span
    tree = [
        spans.Span("op", 0.0, 10.0, -1, 1),
        spans.Span("a", 1.0, 6.0, 0, 1),
        spans.Span("b", 2.0, 3.0, 1, 1),
        spans.Span("c", 5.0, 9.0, 0, 1),
    ]
    s = spans.summarize(tree)
    assert s["self"] == {"op": 2.0, "a": 4.0, "b": 1.0, "c": 4.0}
    assert s["wall"] == {"op": 10.0, "a": 5.0, "b": 1.0, "c": 4.0}


def test_checks_accept_the_program_and_reject_altered_outputs(prepared):
    report = prepared["report-985"]
    payload = cli(report.argv)
    report.check(payload)
    payload["results"][0]["russell"]["theta"] += 1e-12
    with pytest.raises(workloads.CheckError):
        report.check(payload)

    coverage = prepared["coverage-985"]
    payload = cli(coverage.argv)
    coverage.check(payload)
    fid = next(k for k, v in payload["facet_counts"].items() if v > 0)
    payload["facet_counts"][fid] -= 1
    with pytest.raises(workloads.CheckError):
        coverage.check(payload)

    part = prepared["partition-synth"]
    payload = cli(part.argv)
    part.check(payload)
    payload["partition"]["groups"][0]["members"].pop()
    with pytest.raises(workloads.CheckError):
        part.check(payload)


def test_coverage_oracle_needs_no_reference_for_an_unrecorded_seed(workdir):
    prep = workloads.prepare("coverage-985", 10_001, workdir, cli)
    prep.check(cli(prep.argv))


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_command_prints_every_declared_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        done = _bench(ROOT, "--workload", "report-985", "--seed", "0", "--seconds", "1", "--trace", str(trace))
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == {m["name"]: m["unit"] for m in declared[kind]}


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = _bench(tmp_path, "--workload", "report-985", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
