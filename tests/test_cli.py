import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from facetbench import facets, report
from facetbench.cli import main
from facetbench.dataset import json_text, output_floors
from facetbench.errors import SolverError
from facetbench.scenario import MAX_TRIALS

from conftest import write_csv
from test_facets import curved_dataset


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_ok(capsys, data_dir):
    code, out, _ = run(capsys, "validate", "--data", str(data_dir / "universities_985.csv"))
    assert code == 0
    assert json.loads(out)["valid"]


def test_validate_reports_violations(capsys, tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("dmu,in:a,out:b\nA,1,0\n")
    code, out, _ = run(capsys, "validate", "--data", str(p))
    assert code == 1
    payload = json.loads(out)
    assert not payload["valid"]
    assert payload["violations"][0]["rule"] == "nonpositive-output"


def test_missing_file_exit_1(capsys):
    code, _, err = run(capsys, "report", "--data", "does_not_exist.csv")
    assert code == 1
    assert "no such file" in err


def test_empty_file_exit_1(capsys, tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    code, _, err = run(capsys, "report", "--data", str(p))
    assert code == 1
    assert "no data rows" in err


def test_facets_toy(capsys, data_dir):
    code, out, _ = run(capsys, "facets", "--data", str(data_dir / "toy_isoquant_a.csv"))
    assert code == 0
    payload = json.loads(out)
    assert [f["members"] for f in payload["facets"]] == [["A", "B", "C"], ["C", "D", "E"]]


def test_extremes_with_override(capsys, data_dir):
    code, out, _ = run(
        capsys, "extremes", "--data", str(data_dir / "universities_985.csv"),
        "--extremes", str(data_dir / "extremes_985.txt"),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pinned"]
    assert len(payload["effective"]) == 11
    assert "TSU" in payload["discrepancy"]["computed_not_pinned"]


def test_partition_985(capsys, data_dir):
    code, out, _ = run(
        capsys, "partition", "--data", str(data_dir / "universities_985.csv"),
        "--profile", "paper-985",
    )
    assert code == 0
    payload = json.loads(out)["partition"]
    assert payload["maxcount"] == 8
    assert payload["s_star"] == ["WHU", "CQU"]


def test_report_json_deterministic(capsys, data_dir, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = [
        "report", "--data", str(data_dir / "universities_985.csv"),
        "--profile", "paper-985", "--format", "json",
    ]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["partition"]["maxcount"] == 8
    assert len(payload["results"]) == 38
    assert payload["config"]["aggregation"] == "table4-max"


def test_report_csv_shape(capsys, data_dir, tmp_path):
    out_path = tmp_path / "rep.csv"
    code = main([
        "report", "--data", str(data_dir / "universities_985.csv"),
        "--profile", "paper-985", "--format", "csv", "--out", str(out_path),
    ])
    capsys.readouterr()
    assert code == 0
    rows = list(csv.reader(io.StringIO(out_path.read_text())))
    assert len(rows) == 39  # header + 38 DMUs
    assert rows[0][:5] == ["dmu", "slack_nsa", "slack_sb", "slack_hp", "robust"]
    pku = rows[1]
    assert pku[0] == "PKU"
    assert float(pku[4]) == pytest.approx(0.725, abs=5e-4)


def test_report_round_trip_structurally_identical(capsys, data_dir, tmp_path):
    out_path = tmp_path / "rep.json"
    main([
        "report", "--data", str(data_dir / "toy_isoquant_a.csv"),
        "--format", "json", "--out", str(out_path),
    ])
    capsys.readouterr()
    payload = json.loads(out_path.read_text())
    assert json.loads(json.dumps(payload)) == payload


def test_efficiency_measure_filter(capsys, data_dir):
    code, out, _ = run(
        capsys, "efficiency", "--data", str(data_dir / "toy_isoquant_a.csv"),
        "--measure", "russell",
    )
    assert code == 0
    row = json.loads(out)["results"][0]
    assert "russell" in row and "robust" not in row


def test_scenario_command(capsys, data_dir):
    code, out, _ = run(
        capsys, "scenario", "--data", str(data_dir / "toy_isoquant_a.csv"),
        "--prices", str(data_dir / "prices_toy.json"), "--target", "F",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["target"]["revenue_delta0"] == pytest.approx(1854.0)
    assert payload["global"]["delta1"]["value"] == pytest.approx(1825.1)
    assert payload["target"]["withstand"][0]["wr"] == pytest.approx(553.8)


# sha256 of `scenario` stdout on the toy, run from the repository root
# with relative paths (the payload echoes --data)
TOY_SCENARIO_DIGESTS = {
    "readme-target-F": (["--target", "F"], "b879d95f598e88439a1d7a6d230b56cef1f00b0aaa6d880dc8a1387cd93e16f7"),
    "target-D-delta-0.5": (["--target", "D", "--delta", "0.5"],
                           "c8761f3ce16b4257702240859d79d981971edd497f06b432c75853f46adc8f9a"),
    "xbar-2.5": (["--xbar", "2.5"], "a4e79d5109ca30227690dc3ecb0a8ee6736e58a8e3bbd2f0da31ff4316eea1ee"),
}


@pytest.mark.parametrize("case", sorted(TOY_SCENARIO_DIGESTS))
def test_toy_scenario_stdout_pinned(capsys, data_dir, monkeypatch, case):
    extra, digest = TOY_SCENARIO_DIGESTS[case]
    monkeypatch.chdir(data_dir.parent)
    code, out, err = run(
        capsys, "scenario", "--data", "data/toy_isoquant_a.csv", "--prices", "data/prices_toy.json", *extra,
    )
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


SCENARIO_985 = ["scenario", "--data", "data/universities_985.csv", "--profile", "paper-985",
                "--prices", "data/prices_toy.json"]

# sha256 of `scenario --profile paper-985` stdout, run like the toy cases
SCENARIO_985_DIGESTS = {
    "target-WHU": (["--target", "WHU"], "afebc00b85e1c161dd4a30dca954c5adfef3f34402d49bea1779f415944cbe78"),
    "xbar-2000-100": (["--xbar", "2000,100"], "93b5e00c701b34a6aedc0d1f809534d687a71c72ded68b7ef5b7862a2a892635"),
}


@pytest.mark.parametrize("case", sorted(SCENARIO_985_DIGESTS))
def test_985_scenario_stdout_pinned(capsys, data_dir, monkeypatch, case):
    extra, digest = SCENARIO_985_DIGESTS[case]
    monkeypatch.chdir(data_dir.parent)
    code, out, err = run(capsys, *SCENARIO_985, *extra)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


REPORT_985 = ["report", "--data", "data/universities_985.csv", "--profile", "paper-985"]

# sha256 of `report --profile paper-985` stdout, run like the toy cases;
# unlike the benchmark's digest, the JSON ones cover the config echo
REPORT_985_DIGESTS = {
    "json": ([], "37472cd8a480df35a1d8805f1c13843c81a5dc06333a54cd8795520e33980728"),
    "json-paper-min": (["--aggregation", "paper-min"],
                       "e01849733a7ab112837a02f51ef17f265564864c4e6827d11bf83c5228283d59"),
    "csv": (["--format", "csv"], "f435e9f74629fca7753036f41cdca96c6d5c35c92681ddf34e4de4090466b127"),
}


@pytest.mark.parametrize("case", sorted(REPORT_985_DIGESTS))
def test_985_report_stdout_pinned(capsys, data_dir, monkeypatch, case):
    extra, digest = REPORT_985_DIGESTS[case]
    monkeypatch.chdir(data_dir.parent)
    code, out, err = run(capsys, *REPORT_985, *extra)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_985_efficiency_all_is_the_report(capsys, data_dir, monkeypatch, fmt):
    monkeypatch.chdir(data_dir.parent)
    code, out, err = run(capsys, "efficiency", *REPORT_985[1:], "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_985_DIGESTS[fmt][1]


@pytest.mark.parametrize("measure", ["robust", "closest", "russell"])
def test_985_efficiency_measure_is_the_report_column(capsys, data_dir, monkeypatch, measure):
    monkeypatch.chdir(data_dir.parent)
    _, full, _ = run(capsys, *REPORT_985)
    code, out, err = run(capsys, "efficiency", *REPORT_985[1:], "--measure", measure)
    assert (code, err) == (0, "")
    column = [{"dmu": row["dmu"], measure: row[measure]} for row in json.loads(full)["results"]]
    assert out == json_text({"results": column})


@pytest.mark.parametrize("measure", ["robust", "russell"])
def test_985_efficiency_does_not_stop_on_a_closest_failure(capsys, data_dir, monkeypatch, measure):
    """`efficiency --measure robust|russell` runs no closest measure, so a
    closest failure that makes `report` exit 2 leaves it at exit 0."""
    real = report.closest_on_efpps

    def closest(*args):
        rows = real(*args)
        rows[3] = SolverError("closest at 3")
        return rows

    monkeypatch.setattr(report, "closest_on_efpps", closest)
    monkeypatch.chdir(data_dir.parent)
    assert run(capsys, *REPORT_985) == (2, "", "internal error: closest at 3\n")
    code, out, err = run(capsys, "efficiency", *REPORT_985[1:], "--measure", measure)
    assert (code, err) == (0, "")
    assert len(json.loads(out)["results"]) == 38


def test_985_report_echoes_the_facet_tolerances(capsys, data_dir, monkeypatch):
    monkeypatch.chdir(data_dir.parent)
    code, out, _ = run(capsys, *REPORT_985)
    assert code == 0
    config = json.loads(out)["config"]
    assert [config[k] for k in ("rank_tol", "support_tol", "positivity_tol", "dedup_tol")] == [
        facets.RANK_TOL, facets.SUPPORT_TOL, facets.POSITIVITY_TOL, facets.DEDUP_TOL,
    ]


# sha256 of `facets` and `partition` stdout on the benchmark's geometry:
# m=2, s=3, 24 extreme units and 16 dominated ones (C(24, 4) = 10,626
# subsets, 78 facets), written to the working directory as curved.csv
CURVED_24_DIGESTS = {
    "facets": "f54786bdfb0b2ef548affc29c4bd74ceb4a3884f8e56bd8c2410094d509d9bf1",
    "partition": "16b3e020ded6295e8a76988ae18ac0cdbaaf27cff5a802d2a2ae964abd85ebfe",
}


@pytest.mark.parametrize("command", sorted(CURVED_24_DIGESTS))
def test_24_extremes_stdout_pinned(capsys, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    write_csv(curved_dataset(2026, 24, n_dominated=16), "curved.csv")
    code, out, err = run(capsys, command, "--data", "curved.csv")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CURVED_24_DIGESTS[command]


def run_module(cwd, *argv) -> subprocess.CompletedProcess:
    """`python -m facetbench.cli argv` in a new process: the path of the
    console script and the benchmark, where the package namespace starts
    empty and each command binds the modules it uses on first call."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "facetbench.cli", *argv], cwd=cwd, capture_output=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)


def test_985_report_in_a_fresh_interpreter(data_dir):
    proc = run_module(data_dir.parent, *REPORT_985)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == REPORT_985_DIGESTS["json"][1]


def test_24_extremes_partition_in_a_fresh_interpreter(tmp_path):
    write_csv(curved_dataset(2026, 24, n_dominated=16), tmp_path / "curved.csv")
    proc = run_module(tmp_path, "partition", "--data", "curved.csv")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == CURVED_24_DIGESTS["partition"]


# the benchmark's coverage-985 operation at seed 1: WHU's inputs as xbar
COVERAGE_985 = ["coverage", "--data", "data/universities_985.csv", "--profile", "paper-985",
                "--xbar", "2579,344.467", "--trials", "250", "--seed", "1"]
COVERAGE_985_DIGEST = "9ebd2830f8fb6d402a29ae4573651a85753677fd71dd1de131d3ebafd6ae02fc"


def test_985_coverage_in_a_fresh_interpreter(data_dir):
    proc = run_module(data_dir.parent, *COVERAGE_985)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == COVERAGE_985_DIGEST


# sha256 of `coverage` stdout over several blocks of COVERAGE_CHUNK (1,024)
# trials, each ending in a partial block; run like the toy scenario cases
COVERAGE_BLOCK_DIGESTS = {
    "toy-2500": (["--data", "data/toy_isoquant_a.csv", "--trials", "2500", "--seed", "985",
                  "--strategies", "1;2;1,2"],
                 "0a8643307445adcb9cd504db94100b3ed6c96b3c3d8e00fce4a74034c903d7af"),
    "985-3000": (["--data", "data/universities_985.csv", "--profile", "paper-985", "--xbar", "2579,344.467",
                  "--trials", "3000", "--seed", "1"],
                 "e4259e3960e1a68180e898dd3be2c83074aa04e91c990027d47f2d5547c93dd6"),
}


@pytest.mark.parametrize("case", sorted(COVERAGE_BLOCK_DIGESTS))
def test_coverage_across_blocks_pinned(capsys, data_dir, monkeypatch, case):
    argv, digest = COVERAGE_BLOCK_DIGESTS[case]
    monkeypatch.chdir(data_dir.parent)
    code, out, err = run(capsys, "coverage", *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_985_scenario_target_off_every_facet_pinned(capsys, data_dir, monkeypatch):
    monkeypatch.chdir(data_dir.parent)
    code, out, err = run(capsys, *SCENARIO_985, "--target", "PKU")
    assert (code, out) == (1, "")
    assert err == "error: target point lies on no facet; assumptions are anchored to a facet point\n"


def test_985_scenario_builds_each_vertex_table_once(capsys, data_dir, monkeypatch):
    # a vertex table depends on xbar alone: one per facet, and one
    # containment test per facet, whatever the scenario asks of them
    import facetbench.scenario as scenario

    calls = {"basic_solutions": 0, "facet_contains": 0}

    def counted(name):
        inner = getattr(scenario, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(scenario, name, counted(name))
    monkeypatch.chdir(data_dir.parent)
    code, _, err = run(capsys, *SCENARIO_985, "--target", "WHU")
    assert (code, err) == (0, "")
    assert calls == {"basic_solutions": 14, "facet_contains": 14}


def test_toy_b_scenario_exit_1_pinned(capsys, data_dir, monkeypatch):
    monkeypatch.chdir(data_dir.parent)
    code, out, err = run(
        capsys, "scenario", "--data", "data/toy_isoquant_b.csv", "--prices", "data/prices_toy.json",
    )
    assert (code, out, err) == (1, "", "error: no facet admits the input vector [1.0]\n")


def test_scenario_prices_only_points_at_xbar(capsys, data_dir, tmp_path):
    # a generator's own revenue (1e307 times an output near 100) overflows,
    # but every point the command prices lies at inputs 1e-5, uniqueness's
    # vertex-table rows included
    prices = tmp_path / "p.json"
    prices.write_text('{"outputs": [{"name": "a", "base": 1e307}, {"name": "b", "base": 5}, '
                      '{"name": "c", "base": 12}], "delta_domain": [0, 1]}')
    code, out, err = run(capsys, "scenario", "--data", str(data_dir / "toy_isoquant_a.csv"),
                         "--prices", str(prices), "--xbar", "1e-5")
    assert (code, err) == (0, "")
    optima = json.loads(out)["facet_optima_delta1"]
    assert [(e["value"], e["uniqueness"]) for e in optima] == [(1.0000000000000001e304, "unique"),
                                                              (1.25e304, "unique")]


def test_scenario_985_lists_facets_without_a_point(capsys, data_dir):
    # at WHU's inputs some facets admit no point: they are listed with
    # nulls, and the withstand rows are the facets that contain WHU
    code, out, err = run(
        capsys, "scenario", "--data", str(data_dir / "universities_985.csv"), "--profile", "paper-985",
        "--prices", str(data_dir / "prices_toy.json"), "--target", "WHU",
    )
    assert (code, err) == (0, "")
    payload = json.loads(out)
    optima = payload["facet_optima_delta1"]
    assert [e["facet"] for e in optima] == list(range(1, 15))
    empty = [e["facet"] for e in optima if e["value"] is None]
    assert 3 in empty and len(empty) < 14
    assert all(e["outputs"] is None and e["uniqueness"] is None for e in optima if e["value"] is None)
    best = payload["global"]["delta1"]["value"]
    assert best == max(e["value"] for e in optima if e["value"] is not None)
    containing = [e["facet"] for e in payload["target"]["assumptions"]["recovery_entries"]]
    assert [w["facet"] for w in payload["target"]["withstand"]] == containing == [1, 2, 5, 6, 9, 10, 12, 13]


def test_coverage_command(capsys, data_dir):
    code, out, _ = run(
        capsys, "coverage", "--data", str(data_dir / "toy_isoquant_a.csv"),
        "--trials", "100", "--seed", "3", "--strategies", "1;2;1,2",
    )
    assert code == 0
    payload = json.loads(out)
    union = next(s for s in payload["strategies"] if s["facet_ids"] == [1, 2])
    assert union["count"] == 100


@pytest.mark.parametrize("spec", ["+1", "\u0661", "1_0"], ids=["signed", "non-ascii-digit", "digit-separator"])
def test_strategy_ids_take_ascii_digits_only(capsys, data_dir, spec):
    # int() reads these as facets 1, 1 and 10
    code, _, err = run(
        capsys, "coverage", "--data", str(data_dir / "toy_isoquant_a.csv"), "--trials", "10",
        "--strategies", spec,
    )
    assert code == 1
    assert "bad strategy spec" in err


def test_unknown_profile(capsys, data_dir):
    code, _, err = run(
        capsys, "report", "--data", str(data_dir / "universities_985.csv"),
        "--profile", "nope",
    )
    assert code == 1
    assert "unknown profile" in err


def test_report_facetless_dataset_fails_before_emit(capsys, data_dir, tmp_path):
    out_path = tmp_path / "never.json"
    code, _, err = run(
        capsys, "report", "--data", str(data_dir / "toy_isoquant_b.csv"),
        "--out", str(out_path),
    )
    assert code == 1
    assert "no facets" in err
    assert not out_path.exists()


@pytest.mark.parametrize("measure", ["robust", "closest", "russell"])
def test_efficiency_facetless_dataset_exits_1_for_every_measure(capsys, data_dir, measure):
    """The partition runs before any one measure, as it does for `report`."""
    code, out, err = run(capsys, "efficiency", "--data", str(data_dir / "toy_isoquant_b.csv"), "--measure", measure)
    assert (code, out) == (1, "")
    assert "no facets" in err


# command -> the arguments it needs besides --data, on the toy dataset
OUT_COMMANDS = {
    "validate": [], "extremes": [], "facets": [], "partition": [], "efficiency": [], "report": [],
    "scenario": ["--prices", "data/prices_toy.json"], "coverage": ["--trials", "10"],
}


@pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
def test_empty_out_is_an_input_error(capsys, data_dir, monkeypatch, command):
    # `report` and `efficiency` used to try to write the path "", the
    # other commands to print to stdout
    monkeypatch.chdir(data_dir.parent)
    argv = [command, "--data", "data/toy_isoquant_a.csv", *OUT_COMMANDS[command], "--out", ""]
    assert run(capsys, *argv) == (1, "", "error: bad --out '': expected a file path\n")


UNI_985 = (Path(__file__).resolve().parents[1] / "data" / "universities_985.csv").read_text()
TOY_TABLE = '{"table": {"0": [5, 5, 12], "0.1": [5, 5.5, 10.81], "1": [5, 10, 0.1]}}'
NOT_UTF8 = b"dmu,in:a,out:b\nA\xff,1,2\n"
DIRECTORY = None  # in place of a file's text: make a directory of that name
DEEP_JSON = "[" * 100_000 + "]" * 100_000

# case -> (files written to the working directory, argv); argv without
# --data runs on the toy dataset
INPUT_FAULTS = {
    "validate-data-not-utf8": ({"d.csv": NOT_UTF8}, ["validate", "--data", "d.csv"]),
    "validate-data-directory": ({"d.csv": DIRECTORY}, ["validate", "--data", "d.csv"]),
    "report-data-not-utf8": ({"d.csv": NOT_UTF8}, ["report", "--data", "d.csv"]),
    "report-data-directory": ({"d.csv": DIRECTORY}, ["report", "--data", "d.csv"]),
    "report-extremes-not-utf8": ({"e.txt": b"WHU\n\xfe\n"}, ["report", "--extremes", "e.txt"]),
    "report-extremes-directory": ({"e.txt": DIRECTORY}, ["report", "--extremes", "e.txt"]),
    "scenario-prices-not-utf8": ({"p.json": b'{"table": {"0": [1, 2, 3]}}\xff'}, ["scenario", "--prices", "p.json"]),
    "scenario-prices-directory": ({"p.json": DIRECTORY}, ["scenario", "--prices", "p.json"]),
    "scenario-prices-nested-too-deep": ({"p.json": DEEP_JSON}, ["scenario", "--prices", "p.json"]),
    "scenario-int-too-long": (
        {"p.json": '{"table": {"0": [%s, 5, 12]}}' % ("1" * 5000)}, ["scenario", "--prices", "p.json"],
    ),
    "scenario-int-beyond-double": (
        {"p.json": '{"table": {"0": [1%s, 5, 12]}}' % ("0" * 400)}, ["scenario", "--prices", "p.json"],
    ),
    "scenario-outputs-not-list": (
        {"p.json": '{"table": {"0": [5, 5, 12]}, "outputs": null}'}, ["scenario", "--prices", "p.json"],
    ),
    "cell-over-csv-field-limit": (
        {"d.csv": "dmu,in:a,out:b,out:c\nA,1,%s,2\nB,1,2,3\n" % ("9" * 140_000)}, ["extremes", "--data", "d.csv"],
    ),
    "report-output-subnormal": (
        {"d.csv": UNI_985.replace("\nRUC,164,69.646,2,", "\nRUC,164,69.646,1e-320,")},
        ["report", "--data", "d.csv", "--profile", "paper-985"],
    ),
    # normal doubles that used to overflow the weight 1/(s*y) silently
    "report-output-range-1e-307": (
        {"d.csv": UNI_985.replace("\nRUC,164,69.646,2,", "\nRUC,164,69.646,1e-307,")},
        ["report", "--data", "d.csv", "--profile", "paper-985"],
    ),
    "report-output-range-3e-308": (
        {"d.csv": UNI_985.replace("\nRUC,164,69.646,2,", "\nRUC,164,69.646,3e-308,")},
        ["report", "--data", "d.csv", "--profile", "paper-985"],
    ),
    "scenario-empty-table": ({"p.json": '{"table": {}}'}, ["scenario", "--prices", "p.json"]),
    "scenario-key-not-number": ({"p.json": '{"table": {"a": [1, 2, 3]}}'}, ["scenario", "--prices", "p.json"]),
    "scenario-price-not-number": ({"p.json": '{"table": {"0": ["x", 2, 3]}}'}, ["scenario", "--prices", "p.json"]),
    # the csv projection is of the full table: --format csv needs --measure all
    "efficiency-csv-single-measure": ({}, ["efficiency", "--measure", "russell", "--format", "csv"]),
    "xbar-nan": ({}, ["coverage", "--trials", "10", "--xbar", "nan"]),
    "xbar-inf": ({}, ["coverage", "--trials", "10", "--xbar", "inf"]),
    "xbar-digit-separator": ({}, ["coverage", "--trials", "10", "--xbar", "1_0"]),
    "cell-digit-separator": (
        {"d.csv": "dmu,in:a,out:b,out:c\nA,1,1_0,2\nB,1,2,3\n"}, ["extremes", "--data", "d.csv"],
    ),
    "trials-digit-separator": ({}, ["coverage", "--trials", "1_0", "--seed", "1"]),
    "seed-digit-separator": ({}, ["coverage", "--trials", "10", "--seed", "0_1"]),
    "trials-not-number": ({}, ["coverage", "--trials", "abc"]),
    "trials-signed": ({}, ["coverage", "--trials", "+10"]),
    "trials-non-ascii-digits": ({}, ["coverage", "--trials", "\u0661\u0660"]),
    "seed-negative": ({}, ["coverage", "--trials", "10", "--seed", "-1"]),
    "seed-beyond-philox-key": ({}, ["coverage", "--trials", "10", "--seed", str(2**128)]),
    "trials-beyond-philox-counter": ({}, ["coverage", "--trials", str(2**64 + 1)]),
    # MAX_TRIALS rejects these before any vertex table is built or any trial
    # is drawn (a 2**62-trial run would take centuries)
    "trials-beyond-the-bound": ({}, ["coverage", "--trials", str(MAX_TRIALS + 1)]),
    "trials-beyond-numpy-dimension": ({}, ["coverage", "--trials", str(2**64)]),
    "trials-beyond-numpy-array-size": ({}, ["coverage", "--trials", str(2**62)]),
    "delta1-digit-separator": ({"p.json": TOY_TABLE}, ["scenario", "--prices", "p.json", "--delta1", "0_1"]),
    "delta-not-number": ({"p.json": TOY_TABLE}, ["scenario", "--prices", "p.json", "--delta", "one"]),
    "delta0-nan": ({"p.json": TOY_TABLE}, ["scenario", "--prices", "p.json", "--delta0", "nan"]),
    "delta-inf": ({"p.json": TOY_TABLE}, ["scenario", "--prices", "p.json", "--delta", "inf"]),
    # finite input whose revenue or vertices overflow the double range: these
    # used to exit 0 with zero counts or Infinity, or 2 with an IndexError
    "coverage-revenue-overflow": ({}, ["coverage", "--trials", "5", "--xbar", "1e306"]),
    "scenario-vertex-overflow": ({"p.json": TOY_TABLE}, ["scenario", "--prices", "p.json", "--xbar", "1e307"]),
    "scenario-price-overflow": (
        {"p.json": '{"outputs": [{"name": "a", "base": 1e308, "slope": 1e308}, {"name": "b", "base": 5}, '
                   '{"name": "c", "base": 12}], "delta_domain": [0, 1]}'},
        ["scenario", "--prices", "p.json"],
    ),
    "scenario-facet-revenue-overflow": (
        {"p.json": '{"outputs": [{"name": "a", "base": 1e306}, {"name": "b", "base": 1e306}, '
                   '{"name": "c", "base": 1e306}], "delta_domain": [0, 1]}'},
        ["scenario", "--prices", "p.json"],
    ),
}


@pytest.mark.parametrize("case", sorted(INPUT_FAULTS))
def test_input_faults_exit_1(capsys, data_dir, tmp_path, monkeypatch, case):
    files, argv = INPUT_FAULTS[case]
    for name, text in files.items():
        if text is DIRECTORY:
            (tmp_path / name).mkdir()
        elif isinstance(text, bytes):
            (tmp_path / name).write_bytes(text)
        else:
            (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    if "--data" not in argv:
        argv = argv + ["--data", str(data_dir / "toy_isoquant_a.csv")]
    code, _, err = run(capsys, *argv)
    assert code == 1, err
    assert err.startswith("error: ")


def test_trials_beyond_the_bound_error_names_it(capsys, data_dir):
    code, out, err = run(capsys, "coverage", "--data", str(data_dir / "toy_isoquant_a.csv"),
                         "--trials", str(MAX_TRIALS + 1))
    assert (code, out) == (1, "")
    assert f"[1, {MAX_TRIALS}]" in err


def test_efficiency_csv_of_one_measure_error_names_the_rule(capsys, data_dir):
    code, out, err = run(capsys, "efficiency", "--data", str(data_dir / "toy_isoquant_a.csv"),
                         "--measure", "closest", "--format", "csv")
    assert (code, out) == (1, "")
    assert "--format csv needs --measure all" in err


@pytest.mark.parametrize("dmu", ["RUC", "PKU"])
@pytest.mark.parametrize("output", ["nsa", "sb", "hp"])
def test_985_report_at_the_output_floor(capsys, tmp_path, dmu, output):
    """The smallest value the output-range rule accepts runs clean (a
    RuntimeWarning is an error here) and scores the DMU's Russell measure;
    one ulp less is a data error."""
    rows = list(csv.reader(io.StringIO(UNI_985)))
    j = next(i for i, row in enumerate(rows) if row[0] == dmu)
    outs = [k for k, label in enumerate(rows[0]) if label.startswith("out:")]
    r = outs.index(rows[0].index(f"out:{output}"))
    Y = np.array([[float(row[k]) for row in rows[1:]] for k in outs])
    Y[r, j - 1] = np.nan                       # the floor of the other values
    floor = float(output_floors(Y)[r])
    path = tmp_path / "d.csv"
    for value, expected in ((floor, 0), (float(np.nextafter(floor, 0.0)), 1)):
        rows[j][outs[r]] = repr(value)
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        code, out, err = run(capsys, "report", "--data", str(path), "--profile", "paper-985")
        assert code == expected, err
        if expected == 0:
            result = next(row for row in json.loads(out)["results"] if row["dmu"] == dmu)
            assert result["russell"]["status"] == "scored"


TOY = object()  # in place of an argument: the toy dataset's path
USAGE_ERRORS = {
    "missing-data": ["report"],
    "unknown-flag": ["report", "--data", TOY, "--bogus"],
    "bad-aggregation-choice": ["report", "--data", TOY, "--aggregation", "mean"],
    "no-subcommand": [],
    "xbar-read-as-flag": ["coverage", "--data", TOY, "--xbar", "-1,-1"],
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_errors_exit_1(capsys, data_dir, case):
    argv = [str(data_dir / "toy_isoquant_a.csv") if a is TOY else a for a in USAGE_ERRORS[case]]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: facet-bench")
    assert "error: " in err


@pytest.mark.parametrize("delta1", ["0.5", "1"])  # "1" is --delta1's value when not given
@pytest.mark.parametrize("first", ["--delta1", "--delta"])
def test_delta_and_delta1_together_are_a_usage_error(capsys, data_dir, delta1, first):
    # --delta used to override --delta1 silently
    flags = [["--delta1", delta1], ["--delta", "0.7"]]
    if first == "--delta":
        flags.reverse()
    argv = ["scenario", "--data", str(data_dir / "toy_isoquant_a.csv"),
            "--prices", str(data_dir / "prices_toy.json"), *flags[0], *flags[1]]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    other = "--delta" if first == "--delta1" else "--delta1"
    assert capsys.readouterr().err.endswith(f"error: argument {other}: not allowed with argument {first}\n")


@pytest.mark.parametrize("argv", [["--help"], ["report", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: facet-bench")
