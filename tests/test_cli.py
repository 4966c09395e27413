"""End-to-end tests of the command-line interface: exit codes, formats, round trips."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_classical import assert_verdict_proven

from bornchoice import classical, quantum, scenarios, solver
from bornchoice.cli import EXIT_INTERNAL, main
from bornchoice.scenarios import BUILTIN_NAMES, builtin

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- verify-paper -----------------------------------------------------------

def test_verify_paper_all_pass(capsys):
    code, out, err = run(capsys, ["verify-paper"])
    assert code == 0
    assert "overall: 4/4 scenarios pass" in out
    for name in ("ellsberg3", "machina5051", "reflection_lower", "reflection_upper"):
        assert f"scenario {name}: PASS" in out


def test_verify_paper_reads_the_bundled_table_once(capsys, monkeypatch):
    from bornchoice import stats

    stats._bundled_rows.cache_clear()
    reads = []

    def counted(path, what):
        reads.append(Path(path).name)
        return scenarios.read_text(path, what)

    monkeypatch.setattr(stats, "read_text", counted)
    code, _, _ = run(capsys, ["verify-paper"])
    assert code == 0
    # one default-gap target per built-in, all from one parse
    assert reads == ["table5.csv"]


@pytest.mark.parametrize("argv, files", [
    (["verify-paper"], 4),
    (["solve", "--scenario", "ellsberg3", "--restarts", "1"], 1),
])
def test_each_builtin_file_is_parsed_once(capsys, monkeypatch, argv, files):
    loads = []
    real = scenarios.load_scenario_file
    monkeypatch.setattr(scenarios, "load_scenario_file", lambda path: loads.append(path) or real(path))
    code, _, err = run(capsys, argv)
    assert code == 0, err
    assert len(loads) == len(set(loads)) == files


def test_verify_paper_single_scenario(capsys):
    code, out, _ = run(capsys, ["verify-paper", "--scenario", "machina5051"])
    assert code == 0
    assert "overall: 1/1 scenarios pass" in out
    assert "ellsberg3" not in out


def test_verify_paper_tight_tolerance_fails(capsys):
    code, out, _ = run(capsys, ["verify-paper", "--tol", "1e-6"])
    assert code == 1
    assert "FAIL" in out


def test_verify_paper_unknown_scenario(capsys):
    code, _, err = run(capsys, ["verify-paper", "--scenario", "nonesuch"])
    assert code == 64
    assert "error" in err


def test_verify_paper_json_round_trip(capsys):
    # rebuilding the states from the emitted JSON must reproduce the
    # same verification verdict
    code, out, _ = run(capsys, ["verify-paper", "--format", "json", "--full-precision"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    for entry in payload["scenarios"]:
        scenario = builtin(entry["scenario"])
        sol = entry["solution"]
        w1 = quantum.state_from_polar(scenario, sol["w1"]["moduli"], sol["w1"]["phases_deg"])
        w2 = quantum.state_from_polar(scenario, sol["w2"]["moduli"], sol["w2"]["phases_deg"])
        t = sol["target"]
        target = solver.SolveTarget(
            tuple(t["pair_1"]), t["d1"], tuple(t["pair_2"]), t["d2"], t["require_orthogonal"]
        )
        report = solver.verify(scenario, w1, w2, target, tol=payload["tolerance"])
        assert report.passed == entry["passed"]


def test_verify_paper_json_round_trip_preserves_failure(capsys):
    code, out, _ = run(capsys, ["verify-paper", "--scenario", "ellsberg3",
                                "--format", "json", "--tol", "1e-6"])
    assert code == 1
    entry = json.loads(out)["scenarios"][0]
    assert entry["passed"] is False
    scenario = builtin("ellsberg3")
    sol = entry["solution"]
    w1 = quantum.state_from_polar(scenario, sol["w1"]["moduli"], sol["w1"]["phases_deg"])
    w2 = quantum.state_from_polar(scenario, sol["w2"]["moduli"], sol["w2"]["phases_deg"])
    t = sol["target"]
    target = solver.SolveTarget(
        tuple(t["pair_1"]), t["d1"], tuple(t["pair_2"]), t["d2"], t["require_orthogonal"]
    )
    assert not solver.verify(scenario, w1, w2, target, tol=1e-6).passed


def test_verify_paper_csv_format(capsys):
    code, out, _ = run(capsys, ["verify-paper", "--scenario", "ellsberg3", "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert set(rows[0]) == {"scenario", "check", "deviation", "tolerance", "passed"}
    assert all(row["passed"] == "True" for row in rows)


@pytest.mark.parametrize("name", ["ellsberg3", "machina5051", "reflection_lower", "reflection_upper"])
def test_verify_paper_checks_are_the_solution_verify_lines(capsys, name):
    code, out, _ = run(capsys, ["verify-paper", "--scenario", name, "--format", "json", "--full-precision"])
    assert code == 0
    [entry] = json.loads(out)["scenarios"]
    report = solver.paper_solutions(name).verify()
    assert entry["checks"] == [line.to_dict() for line in report.checks]
    assert entry["passed"] is report.passed


# -- solve -------------------------------------------------------------------

def test_solve_converges(capsys):
    code, out, _ = run(capsys, ["solve", "--scenario", "ellsberg3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"] is True
    assert all(abs(v) <= 1e-8 for v in payload["residuals"].values())


def test_solve_human_output(capsys):
    code, out, _ = run(capsys, ["solve", "--scenario", "reflection_lower"])
    assert code == 0
    assert "solve converged" in out
    assert "w1:" in out and "w2:" in out and "modulus" in out


def test_solve_unreachable_target_exits_2(capsys):
    code, out, _ = run(capsys, ["solve", "--scenario", "ellsberg3",
                                "--d1", "50", "--restarts", "4"])
    assert code == 2
    assert "did NOT converge" in out


def _count_draws(monkeypatch, limit):
    """Record the ``count`` of each start draw; fail past ``limit`` draws instead of running on."""
    draw = solver.ResidualSystem.initial_points
    counts = []

    def counted(self, rng, count):
        counts.append(count)
        if len(counts) > limit:
            pytest.fail(f"more than {limit} start draws")
        return draw(self, rng, count)

    monkeypatch.setattr(solver.ResidualSystem, "initial_points", counted)
    return counts


def test_solve_draws_each_start_when_its_restart_runs(capsys, monkeypatch):
    counts = _count_draws(monkeypatch, limit=4)
    # (-3, 0) is inside both gap intervals but no orthogonal pair meets it, so every restart runs
    code, _, _ = run(capsys, ["solve", "--scenario", "ellsberg3", "--d1", "-3", "--d2", "0",
                              "--restarts", "4", "--format", "json"])
    assert code == 2
    assert counts == [1, 1, 1, 1]
    counts.clear()
    # 20 is outside [-10/3, 10/3], the gaps W(f1) - W(f2) attains: certified, so restart 0 alone runs
    code, out, _ = run(capsys, ["solve", "--scenario", "ellsberg3", "--d1", "20", "--restarts", "4",
                                "--format", "json", "--full-precision"])
    assert code == 2
    payload = json.loads(out)
    assert (payload["restarts_used"], payload["best_restart"]) == (1, 0)
    assert payload["certificate"] == {"pair": ["f1", "f2"], "target": 20.0, "lower": -10 / 3, "upper": 10 / 3}
    assert counts == [1]
    counts.clear()
    # so a restart budget far beyond memory costs nothing when restart 0 converges
    code, out, _ = run(capsys, ["solve", "--scenario", "ellsberg3", "--restarts", "1000000000000000",
                                "--format", "json"])
    assert code == 0
    assert json.loads(out)["restarts_used"] == 1
    assert counts == [1]


def test_solve_csv_row_carries_a_certificate_only_when_certified(capsys):
    argv = ["solve", "--scenario", "ellsberg3", "--restarts", "2", "--format", "csv", "--full-precision"]
    code, out, _ = run(capsys, [*argv, "--d1", "20"])
    assert code == 2
    row = next(csv.DictReader(io.StringIO(out)))
    assert (row["certificate_pair"], row["certificate_target"]) == ("f1-f2", "20.0")
    assert (float(row["certificate_lower"]), float(row["certificate_upper"])) == (-10 / 3, 10 / 3)
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert not any(key.startswith("certificate") for key in next(csv.DictReader(io.StringIO(out))))


def test_solve_rejects_bad_utility(capsys):
    code, _, err = run(capsys, ["solve", "--scenario", "ellsberg3", "--utility", "bogus"])
    assert code == 64
    assert "error" in err


def test_solve_scenario_from_file(capsys, tmp_path):
    path = tmp_path / "custom.json"
    path.write_text(builtin("ellsberg3").serialize())
    code, out, _ = run(capsys, ["solve", "--scenario", str(path)])
    assert code == 0
    assert "solve converged" in out


def test_solve_malformed_scenario_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["solve", "--scenario", str(path)])
    assert code == 65
    assert "error" in err


def test_solve_one_pair_scenario_is_data_error(capsys, tmp_path):
    doc = builtin("ellsberg3").to_document()
    doc["question_pairs"] = doc["question_pairs"][:1]
    path = tmp_path / "one_pair.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["solve", "--scenario", str(path), "--d1", "0.5", "--d2", "0.5"])
    assert code == 65
    assert out == ""
    assert err.count("\n") == 1 and "two question pairs" in err


def test_solve_csv_row(capsys):
    code, out, _ = run(capsys, ["solve", "--scenario", "ellsberg3", "--format", "csv"])
    assert code == 0
    [row] = list(csv.DictReader(io.StringIO(out)))
    assert row["converged"] == "True"
    assert "w1_modulus_R" in row and "residual_target_1" in row


# -- feasibility --------------------------------------------------------------

def test_feasibility_infeasible_pattern(capsys):
    code, out, _ = run(capsys, ["feasibility", "f1>f2,f4>f3", "--scenario", "ellsberg3"])
    assert code == 0  # a decided question is a success, whatever the verdict
    assert "pattern is INFEASIBLE" in out
    assert "negative multiple" in out


def test_feasibility_feasible_pattern(capsys):
    code, out, _ = run(capsys, ["feasibility", "f1>f2,f3>f4", "--scenario", "ellsberg3"])
    assert code == 0
    assert "pattern is FEASIBLE" in out
    assert "witness" in out


def test_feasibility_unknown_act(capsys):
    code, _, err = run(capsys, ["feasibility", "f1>f9,f3>f4", "--scenario", "ellsberg3"])
    assert code == 64
    assert "unknown act" in err


def test_feasibility_incomplete_pattern(capsys):
    code, _, err = run(capsys, ["feasibility", "f1>f2", "--scenario", "ellsberg3"])
    assert code == 64
    assert "error" in err


def test_feasibility_three_pair_scenario_is_data_error(capsys, tmp_path):
    doc = builtin("ellsberg3").to_document()
    doc["question_pairs"].append(["f1", "f3"])
    path = tmp_path / "three_pairs.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["feasibility", "f1>f2,f4>f3,f1>f3", "--scenario", str(path)])
    assert code == 65
    assert out == ""
    assert err.count("\n") == 1 and "one or two question pairs" in err


def test_feasibility_json_payload(capsys):
    code, out, _ = run(capsys, ["feasibility", "f1>f2,f4>f3",
                                "--scenario", "machina5051", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"] is False
    assert payload["u_independent"] is True
    assert "grid_agrees" not in payload
    result = classical.feasibility(builtin("machina5051"), "f1>f2,f4>f3")
    assert payload["multipliers"] == [f"{w.numerator}/{w.denominator}" for w in result.multipliers]
    assert_verdict_proven(builtin("machina5051"), result)


@pytest.mark.parametrize("fmt", ["human", "json", "csv"])
@pytest.mark.parametrize("name", ["ellsberg3", "machina5051"])
def test_feasibility_infeasible_margin_is_positive_zero(capsys, name, fmt):
    # the largest joint margin of these patterns is exactly 0, which must print without a sign
    code, out, _ = run(capsys, ["feasibility", "f1>f2,f4>f3", "--scenario", name, "--format", fmt])
    assert code == 0
    if fmt == "json":
        margin = json.loads(out)["margin"]
        assert margin == 0.0 and math.copysign(1.0, margin) == 1.0
    elif fmt == "csv":
        assert next(csv.DictReader(io.StringIO(out)))["margin"] == "0.0"
    else:
        assert "admissible set: 0.000e+00" in out
        assert "-0.000e+00" not in out


@pytest.mark.parametrize("fmt", ["human", "json"])
def test_feasibility_indifference_only_pattern(capsys, fmt):
    code, out, err = run(capsys, ["feasibility", "f1=f2,f4=f3", "--scenario", "machina5051", "--format", fmt])
    assert code == 0, err
    if fmt == "json":
        payload = json.loads(out)
        assert payload["feasible"] is True and payload["margin"] is None
    else:
        assert "pattern is FEASIBLE" in out


@pytest.mark.parametrize("check, pattern", [("_certifies", "f1>f2,f4>f3"), ("_exact_witness", "f1>f2,f3>f4")])
def test_feasibility_unproven_verdict_is_internal_error(capsys, monkeypatch, check, pattern):
    # a verdict whose proof fails is never returned, whichever side it is on
    monkeypatch.setattr(classical, check, lambda *args: None)
    code, out, err = run(capsys, ["feasibility", pattern, "--scenario", "ellsberg3"])
    assert code == EXIT_INTERNAL == 70
    assert out == ""
    assert "internal error" in err


# -- analyze -------------------------------------------------------------------

def test_analyze_bundled_table(capsys):
    code, out, _ = run(capsys, ["analyze"])
    assert code == 0
    # the bundled rows pick up the built-in scenarios in order
    for name in ("ellsberg3", "machina5051", "reflection_lower", "reflection_upper"):
        assert f"scenario {name}:" in out
    assert "FLAG" in out


def test_analyze_inline_cells(capsys):
    code, out, _ = run(capsys, ["analyze", "--cells", "125,38,6,31",
                                "--scenario", "ellsberg3"])
    assert code == 0
    assert "163/200 prefer f1" in out


def test_analyze_cells_without_scenario(capsys):
    code, out, _ = run(capsys, ["analyze", "--cells", "10,20,30,40"])
    assert code == 0
    assert "(no scenario context)" in out
    assert "FLAG" not in out


def test_analyze_rejects_malformed_cells(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--cells", "1,2,3"])
    assert exc.value.code == 64
    code, _, err = run(capsys, ["analyze", "--cells", "1,2,3,-4"])
    assert code == 64
    assert "error" in err


def test_analyze_counts_file(capsys, tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text(
        "scenario,n_f1f4,n_f1f3,n_f2f3,n_f2f4\n"
        "ellsberg3,125,38,6,31\n"
        ",10,20,30,40\n"
    )
    code, out, _ = run(capsys, ["analyze", "--counts", str(path)])
    assert code == 0
    assert "scenario ellsberg3:" in out
    assert "(no scenario context)" in out


def test_analyze_empty_counts_file(capsys, tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("n_f1f4,n_f1f3,n_f2f3,n_f2f4\n")
    code, _, err = run(capsys, ["analyze", "--counts", str(path)])
    assert code == 65
    assert "no rows" in err


def test_analyze_missing_counts_file(capsys, tmp_path):
    code, _, err = run(capsys, ["analyze", "--counts", str(tmp_path / "absent.csv")])
    assert code == 65
    assert "cannot read" in err


def test_analyze_cells_and_counts_conflict(capsys, tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("n_f1f4,n_f1f3,n_f2f3,n_f2f4\n1,2,3,4\n")
    code, _, err = run(capsys, ["analyze", "--cells", "1,2,3,4", "--counts", str(path)])
    assert code == 64
    assert "mutually exclusive" in err


def test_analyze_bundled_rows_keep_their_labels_under_scenario(capsys):
    # as in a labelled --counts file, a row's own label wins over --scenario
    code, out, _ = run(capsys, ["analyze", "--scenario", "ellsberg3", "--format", "csv"])
    assert code == 0
    assert [row["scenario"] for row in csv.DictReader(io.StringIO(out))] == list(BUILTIN_NAMES)


def test_analyze_csv_output(capsys):
    code, out, _ = run(capsys, ["analyze", "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    assert rows[0]["scenario"] == "ellsberg3"
    assert rows[0]["weight_q1"] == "0.815"


# -- output plumbing -------------------------------------------------------------

def test_out_writes_file_instead_of_stdout(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, ["analyze", "--cells", "125,38,6,31",
                                "--format", "json", "--out", str(path)])
    assert code == 0
    assert out == ""
    payload = json.loads(path.read_text())
    assert payload["command"] == "analyze"


def test_json_rounds_to_six_significant_digits(capsys):
    args = ["verify-paper", "--scenario", "ellsberg3", "--format", "json"]
    _, rounded_out, _ = run(capsys, args)
    _, full_out, _ = run(capsys, args + ["--full-precision"])
    rounded = json.loads(rounded_out)["scenarios"][0]["solution"]["w1"]["moduli"]
    full = json.loads(full_out)["scenarios"][0]["solution"]["w1"]["moduli"]
    assert rounded != full
    assert rounded == [float(f"{v:.6g}") for v in full]


def test_human_and_json_agree_to_six_digits(capsys):
    args = ["analyze", "--cells", "125,38,6,31", "--scenario", "ellsberg3"]
    _, human, _ = run(capsys, args)
    _, json_out, _ = run(capsys, args + ["--format", "json", "--full-precision"])
    report = json.loads(json_out)["reports"][0]
    for value in (
        report["weight_q1"],
        report["inversion_rate"],
        report["question_variants"]["q1"]["z_test"],
        report["cross_test"]["mcnemar_exact"],
    ):
        assert f"{value:.6g}" in human


def _scenario_with_payoff(tmp_path, literal):
    # json accepts the NaN and Infinity literals, so a scenario file can hold them
    text = builtin("ellsberg3").serialize().replace("100.0", literal, 1)
    path = tmp_path / "bad.json"
    path.write_text(text)
    return str(path)


def _not_utf8(tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{")
    return str(path)


def _malformed(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    return str(path)


@pytest.mark.parametrize("command", [["solve", "--d1", "0.5", "--d2", "0.5"], ["feasibility", "f1>f2,f4>f3"]])
@pytest.mark.parametrize("make_file", [
    pytest.param(lambda tmp: _scenario_with_payoff(tmp, "NaN"), id="nan-payoff"),
    pytest.param(lambda tmp: _scenario_with_payoff(tmp, "Infinity"), id="infinite-payoff"),
    pytest.param(_not_utf8, id="not-utf8"),
    # malformed files and directories were already data errors; the resolver keeps them so
    pytest.param(_malformed, id="malformed"),
    pytest.param(lambda tmp: str(tmp), id="directory"),
])
def test_scenario_file_data_errors_exit_65(capsys, tmp_path, command, make_file):
    code, out, err = run(capsys, command + ["--scenario", make_file(tmp_path)])
    assert code == 65
    assert out == ""
    assert err.count("\n") == 1 and "error" in err


def test_analyze_counts_file_not_utf8_is_data_error(capsys, tmp_path):
    code, out, err = run(capsys, ["analyze", "--counts", _not_utf8(tmp_path)])
    assert code == 65
    assert out == ""
    assert err.count("\n") == 1 and "cannot read" in err


def _deeply_nested(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    return path


def _counts_labelled(scenario_path):
    path = scenario_path.parent / "counts.csv"
    path.write_text(f"scenario,n_f1f4,n_f1f3,n_f2f3,n_f2f4\n{scenario_path},1,2,3,4\n")
    return path


@pytest.mark.parametrize("argv", [
    lambda deep: ["feasibility", "f1>f2,f4>f3", "--scenario", str(deep)],
    # a counts row label names a scenario file like --scenario does
    lambda deep: ["analyze", "--counts", str(_counts_labelled(deep))],
], ids=["feasibility-scenario", "analyze-row-label"])
def test_deeply_nested_scenario_file_exits_65(capsys, tmp_path, argv):
    code, out, err = run(capsys, argv(_deeply_nested(tmp_path)))
    assert code == 65
    assert out == ""
    assert err.count("\n") == 1 and "nested too deeply" in err


@pytest.mark.parametrize("text, fault", [
    ("{", "scenario document is not valid JSON: "),
    ("[" * 100_000 + "]" * 100_000, "scenario document is nested too deeply to parse"),
    ('{"name": "x", "events": ["R"]}', "scenario 'x': missing field 'acts'"),
], ids=["not-json", "over-nested", "missing-field"])
@pytest.mark.parametrize("argv", [
    lambda bad: ["feasibility", "f1>f2,f4>f3", "--scenario", str(bad)],
    lambda bad: ["analyze", "--counts", str(_counts_labelled(bad))],
], ids=["feasibility-scenario", "analyze-row-label"])
def test_scenario_file_faults_name_the_file(capsys, tmp_path, argv, text, fault):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run(capsys, argv(bad))
    assert code == 65
    assert out == ""
    assert err.count("\n") == 1 and f"error: scenario file {bad}: {fault}" in err


def test_files_may_start_with_a_byte_order_mark(capsys, tmp_path):
    scenario = tmp_path / "bom.json"
    scenario.write_text(builtin("ellsberg3").serialize(), encoding="utf-8-sig")
    counts = tmp_path / "bom.csv"
    bundled = ROOT / "src" / "bornchoice" / "data" / "table5.csv"
    counts.write_text(bundled.read_text(encoding="utf-8"), encoding="utf-8-sig")
    assert scenario.read_bytes().startswith(b"\xef\xbb\xbf") and counts.read_bytes().startswith(b"\xef\xbb\xbf")
    feasibility = ["feasibility", "f1>f2,f3>f4", "--scenario"]
    for with_bom, without in (
        (feasibility + [str(scenario)], feasibility + ["ellsberg3"]),
        (["analyze", "--counts", str(counts)], ["analyze"]),
    ):
        for fmt in ("human", "json"):
            assert run(capsys, with_bom + ["--format", fmt]) == run(capsys, without + ["--format", fmt])


@pytest.mark.parametrize("content, message", [
    ("n_f1f4,n_f1f3,n_f2f3,n_f2f4,n_total\n1,2,3,4,abc\n", "line 2: column n_total is 'abc', not an integer"),
    # a row label is file content, not an argument
    ("scenario,n_f1f4,n_f1f3,n_f2f3,n_f2f4\nnonesuch,1,2,3,4\n", "unknown scenario 'nonesuch'"),
], ids=["bad-n-total", "unknown-row-label"])
def test_analyze_bad_counts_content_is_data_error(capsys, tmp_path, content, message):
    path = tmp_path / "counts.csv"
    path.write_text(content)
    code, out, err = run(capsys, ["analyze", "--counts", str(path)])
    assert code == 65
    assert out == ""
    assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize("argv", [
    # an unknown scenario name was already a usage error; the resolver keeps it one
    ["solve", "--scenario", "nonesuch"],
    ["feasibility", "f1>f2,f4>f3", "--scenario", "nonesuch"],
    ["analyze", "--cells", "125,38,6,31", "--scenario", "nonesuch"],
    ["solve", "--scenario", "ellsberg3", "--d1", "20", "--tol", "inf"],
    ["solve", "--scenario", "ellsberg3", "--tol", "nan"],
    ["verify-paper", "--tol", "-1"],
    ["verify-paper", "--tol", "nan"],
    ["verify-paper", "--tol", "inf"],
    ["solve", "--scenario", "ellsberg3", "--utility", "power:inf"],
    ["solve", "--scenario", "ellsberg3", "--seed", "-1"],
    ["solve", "--scenario", "ellsberg3", "--restarts", "0"],
    ["feasibility", "f1>f2,f4>f3", "--scenario", "ellsberg3", "--utility", "power:inf"],
], ids=lambda argv: " ".join(argv))
def test_bad_arguments_exit_64_with_one_line(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 64
    assert out == ""
    assert err.count("\n") == 1 and "error" in err


@pytest.mark.parametrize("alpha", ["400", "1e308"])
@pytest.mark.parametrize("command", [
    ["feasibility", "f1>f2,f4>f3", "--scenario", "ellsberg3"],
    ["solve", "--scenario", "ellsberg3"],
    ["verify-paper"],
], ids=lambda argv: argv[0])
def test_power_utility_overflow_is_data_error(capsys, command, alpha):
    code, out, err = run(capsys, command + ["--utility", f"power:{alpha}"])
    assert code == 65
    assert out == ""
    assert err.count("\n") == 1 and "power utility overflows at payoff" in err


def test_usage_errors_exit_64(capsys):
    for argv in ([], ["frobnicate"], ["solve"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "bornchoice" in capsys.readouterr().out


def _fresh_interpreter(script: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("argv, code", [
    (["analyze"], 0),
    (["solve", "--scenario", "ellsberg3", "--d1", "20"], 2),
])
def test_closed_stdout_exits_with_the_commands_code(argv, code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "bornchoice.cli", *argv], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    # the reader closes its end before the command writes its report
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == code
    assert stderr == b""


@pytest.mark.parametrize("command", ["verify-paper", "analyze"])
def test_bundled_files_load_from_any_working_directory(tmp_path, command):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "bornchoice.cli", command], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for name in BUILTIN_NAMES:
        assert f"scenario {name}" in proc.stdout


def test_no_command_imports_numpy():
    # numpy is blocked in one fresh interpreter, so any import of it raises ImportError
    codes = _fresh_interpreter(
        "import contextlib, io, json, sys\n"
        "sys.modules['numpy'] = None\n"
        "from bornchoice import scenarios, solver\n"
        "from bornchoice.cli import main\n"
        "codes = {}\n"
        "for argv in (['--version'], ['analyze'], ['analyze', '--format', 'csv'],\n"
        "             ['feasibility', 'f1>f2,f4>f3', '--scenario', 'ellsberg3'],\n"
        "             ['feasibility', 'f1=f2,f4=f3', '--scenario', 'ellsberg3', '--format', 'csv'],\n"
        "             ['verify-paper'], ['verify-paper', '--format', 'csv'],\n"
        "             *(['solve', '--scenario', name] for name in scenarios.BUILTIN_NAMES),\n"
        "             ['solve', '--scenario', 'ellsberg3', '--format', 'csv'],\n"
        "             ['solve', '--scenario', 'ellsberg3', '--d1', '20'],\n"
        "             ['solve', '--scenario', 'ellsberg3', '--d1', '-3', '--d2', '0', '--restarts', '2']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        try:\n"
        "            codes[' '.join(argv)] = main(argv)\n"
        "        except SystemExit as exc:\n"
        "            codes[' '.join(argv)] = exc.code\n"
        "s = scenarios.builtin('reflection_lower')\n"
        "family = solver.explore_solution_family(s, solver.SolveTarget.for_scenario(s),\n"
        "                                        config=solver.SolverConfig(restarts=8), count=2)\n"
        "codes['explore_solution_family'] = len(family)\n"
        "print(json.dumps(codes))\n"
    )
    assert codes == {
        "--version": 0, "analyze": 0, "analyze --format csv": 0,
        "feasibility f1>f2,f4>f3 --scenario ellsberg3": 0,
        "feasibility f1=f2,f4=f3 --scenario ellsberg3 --format csv": 0,
        "verify-paper": 0, "verify-paper --format csv": 0,
        **{f"solve --scenario {name}": 0 for name in BUILTIN_NAMES},
        "solve --scenario ellsberg3 --format csv": 0,
        # certified: restart 0 alone runs
        "solve --scenario ellsberg3 --d1 20": 2,
        # reachable interval, no orthogonal pair: every restart runs
        "solve --scenario ellsberg3 --d1 -3 --d2 0 --restarts 2": 2,
        "explore_solution_family": 2,
    }


@pytest.mark.parametrize("argv, modules", [
    (["verify-paper"], ["cli", "quantum", "report", "scenarios", "stats", "verification"]),
    (["analyze"], ["cli", "scenarios", "stats"]),
    (["feasibility", "f1>f2,f4>f3", "--scenario", "ellsberg3"], ["classical", "cli", "scenarios"]),
])
def test_each_command_loads_only_its_modules(argv, modules):
    # one fresh interpreter per command; dataclasses and inspect stay out
    loaded = _fresh_interpreter(
        "import contextlib, io, json, sys\n"
        "unused = ('dataclasses', 'inspect')\n"
        "bare = {m for m in unused if m in sys.modules}\n"
        "from bornchoice.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "print(json.dumps({'code': code,\n"
        "                  'package': sorted(m for m in sys.modules if m.startswith('bornchoice.')),\n"
        "                  'added': sorted(m for m in unused if m in sys.modules and m not in bare)}))\n"
    )
    assert loaded == {"code": 0, "package": [f"bornchoice.{m}" for m in modules], "added": []}


def test_no_command_imports_scipy():
    # a fresh interpreter shows whether any command loads scipy
    script = (
        "import contextlib, io, json, sys\n"
        "from bornchoice.cli import main\n"
        "loaded = {'import': 'scipy' in sys.modules}\n"
        "for argv in (['verify-paper'], ['analyze'], ['feasibility', 'f1>f2,f4>f3', '--scenario', 'ellsberg3'],\n"
        "             ['solve', '--scenario', 'ellsberg3']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        main(argv)\n"
        "    loaded[argv[0]] = 'scipy' in sys.modules\n"
        "print(json.dumps(loaded))\n"
    )
    assert _fresh_interpreter(script) == {
        "import": False, "verify-paper": False, "analyze": False, "feasibility": False, "solve": False,
    }
