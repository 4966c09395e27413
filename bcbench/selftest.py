"""Self-tests of the benchmark's checkers: each must accept a real output and reject a corrupted one.

    python3 bcbench/selftest.py

Exits non-zero and names the case when a checker accepts a corrupted
output or rejects a genuine one. ``python3 bcbench/run.py --smoke`` is
the companion check that every workload runs one round with its checks.
"""

from __future__ import annotations

import dataclasses
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bornchoice import cli, classical, scenarios, solver  # noqa: E402

import checks  # noqa: E402
import exact  # noqa: E402
import inputs  # noqa: E402

def expect(failures: list[str], name: str, check, *args, accept: bool) -> None:
    try:
        check(*args)
        accepted = True
    except checks.CheckFailed:
        accepted = False
    if accepted != accept:
        failures.append(f"{name}: {'rejected a genuine' if accept else 'accepted a corrupted'} output")
    print(f"{'ok  ' if accepted == accept else 'FAIL'} {name}")


def solve_case(doc: dict, targets, restarts: int):
    scenario = scenarios.builtin(doc["name"])
    target = solver.SolveTarget.for_scenario(scenario, d1=targets[0], d2=targets[1])
    return solver.solve(scenario, target, config=solver.SolverConfig(restarts=restarts))


def test_reachable(failures: list[str]) -> None:
    case = inputs.solve_reachable(1)[0]
    result = solve_case(case["doc"], case["targets"], restarts=2)
    expect(failures, "reachable: genuine", checks.check_reachable, case, result, accept=True)
    w2 = result.w2
    phases = list(w2.phases)
    phases[1] += 1e-3
    bad = dataclasses.replace(result, w2=dataclasses.replace(w2, phases=tuple(phases)))
    expect(failures, "reachable: phase perturbed by 1e-3", checks.check_reachable, case, bad, accept=False)
    expect(failures, "reachable: converged flag cleared", checks.check_reachable, case,
           dataclasses.replace(result, converged=False), accept=False)
    moved = {**case, "targets": (case["targets"][0] + 1e-6, case["targets"][1])}
    expect(failures, "reachable: target missed by 1e-6", checks.check_reachable, moved, result, accept=False)


def test_unreachable(failures: list[str]) -> None:
    case = inputs.solve_unreachable(1)[0]
    result = solve_case(case["doc"], case["targets"], restarts=1)
    expect(failures, "unreachable: genuine", checks.check_unreachable, case, result, accept=True)
    expect(failures, "unreachable: converged flag set", checks.check_unreachable, case,
           dataclasses.replace(result, converged=True), accept=False)
    residuals = {k: (v * 0.5 if k.startswith("target_") else v) for k, v in result.residuals.items()}
    expect(failures, "unreachable: residual below the distance", checks.check_unreachable, case,
           dataclasses.replace(result, residuals=residuals), accept=False)


def test_feasibility(failures: list[str]) -> None:
    doc = inputs.builtin_doc("ellsberg3")
    for pattern in ("f1>f2,f4>f3", "f1>f2,f4<f3"):
        case = {"doc": doc, "pattern": pattern}
        result = classical.feasibility(scenarios.builtin("ellsberg3"), pattern)
        witness = None if result.witness is None else result.witness.to_dict()
        verdict = exact.feasible(doc, pattern)
        expect(failures, f"feasibility {pattern}: genuine", checks.check_feasibility, case, result.feasible, witness, verdict,
               accept=True)
        expect(failures, f"feasibility {pattern}: flipped verdict", checks.check_feasibility, case, not result.feasible,
               witness, verdict, accept=False)
        if witness is not None:
            off = {**witness, "Y": witness["Y"] + 1e-6}
            expect(failures, f"feasibility {pattern}: witness off the polytope", checks.check_feasibility, case, True, off,
                   verdict, accept=False)
    if exact.feasible(doc, "f1>f2,f4>f3") or not exact.feasible(inputs.thin_doc(), inputs.THIN_PATTERN):
        failures.append("exact: modal Ellsberg must be infeasible and the thin case feasible")


def cli_payload(failures: list[str], argv: list[str]) -> dict:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main([*argv, "--format", "json", "--full-precision"])
    if code != 0:
        failures.append(f"cli {argv}: exit code {code}")
    return json.loads(buffer.getvalue())


def test_cli(failures: list[str]) -> None:
    payload = cli_payload(failures, ["analyze"])
    expect(failures, "analyze: genuine", checks.check_analyze, payload, accept=True)
    bad = json.loads(json.dumps(payload))
    bad["reports"][2]["question_variants"]["q2"]["z_test"] *= 1.001
    expect(failures, "analyze: wrong z-test value", checks.check_analyze, bad, accept=False)
    bad = json.loads(json.dumps(payload))
    bad["reports"][0]["k_q1"] += 1
    expect(failures, "analyze: wrong count", checks.check_analyze, bad, accept=False)
    payload = cli_payload(failures, ["verify-paper"])
    expect(failures, "verify-paper: genuine", checks.check_verify_paper, payload, accept=True)
    bad = json.loads(json.dumps(payload))
    bad["scenarios"][1]["passed"] = False
    expect(failures, "verify-paper: one scenario failing", checks.check_verify_paper, bad, accept=False)


def test_metric_names(failures: list[str]) -> None:
    """The metrics a run prints are exactly the ones BENCHMARK.json lists."""
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if listed != run.UNITS:
        failures.append(f"per-layer metrics differ from BENCHMARK.json: {set(listed) ^ set(run.UNITS)}")
    listed = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if listed != run.END_TO_END_UNITS:
        failures.append(f"end-to-end metrics differ from BENCHMARK.json: {set(listed) ^ set(run.END_TO_END_UNITS)}")
    print(f"{'ok  ' if not failures else 'FAIL'} metric names and units match BENCHMARK.json")


def main() -> int:
    failures: list[str] = []
    test_metric_names(failures)
    test_reachable(failures)
    test_unreachable(failures)
    test_feasibility(failures)
    test_cli(failures)
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
