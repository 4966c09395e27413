"""The four workloads: inputs, the timed call, warm-up and the output check.

A workload holds one round of cases, made from the seed. ``run`` is the
only timed part; ``check`` runs after the timed window. In-process
workloads import bornchoice in ``prepare``; ``cli_cold`` starts a fresh
interpreter per operation.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import inputs

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
GRID_STEP = Fraction(1, 1000)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(inputs.ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Workload:
    name = ""
    solves = False  # operations are solver.solve calls
    in_process = True

    def __init__(self, seed: int) -> None:
        self.cases = inputs.GENERATORS[self.name](seed)

    def prepare(self) -> None:
        """Build the program's objects for every case; imports bornchoice."""

    def warm_up(self) -> None:
        """One cheap call down the timed path, so lazy loading is not timed."""

    def run(self, case: dict, tracer=None):
        raise NotImplementedError

    def check(self, case: dict, output) -> None:
        raise NotImplementedError

    def traced_extras(self, case: dict, latency_s: float) -> dict[str, float]:
        """Per-operation layer figures that spans alone do not give; ``latency_s`` is the untraced call's."""
        return {}


def _scenario(doc: dict):
    from bornchoice import scenarios

    if doc["name"] in inputs.BUILTINS:
        return scenarios.builtin(doc["name"])
    return scenarios.load_scenario(json.dumps(doc))


class _Solve(Workload):
    solves = True

    def prepare(self) -> None:
        from bornchoice import solver

        self._solver = solver
        for case in self.cases:
            scenario = _scenario(case["doc"])
            d1, d2 = case["targets"]
            case["call"] = (scenario, solver.SolveTarget.for_scenario(scenario, d1=d1, d2=d2))

    def warm_up(self) -> None:
        scenario, target = self.cases[0]["call"]
        self._solver.solve(scenario, target, config=self._solver.SolverConfig(restarts=1))

    def run(self, case: dict, tracer=None):
        scenario, target = case["call"]
        return self._solver.solve(scenario, target)


class SolveReachable(_Solve):
    name = "solve_reachable"

    def check(self, case: dict, output) -> None:
        import checks

        checks.check_reachable(case, output)


class SolveUnreachable(_Solve):
    name = "solve_unreachable"

    def check(self, case: dict, output) -> None:
        import checks

        checks.check_unreachable(case, output)


def grid_points(doc: dict) -> int:
    """Mesh points of the 1e-3 grid cross-check, computed from the free coordinates.

    One axis of floor(t / step + 1/2) + 1 points per free coordinate of a
    group with total t; no grid beyond three free coordinates; a single
    point when there is none.
    """
    axes = [int(total / GRID_STEP + Fraction(1, 2)) + 1
            for idx, total in inputs.groups(doc) for _ in idx[:-1]]
    if len(axes) > 3:
        return 0
    points = 1
    for n in axes:
        points *= n
    return points


class FeasibilityMix(Workload):
    name = "feasibility_mix"

    def prepare(self) -> None:
        from bornchoice import classical

        self._classical = classical
        built: dict[str, object] = {}
        for case in self.cases:
            name = case["doc"]["name"]
            if name not in built:
                built[name] = _scenario(case["doc"])
            case["scenario"] = built[name]
        self._verdicts: dict[tuple[str, str], bool] = {}

    def warm_up(self) -> None:
        case = self.cases[0]
        self._classical.feasibility(case["scenario"], case["pattern"])

    def run(self, case: dict, tracer=None):
        result = self._classical.feasibility(case["scenario"], case["pattern"])
        witness = None if result.witness is None else result.witness.to_dict()
        return result.feasible, witness

    def check(self, case: dict, output) -> None:
        import checks
        import exact

        key = (case["doc"]["name"], case["pattern"])
        if key not in self._verdicts:
            self._verdicts[key] = exact.feasible(case["doc"], case["pattern"])
        feasible, witness = output
        checks.check_feasibility(case, feasible, witness, self._verdicts[key])

    def traced_extras(self, case: dict, latency_s: float) -> dict[str, float]:
        # the grid's share: the untraced call minus the same call without the cross-check
        start = time.perf_counter()
        try:
            self._classical.feasibility(case["scenario"], case["pattern"], grid_check=False)
        except TypeError:  # no grid_check switch: no grid to subtract
            return {"classical.grid_points_per_op": 0.0, "classical.grid_ms_per_op": 0.0}
        bare = time.perf_counter() - start
        return {
            "classical.grid_ms_per_op": (latency_s - bare) * 1e3,
            "classical.grid_points_per_op": float(grid_points(case["doc"])),
        }


class CliCold(Workload):
    """Fresh-interpreter ``bornchoice`` runs; the figures are the child's."""

    name = "cli_cold"
    in_process = False

    def prepare(self) -> None:
        self._env = child_env()

    def warm_up(self) -> None:
        from bornchoice import cli

        with redirect_stdout(io.StringIO()):
            cli.main(["analyze", "--format", "json", "--full-precision"])

    def run(self, case: dict, tracer=None):
        argv = [*case["argv"], "--format", "json", "--full-precision"]
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"cli-spans-{os.getpid()}.json"
        if tracer is None:
            command = [sys.executable, "-m", "bornchoice.cli", *argv]
        else:
            command = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path), *argv]
        # wait4 rather than wait: it gives this child's own CPU time and peak memory
        with tempfile.TemporaryFile(dir=OUT) as err:
            proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=err, env=self._env)
            with proc.stdout:
                stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode()
        if tracer is not None:
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
            spans_path.unlink()
            base = len(tracer.spans)
            for span in spans:
                span[1] = tracer.op
                span[2] = span[2] + base if span[2] >= 0 else -1
            tracer.spans.extend(spans)
        if proc.returncode != 0 and not stdout.strip():
            # no report at all: the command failed, as an exception fails an in-process call
            raise RuntimeError(f"exit code {proc.returncode}: {stderr.strip().splitlines()[-1:]}")
        return {
            "code": proc.returncode,
            "stdout": stdout.decode(),
            "stderr": stderr,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
        }

    def check(self, case: dict, output) -> None:
        import checks
        import exact

        checks.require(output["code"] == 0, f"exit code {output['code']}: {output['stderr'][-500:]}")
        payload = json.loads(output["stdout"])
        command = case["argv"][0]
        if command == "verify-paper":
            checks.check_verify_paper(payload)
        elif command == "analyze":
            checks.check_analyze(payload)
        else:
            verdict = exact.feasible(case["doc"], case["pattern"])
            checks.check_feasibility(case, payload["feasible"], payload["witness"], verdict)


WORKLOADS = {cls.name: cls for cls in (SolveReachable, SolveUnreachable, FeasibilityMix, CliCold)}
