"""Command-line interface: verification, solving, feasibility, and statistics.

Subcommands:
  verify-paper   recheck the registered published solution pairs, no search
  solve          search for a state pair hitting target utility gaps
  feasibility    decide whether a joint preference pattern is classically realizable
  analyze        compute experiment statistics from choice cell counts

Exit codes: 0 success, 1 verification failure, 2 solver non-convergence,
64 usage error, 65 data error, 70 internal error (a feasibility verdict
that could not be proven). Output is written once, at the end, to stdout
or to --out.

Every command runs on the standard library; none loads numpy. Each
command imports what it runs, so besides this module and scenarios,
verify-paper loads verification, quantum, report and stats; analyze loads
stats; feasibility loads classical; solve loads solver and what it uses;
and csv loads only when a CSV is read or written. A reader that closes
stdout before the report is written is not an error: the command exits
with its own code and prints nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from . import __version__
from .scenarios import (
    BUILTIN_NAMES,
    DEFAULT_UTILITY,
    ExperimentCounts,
    Scenario,
    ScenarioError,
    UtilityFunction,
    builtin,
    resolve_scenario,
)

if TYPE_CHECKING:
    from .quantum import QuantumState

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_NOT_CONVERGED = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_INTERNAL = 70


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # usage problems exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _cells(text: str) -> tuple[int, int, int, int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"expected 4 comma-separated integers (n_f1f4,n_f1f3,n_f2f3,n_f2f4), got {text!r}"
        )
    try:
        return tuple(int(p) for p in parts)  # type: ignore[return-value]
    except ValueError:
        raise argparse.ArgumentTypeError(f"cells must be integers, got {text!r}") from None


def build_parser() -> _Parser:
    parser = _Parser(prog="bornchoice", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("human", "json", "csv"), default="human",
                        help="output format (default human)")
    output.add_argument("--out", metavar="PATH", help="write the report to a file instead of stdout")
    output.add_argument("--full-precision", action="store_true",
                        help="emit full float precision (JSON); default rounds to 6 significant digits")

    p = sub.add_parser("verify-paper", parents=[output],
                       help="recheck the registered published solution pairs")
    p.add_argument("--scenario", metavar="NAME",
                   help="check one built-in scenario instead of all four")
    p.add_argument("--tol", type=float, default=5e-3,
                   help="residual tolerance (default 5e-3, the printed 3-decimal precision)")
    p.add_argument("--utility", default="sqrt", help="utility function: sqrt, linear, or power:ALPHA")

    p = sub.add_parser("solve", parents=[output], help="search for a state pair hitting target gaps")
    p.add_argument("--scenario", required=True, metavar="NAME|PATH",
                   help="built-in scenario name or scenario JSON file")
    p.add_argument("--d1", type=float, help="target gap for question pair 1 (default: bundled table's weight)")
    p.add_argument("--d2", type=float, help="target gap for question pair 2 (default: bundled table's weight)")
    p.add_argument("--utility", default="sqrt", help="utility function: sqrt, linear, or power:ALPHA")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--restarts", type=int, default=64, metavar="N",
                   help="at most N random restarts; stops at the first that converges (default 64)")
    p.add_argument("--tol", type=float, default=1e-8, help="residual tolerance (default 1e-8)")

    p = sub.add_parser("feasibility", parents=[output],
                       help="decide whether a joint preference pattern is classically realizable")
    p.add_argument("pattern", help='preference pattern, e.g. "f1>f2,f4>f3"')
    p.add_argument("--scenario", required=True, metavar="NAME|PATH",
                   help="built-in scenario name or scenario JSON file")
    p.add_argument("--utility", default="sqrt", help="utility function: sqrt, linear, or power:ALPHA")

    p = sub.add_parser("analyze", parents=[output], help="experiment statistics from choice cell counts")
    p.add_argument("--counts", metavar="PATH",
                   help="counts CSV (default: the bundled experiment table)")
    p.add_argument("--cells", type=_cells, metavar="A,B,C,D",
                   help="inline cell counts n_f1f4,n_f1f3,n_f2f3,n_f2f4 instead of a file")
    p.add_argument("--scenario", metavar="NAME|PATH",
                   help="scenario providing question orientation and published values")
    return parser


def _utility(spec: str) -> UtilityFunction:
    try:
        return UtilityFunction.parse(spec)
    except ScenarioError as exc:
        raise _CliError(EXIT_USAGE, str(exc)) from exc


def _scenario(ref: str) -> Scenario:
    try:
        return resolve_scenario(ref)
    except ScenarioError as exc:
        raise _CliError(EXIT_DATA if Path(ref).exists() else EXIT_USAGE, str(exc)) from exc


def _round_floats(obj, digits: int = 6):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return obj
        return float(f"{obj:.{digits}g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, digits) for v in obj]
    return obj


def _render(args, human: str, payload: dict, csv_rows: Optional[list[dict]] = None) -> str:
    if args.format == "json":
        data = payload if args.full_precision else _round_floats(payload)
        text = json.dumps(data, indent=2)
    elif args.format == "csv":
        if csv_rows is None or not csv_rows:
            raise _CliError(EXIT_USAGE, f"csv output is not available for {payload.get('command')}")
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(csv_rows[0].keys()))
        writer.writeheader()
        for row in csv_rows:
            writer.writerow({k: ("" if v is None else v) for k, v in row.items()})
        text = buffer.getvalue().rstrip("\n")
    else:
        text = human
    return text


def _state_lines(label: str, state: QuantumState) -> list[str]:
    lines = [f"  {label}:"]
    for event, modulus, phase, prob in zip(
        state.scenario.events, state.moduli, state.phases_deg, state.probabilities()
    ):
        lines.append(
            f"    {event}: modulus {modulus:.6g}, phase {phase:.6g} deg, probability {prob:.6g}"
        )
    return lines


def _cmd_verify_paper(args) -> tuple[int, str]:
    from . import verification

    u = _utility(args.utility)
    try:
        verification.check_tolerance(args.tol)
    except ScenarioError as exc:
        raise _CliError(EXIT_USAGE, str(exc)) from exc
    try:
        scenarios = [builtin(name) for name in (BUILTIN_NAMES if args.scenario is None else [args.scenario])]
    except ScenarioError as exc:
        raise _CliError(EXIT_USAGE, str(exc)) from exc
    human_lines = [f"verify published solutions (tolerance {args.tol:g})"]
    entries = []
    csv_rows = []
    all_passed = True
    for scenario in scenarios:
        name = scenario.name
        solution = verification.paper_solutions(scenario)
        report = solution.verify(u=u, tol=args.tol)
        all_passed &= report.passed
        human_lines.append(f"scenario {name}: {'PASS' if report.passed else 'FAIL'}")
        for line in report.checks:
            human_lines.append(
                f"  {line.name}: deviation {line.deviation:.6g} "
                f"{'<=' if line.passed else '>'} {line.tolerance:g}"
            )
            csv_rows.append({
                "scenario": name,
                "check": line.name,
                "deviation": line.deviation,
                "tolerance": line.tolerance,
                "passed": line.passed,
            })
        entries.append({
            "scenario": name,
            "solution": solution.to_dict(),
            "checks": [line.to_dict() for line in report.checks],
            "passed": report.passed,
        })
    human_lines.append(
        f"overall: {sum(1 for e in entries if e['passed'])}/{len(entries)} scenarios pass"
    )
    payload = {
        "command": "verify-paper",
        "tolerance": args.tol,
        "utility": u.label(),
        "scenarios": entries,
        "passed": all_passed,
    }
    text = _render(args, "\n".join(human_lines), payload, csv_rows)
    return (EXIT_OK if all_passed else EXIT_VERIFY_FAILED), text


def _cmd_solve(args) -> tuple[int, str]:
    from . import solver

    scenario = _scenario(args.scenario)
    u = _utility(args.utility)
    try:
        target = solver.SolveTarget.for_scenario(scenario, d1=args.d1, d2=args.d2)
        config = solver.SolverConfig(
            restarts=args.restarts, seed=args.seed, residual_tolerance=args.tol
        )
    except ScenarioError as exc:
        raise _CliError(EXIT_USAGE if len(scenario.question_pairs) == 2 else EXIT_DATA, str(exc)) from exc
    result = solver.solve(scenario, target, u, config)
    human_lines = [result.summary()]
    human_lines += _state_lines("w1", result.w1)
    human_lines += _state_lines("w2", result.w2)
    payload = {"command": "solve", **result.to_dict()}
    csv_row: dict[str, object] = {
        "scenario": result.scenario_name,
        "converged": result.converged,
        "cost": result.cost,
        "best_restart": result.best_restart,
        "restarts_used": result.restarts_used,
        "d1": target.d1,
        "d2": target.d2,
    }
    if result.certificate is not None:
        c = result.certificate
        csv_row.update(certificate_pair="-".join(c.pair), certificate_target=c.target,
                       certificate_lower=c.lower, certificate_upper=c.upper)
    for key, value in result.residuals.items():
        csv_row[f"residual_{key}"] = value
    for tag, state in (("w1", result.w1), ("w2", result.w2)):
        for event, modulus, phase in zip(scenario.events, state.moduli, state.phases_deg):
            csv_row[f"{tag}_modulus_{event}"] = modulus
            csv_row[f"{tag}_phase_deg_{event}"] = phase
    text = _render(args, "\n".join(human_lines), payload, [csv_row])
    return (EXIT_OK if result.converged else EXIT_NOT_CONVERGED), text


def _cmd_feasibility(args) -> tuple[int, str]:
    from . import classical

    scenario = _scenario(args.scenario)
    u = _utility(args.utility)
    try:
        pattern = classical.PreferencePattern.from_text(scenario, args.pattern)
    except (classical.PatternError, ScenarioError) as exc:
        raise _CliError(EXIT_USAGE, str(exc)) from exc
    try:
        result = classical.feasibility(scenario, pattern, u)
    except classical.CertificateError as exc:
        raise _CliError(EXIT_INTERNAL, str(exc)) from exc
    payload = {"command": "feasibility", **result.to_dict()}
    csv_row: dict[str, object] = {
        "scenario": result.scenario_name,
        "pattern": pattern.describe(scenario),
        "feasible": result.feasible,
        "margin": result.margin,
        "u_independent": result.u_independent,
    }
    for event in scenario.events:
        csv_row[f"witness_p_{event}"] = (
            None if result.witness is None else result.witness.to_dict()[event]
        )
    return EXIT_OK, _render(args, result.summary(), payload, [csv_row])


def _cmd_analyze(args) -> tuple[int, str]:
    from . import stats

    if args.counts is not None and args.cells is not None:
        raise _CliError(EXIT_USAGE, "--counts and --cells are mutually exclusive")
    base_scenario = _scenario(args.scenario) if args.scenario else None
    rows: list[tuple[Optional[str], ExperimentCounts]]
    if args.cells is not None:
        try:
            rows = [(None, ExperimentCounts(*args.cells))]
        except ScenarioError as exc:
            raise _CliError(EXIT_USAGE, str(exc)) from exc
    else:
        # file content: a bad row, or a row label naming no scenario, exits 65 through main
        rows = stats.load_counts_csv(stats.BUNDLED_COUNTS if args.counts is None else args.counts)
    if not rows:
        raise _CliError(EXIT_DATA, "no rows in counts input")
    reports = [
        stats.analyze(counts, base_scenario if label is None else resolve_scenario(label))
        for label, counts in rows
    ]
    human = "\n\n".join(report.summary() for report in reports)
    payload = {"command": "analyze", "reports": [report.to_dict() for report in reports]}
    return EXIT_OK, _render(args, human, payload, stats.report_csv_rows(reports))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "verify-paper": _cmd_verify_paper,
        "solve": _cmd_solve,
        "feasibility": _cmd_feasibility,
        "analyze": _cmd_analyze,
    }
    try:
        code, text = handlers[args.command](args)
        if args.out:
            Path(args.out).write_text(text + "\n", encoding="utf-8")
        else:
            print(text, flush=True)
        return code
    except BrokenPipeError:
        # the reader of stdout left early, as in `bornchoice analyze | head -1`:
        # not an error of the command. stdout goes to devnull, as the Python
        # docs' SIGPIPE note advises, so the flush at shutdown cannot raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return code
    except _CliError as exc:
        kind = "internal error" if exc.code == EXIT_INTERNAL else "error"
        print(f"bornchoice {args.command}: {kind}: {exc}", file=sys.stderr)
        return exc.code
    except ScenarioError as exc:
        print(f"bornchoice {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"bornchoice {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
