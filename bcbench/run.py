"""Benchmark for bornchoice: one workload, one process, one closed-loop load thread.

    python3 bcbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bcbench/run.py --smoke

Run from a checkout of the repository; the package is imported from its
``src``. The run times whole rounds of the workload's seeded cases until
S seconds have passed, then checks every output against computations
made apart from the program. With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it runs every case untraced and
then traced, and reports the per-layer metrics. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
``--smoke`` runs one round of every workload with its checks and exits
non-zero if any output fails them.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one round of every workload, checks on")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    return args


def setup_probes(workload: str, seed: int, trace: bool) -> tuple[list[float], list[tuple[float, float]]]:
    """Set-up seconds of fresh interpreters, and their import times when traced."""
    setups, imports = [], []
    flags = ["-X", "importtime"] if trace else []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, *flags, str(BENCH / "probe.py"), workload, str(seed)],
            capture_output=True, text=True, env=workloads.child_env(), timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
        setups.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        if trace:
            found = tracing.import_times(proc.stderr)
            if found is None:
                raise RuntimeError("no bornchoice row in -X importtime output")
            imports.append(found)
    return setups, imports


@dataclass(slots=True)
class Record:
    case: dict
    output: object
    error: Exception | None
    latency: float
    traced: bool


def measure(workload, seconds: float, tracer=None) -> tuple[list[Record], float, float, dict[str, float]]:
    """Whole rounds until ``seconds`` have passed.

    With a tracer, every case runs twice in a row, untraced then traced,
    so the two sides of the tracing overhead see the same host. Returns
    the records, the window's wall and CPU seconds, and the sums of the
    workload's extra per-operation layer figures.
    """
    records: list[Record] = []
    extras: dict[str, float] = {}
    reported: set[str] = set()
    start, cpu_start = time.perf_counter(), time.process_time()
    while True:
        for case in workload.cases:
            for traced in (False, True) if tracer is not None else (False,):
                record = _timed(workload, case, tracer if traced else None, len(records))
                records.append(record)
                if record.error is not None and type(record.error).__name__ not in reported:
                    reported.add(type(record.error).__name__)
                    traceback.print_exception(record.error, file=sys.stderr)
                if traced:
                    for key, value in workload.traced_extras(case, records[-2].latency).items():
                        extras[key] = extras.get(key, 0.0) + value
        if time.perf_counter() - start >= seconds:
            break
    return records, time.perf_counter() - start, time.process_time() - cpu_start, extras


def _timed(workload, case, tracer, op: int) -> Record:
    if tracer is not None:
        tracer.op = op
        tracer.install()
    try:
        t0 = time.perf_counter()
        try:
            output, error = workload.run(case, tracer), None
        except Exception as exc:  # a failing operation is counted, not fatal
            output, error = None, exc
        latency = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return Record(case, output, error, latency, tracer is not None)


def check_all(workload, records: list[Record]) -> bool:
    correct = True
    for record in records:
        if record.error is not None:
            continue
        try:
            workload.check(record.case, record.output)
        except (checks.CheckFailed, KeyError, TypeError, ValueError) as exc:
            if correct:
                print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            correct = False
    return correct


def tail(latencies_ms: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples above it; None below forty samples."""
    n = len(latencies_ms)
    if n < 40:
        return None
    ordered = sorted(latencies_ms)
    # the sample at this index has ten beyond it
    index = n - 11
    return 100.0 * (index + 1) / n, ordered[index]


def end_to_end(workload, records, wall, cpu, setups) -> dict[str, dict]:
    ok = [r for r in records if r.error is None]
    latencies_ms = [r.latency * 1e3 for r in ok]
    if workload.in_process:
        cpu_s = cpu
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        cpu_s = sum(r.output["cpu_s"] for r in ok)
        peak_kb = max(r.output["maxrss_kb"] for r in ok)
    found = tail(latencies_ms)
    if found is not None:
        print(f"latency_tail_ms: p{found[0]:.2f} of {len(latencies_ms)} operations = {found[1]:.4f} ms")
    figures = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(ok) / wall,
        "latency_p50_ms": statistics.median(latencies_ms),
        "cpu_ms_per_op": cpu_s * 1e3 / len(records),
        "peak_rss_mb": peak_kb / 1024,
    }
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in figures.items()}


def per_layer(workload, records, tracer, extras, imports) -> dict[str, dict]:
    traced = [r for r in records if r.traced]
    plain = [r for r in records if not r.traced]
    rate_plain = len(plain) / sum(r.latency for r in plain)
    rate_traced = len(traced) / sum(r.latency for r in traced)
    figures = tracing.layer_metrics(tracer.spans, len(traced), len(traced) if workload.solves else 0)
    figures["classical.grid_ms_per_op"] = extras.get("classical.grid_ms_per_op", 0.0) / len(traced)
    figures["classical.grid_points_per_op"] = extras.get("classical.grid_points_per_op", 0.0) / len(traced)
    figures["import.bornchoice_ms"] = statistics.median(b for b, _ in imports)
    figures["import.scipy_ms"] = statistics.median(s for _, s in imports)
    figures["trace.overhead_pct"] = (rate_plain / rate_traced - 1.0) * 100.0
    return {name: {"value": value, "unit": UNITS[name]} for name, value in figures.items()}


END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}

UNITS = {
    "import.bornchoice_ms": "ms",
    "import.scipy_ms": "ms",
    "cli.main_ms.verify-paper": "ms",
    "cli.main_ms.analyze": "ms",
    "cli.main_ms.feasibility": "ms",
    "solver.restarts_per_solve": "count",
    "solver.useful_restart_ratio": "ratio",
    "solver.residual_evals_per_solve": "count",
    "solver.jacobian_evals_per_solve": "count",
    "solver.residual_eval_us": "us",
    "solver.jacobian_eval_us": "us",
    "solver.least_squares_self_ms_per_solve": "ms",
    "scenarios.utility_values_calls_per_op": "count",
    "scenarios.utility_values_us": "us",
    "classical.lp_calls_per_op": "count",
    "classical.lp_ms_per_op": "ms",
    "classical.grid_ms_per_op": "ms",
    "classical.grid_points_per_op": "computed_count",
    "quantum.state_from_polar_us": "us",
    "solver.verify_us": "us",
    "hilbert.validate_spectral_family_us": "us",
    "stats.analyze_us": "us",
    "trace.overhead_pct": "%",
}


def run(args) -> dict:
    setups, imports = setup_probes(args.workload, args.seed, bool(args.trace))
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.prepare()
    workload.warm_up()
    tracer = tracing.Tracer() if args.trace else None
    records, wall, cpu, extras = measure(workload, args.seconds, tracer)
    correct = check_all(workload, records)
    if args.trace:
        metrics = per_layer(workload, records, tracer, extras, imports)
    else:
        metrics = end_to_end(workload, records, wall, cpu, setups)
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": sum(1 for r in records if r.error is not None),
        "metrics": metrics,
    }
    workloads.OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (workloads.OUT / f"{stem}.json").write_text(json.dumps({
        "result": result,
        "setup_s": setups,
        "latencies_s": [r.latency for r in records],
        "errors": [f"{type(r.error).__name__}: {r.error}" for r in records if r.error is not None][:5],
    }, indent=1), encoding="utf-8")
    if tracer is not None:
        tracer.dump(workloads.OUT / f"{stem}-spans.json")
    return result


def smoke() -> int:
    """One round of every workload with checks on, no set-up probes."""
    status = 0
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(1)
        workload.prepare()
        workload.warm_up()
        records, wall, _, _ = measure(workload, 0.0)
        correct = check_all(workload, records)
        failed = sum(1 for r in records if r.error is not None)
        print(f"{name}: {len(records)} operations in {wall:.1f} s, {failed} failed, correct={correct}")
        status |= 0 if correct else 1
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "bornchoice" / "__init__.py").is_file():
        print(f"bornchoice sources not found under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.smoke:
        return smoke()
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
