"""Spans around bornchoice's layer entry points, recorded from outside the package.

A Tracer patches a fixed list of functions around each traced call and
restores them afterwards, so untraced calls run the program untouched. A function is patched wherever a bornchoice module binds it
(``from .scenarios import utility_values`` makes a second binding). An
entry point the program no longer has is skipped, not an error. Spans
stay in memory as (name, op, parent, start_ns, end_ns, note) lists and
are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Callable, Optional

# (span name, module, attribute or Class.method)
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("solver.least_squares", "bornchoice.solver", "least_squares"),
    ("solver.residuals", "bornchoice.solver", "ResidualSystem.residuals"),
    ("solver.jacobian", "bornchoice.solver", "ResidualSystem.jacobian"),
    ("solver.verify", "bornchoice.solver", "verify"),
    ("scenarios.utility_values", "bornchoice.scenarios", "utility_values"),
    ("classical.linprog", "bornchoice.classical", "linprog"),
    ("quantum.state_from_polar", "bornchoice.quantum", "state_from_polar"),
    ("hilbert.validate_spectral_family", "bornchoice.hilbert", "validate_spectral_family"),
    ("stats.analyze", "bornchoice.stats", "analyze"),
)

# a restart counts as converged when every residual is within the
# solver's default tolerance
RESTART_TOL = 1e-8


def _restart_converged(fit) -> bool:
    return bool(max(abs(float(v)) for v in fit.fun) <= RESTART_TOL)


NOTES: dict[str, Callable] = {"solver.least_squares": _restart_converged}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.op, parent, time.perf_counter_ns(), 0, None])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][4] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, note=None):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)
            self.spans[index][5] = note

    def wrap(self, name: str, fn: Callable) -> Callable:
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if note is not None:
                self.spans[index][5] = note(result)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        for name, module_name, attr in ENTRY_POINTS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name, None)
                original = getattr(owner, method, None) if owner is not None else None
                if original is None:
                    continue
                self._patch(owner, method, original, self.wrap(name, original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapped = self.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "bornchoice" or mod_name.startswith("bornchoice."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapped)

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


# -- per-layer figures -------------------------------------------------------

class SpanStats:
    """Counts, total and self time per span name."""

    def __init__(self, spans: list[list]) -> None:
        child_ns = [0] * len(spans)
        for name, _op, parent, start, end, _note in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self.count: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        for (name, _op, _parent, start, end, _note), children in zip(spans, child_ns):
            self.count[name] = self.count.get(name, 0) + 1
            self.total_ns[name] = self.total_ns.get(name, 0) + (end - start)
            self.self_ns[name] = self.self_ns.get(name, 0) + (end - start - children)

    def mean_us(self, name: str) -> float:
        n = self.count.get(name, 0)
        return self.total_ns[name] / n / 1e3 if n else 0.0


def _per(value: float, n: int) -> float:
    return value / n if n else 0.0


def layer_metrics(spans: list[list], n_ops: int, n_solves: int) -> dict[str, float]:
    """Per-layer figures from the spans of the traced operations.

    A layer the workload never calls reads 0.
    """
    s = SpanStats(spans)
    restarts: dict[int, list[bool]] = {}
    for name, op, _parent, _start, _end, note in spans:
        if name == "solver.least_squares":
            restarts.setdefault(op, []).append(bool(note))
    useful = sum((runs.index(True) + 1) if True in runs else 0 for runs in restarts.values())
    run = sum(len(runs) for runs in restarts.values())
    cli = {}
    for name, _op, _parent, start, end, note in spans:
        if name == "cli.main":
            cli.setdefault(note, []).append((end - start) / 1e6)
    out = {
        "solver.restarts_per_solve": _per(s.count.get("solver.least_squares", 0), n_solves),
        "solver.useful_restart_ratio": _per(useful, run),
        "solver.residual_evals_per_solve": _per(s.count.get("solver.residuals", 0), n_solves),
        "solver.jacobian_evals_per_solve": _per(s.count.get("solver.jacobian", 0), n_solves),
        "solver.residual_eval_us": s.mean_us("solver.residuals"),
        "solver.jacobian_eval_us": s.mean_us("solver.jacobian"),
        "solver.least_squares_self_ms_per_solve": _per(s.self_ns.get("solver.least_squares", 0) / 1e6, n_solves),
        "scenarios.utility_values_calls_per_op": _per(s.count.get("scenarios.utility_values", 0), n_ops),
        "scenarios.utility_values_us": s.mean_us("scenarios.utility_values"),
        "classical.lp_calls_per_op": _per(s.count.get("classical.linprog", 0), n_ops),
        "classical.lp_ms_per_op": _per(s.total_ns.get("classical.linprog", 0) / 1e6, n_ops),
        "quantum.state_from_polar_us": s.mean_us("quantum.state_from_polar"),
        "solver.verify_us": s.mean_us("solver.verify"),
        "hilbert.validate_spectral_family_us": s.mean_us("hilbert.validate_spectral_family"),
        "stats.analyze_us": s.mean_us("stats.analyze"),
    }
    for command in ("verify-paper", "analyze", "feasibility"):
        times = cli.get(command)
        out[f"cli.main_ms.{command}"] = statistics.median(times) if times else 0.0
    return out


def import_times(stderr: str) -> Optional[tuple[float, float]]:
    """(bornchoice cumulative ms, scipy self ms) from ``-X importtime`` output.

    scipy's figure sums the self time of every scipy module, so it does
    not depend on which bornchoice module imports scipy first.
    """
    bornchoice_us = None
    scipy_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_part, cumulative, name = line[len("import time:"):].split("|", 2)
        try:
            self_us, cumulative_us = int(self_part), int(cumulative)
        except ValueError:
            continue  # the header line
        name = name.strip()
        if name == "bornchoice":
            bornchoice_us = cumulative_us
        elif name == "scipy" or name.startswith("scipy."):
            scipy_us += self_us
    if bornchoice_us is None:
        return None
    return bornchoice_us / 1e3, scipy_us / 1e3
