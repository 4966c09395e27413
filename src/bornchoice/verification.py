"""Target utility gaps for belief-state pairs, and the check of a given pair.

A target names the scenario's two question pairs and the expectation
difference each should show: question 1 in state w1, question 2 in
state w2, with w1 and w2 orthogonal. :func:`verify` recomputes every
equation of a given pair (both targets, the overlap, each unit norm and
each group constraint) with no search, and the registry of published
solution pairs supports that check on the built-ins. A built-in's default
gaps are the experiment's preference weights, read from its row of the
bundled cell table. Everything here
runs on the standard library; the search itself is in
:mod:`bornchoice.solver`.
"""

from __future__ import annotations

import math
import sys
from typing import Optional, Sequence, Union

from . import _value_class, stats
from .quantum import QuantumState, overlap, state_from_polar
from .report import CheckLine, ValidationReport
from .scenarios import (
    BUILTIN_NAMES,
    DEFAULT_UTILITY,
    Scenario,
    ScenarioError,
    UtilityFunction,
    builtin,
    utility_differences,
)


@_value_class
class SolveTarget:
    """Two act pairs with target expectation differences, plus an orthogonality switch."""

    pair_1: tuple[str, str]
    d1: float
    pair_2: tuple[str, str]
    d2: float
    require_orthogonal: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.d1) and math.isfinite(self.d2)):
            raise ScenarioError(f"target differences must be finite, got {self.d1}, {self.d2}")

    @staticmethod
    def for_scenario(
        scenario: Scenario,
        d1: Optional[float] = None,
        d2: Optional[float] = None,
        require_orthogonal: bool = True,
    ) -> "SolveTarget":
        """Targets on the scenario's two question pairs.

        A gap left out defaults, for a built-in's name, to the preference
        weight of that question in the built-in's row of the bundled table.
        """
        if len(scenario.question_pairs) != 2:
            raise ScenarioError(f"solving needs two question pairs; scenario {scenario.name!r} has one")
        if d1 is None or d2 is None:
            if scenario.name not in BUILTIN_NAMES:
                raise ScenarioError(
                    f"scenario {scenario.name!r} has no default targets; pass d1 and d2 explicitly"
                )
            counts = dict(stats.load_counts_csv(stats.BUNDLED_COUNTS))[scenario.name]
            defaults = stats.preference_weights(counts, scenario)
            d1 = defaults[0] if d1 is None else d1
            d2 = defaults[1] if d2 is None else d2
        (a1, b1), (a2, b2) = scenario.question_pairs
        return SolveTarget(
            pair_1=(scenario.acts[a1].label, scenario.acts[b1].label),
            d1=float(d1),
            pair_2=(scenario.acts[a2].label, scenario.acts[b2].label),
            d2=float(d2),
            require_orthogonal=require_orthogonal,
        )

    def to_dict(self) -> dict:
        return {
            "pair_1": list(self.pair_1),
            "d1": self.d1,
            "pair_2": list(self.pair_2),
            "d2": self.d2,
            "require_orthogonal": self.require_orthogonal,
        }


def check_tolerance(tol: float) -> None:
    """Raise ScenarioError unless a residual tolerance is a finite positive number, not a bool."""
    if isinstance(tol, bool) or not (math.isfinite(tol) and tol > 0):
        raise ScenarioError(f"residual_tolerance must be finite and positive, got {tol}")


def _named_residuals(
    scenario: Scenario,
    w1: QuantumState,
    w2: QuantumState,
    target: SolveTarget,
    d_1: Sequence[float],
    d_2: Sequence[float],
) -> dict[str, float]:
    """Every equation's residual; ``d_1``/``d_2`` are the pairs' gap vectors.

    The group keys are interned, so the results of many solves share one
    string per key.
    """
    p1 = w1.probabilities()
    p2 = w2.probabilities()
    z = overlap(w1, w2)
    out = {
        "target_1": sum(p * d for p, d in zip(p1, d_1)) - target.d1,
        "target_2": sum(p * d for p, d in zip(p2, d_2)) - target.d2,
        "overlap_re": z.real,
        "overlap_im": z.imag,
        "norm_w1": sum(p1) - 1.0,
        "norm_w2": sum(p2) - 1.0,
    }
    for idx, t in scenario.groups():
        labels = "".join(scenario.events[i] for i in idx)
        out[sys.intern(f"group_{labels}_w1")] = sum(p1[i] for i in idx) - float(t)
        out[sys.intern(f"group_{labels}_w2")] = sum(p2[i] for i in idx) - float(t)
    return out


def verify(
    scenario: Scenario,
    w1: QuantumState,
    w2: QuantumState,
    target: SolveTarget,
    u: UtilityFunction = DEFAULT_UTILITY,
    tol: float = 1e-8,
) -> ValidationReport:
    """Recompute every equation for a given state pair; no search.

    Group-constraint lines are held to the tighter of ``tol`` and 2e-3,
    since rounded three-decimal vectors are expected to sit within 2e-3
    of the exact group totals once projected.
    """
    gaps = (utility_differences(scenario, *pair, u) for pair in (target.pair_1, target.pair_2))
    residuals = _named_residuals(scenario, w1, w2, target, *gaps)
    group_tol = min(tol, 2e-3)
    checks = []
    for name, value in residuals.items():
        if name in ("overlap_re", "overlap_im") and not target.require_orthogonal:
            continue
        line_tol = group_tol if name.startswith(("group_", "norm_")) else tol
        checks.append(CheckLine(name=name, deviation=abs(value), tolerance=line_tol))
    return ValidationReport(
        subject=f"state pair for {scenario.name} "
        f"(targets {target.d1:g} on {target.pair_1[0]}-{target.pair_1[1]}, "
        f"{target.d2:g} on {target.pair_2[0]}-{target.pair_2[1]})",
        checks=tuple(checks),
    )


@_value_class
class PaperSolution:
    """A published solution pair: printed polar values plus snapped states and targets."""

    scenario_name: str
    printed_moduli_1: tuple[float, ...]
    printed_phases_deg_1: tuple[float, ...]
    printed_moduli_2: tuple[float, ...]
    printed_phases_deg_2: tuple[float, ...]
    target: SolveTarget
    w1: QuantumState
    w2: QuantumState

    def verify(self, u: UtilityFunction = DEFAULT_UTILITY, tol: float = 5e-3) -> ValidationReport:
        scenario = self.w1.scenario
        return verify(scenario, self.w1, self.w2, self.target, u, tol)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario_name,
            "printed_moduli_1": list(self.printed_moduli_1),
            "printed_phases_deg_1": list(self.printed_phases_deg_1),
            "printed_moduli_2": list(self.printed_moduli_2),
            "printed_phases_deg_2": list(self.printed_phases_deg_2),
            "target": self.target.to_dict(),
            "w1": self.w1.to_dict(),
            "w2": self.w2.to_dict(),
        }


_PUBLISHED: dict[str, dict] = {
    "ellsberg3": {
        "moduli_1": (0.577, 0.644, 0.502),
        "phases_1": (0.0, 0.0, 0.0),
        "moduli_2": (0.577, 0.505, 0.641),
        "phases_2": (0.0, 238.48, 120.46),
    },
    "machina5051": {
        "moduli_1": (0.487, 0.508, 0.345, 0.621),
        "phases_1": (0.0, 0.0, 0.0, 90.0),
        "moduli_2": (0.605, 0.359, 0.530, 0.474),
        "phases_2": (90.0, 0.0, 180.0, 0.0),
    },
    "reflection_lower": {
        "moduli_1": (0.333, 0.624, 0.333, 0.624),
        "phases_1": (0.0, 0.0, 0.0, 0.0),
        "moduli_2": (0.342, 0.619, 0.342, 0.619),
        "phases_2": (180.0, 270.0, 0.0, 90.0),
    },
    "reflection_upper": {
        "moduli_1": (0.297, 0.642, 0.297, 0.642),
        "phases_1": (0.0, 0.0, 0.0, 0.0),
        "moduli_2": (0.353, 0.613, 0.353, 0.613),
        "phases_2": (0.0, 90.0, 180.0, 270.0),
    },
}


def paper_solutions(scenario: Union[Scenario, str]) -> PaperSolution:
    """The published solution pair for a built-in scenario, snapped onto the constraints."""
    if isinstance(scenario, str):
        scenario = builtin(scenario)
    entry = _PUBLISHED.get(scenario.name)
    if entry is None:
        raise ScenarioError(
            f"no published solution registered for scenario {scenario.name!r}; "
            f"known: {sorted(_PUBLISHED)}"
        )
    target = SolveTarget.for_scenario(scenario)
    w1 = state_from_polar(scenario, entry["moduli_1"], entry["phases_1"])
    w2 = state_from_polar(scenario, entry["moduli_2"], entry["phases_2"])
    return PaperSolution(
        scenario_name=scenario.name,
        printed_moduli_1=entry["moduli_1"],
        printed_phases_deg_1=entry["phases_1"],
        printed_moduli_2=entry["moduli_2"],
        printed_phases_deg_2=entry["phases_2"],
        target=target,
        w1=w1,
        w2=w2,
    )
