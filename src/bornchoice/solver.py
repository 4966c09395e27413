"""Search for orthogonal belief-state pairs hitting target utility gaps.

Given a scenario and two target expectation differences (one per
question pair), find unit vectors w1, w2 that satisfy the group
probability constraints exactly, are mutually orthogonal, and realize
the targets: the belief-state pairs that represent an observed joint
preference pattern. Group constraints and unit norm are built into the
parameterization (within-group hyperspherical splits plus free phases),
so the search is unconstrained least squares over the remaining
coordinates, solved by a small Levenberg–Marquardt loop in numpy: the
system has at most four residuals, so each iteration solves one 4×4 (or
2×2) linear system. A registry of known solution vectors supports
regression verification without any search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from . import hilbert
from .quantum import QuantumState, state_from_polar
from .scenarios import (
    DEFAULT_UTILITY,
    Scenario,
    ScenarioError,
    UtilityFunction,
    builtin,
    utility_values,
)

METHOD_DESCRIPTION = (
    "least squares (Levenberg-Marquardt) with analytic Jacobian over within-group "
    "hyperspherical moduli and free phases (first event's phase gauge-fixed to 0)"
)

# default target gaps per built-in scenario, first and second question pair
DEFAULT_TARGETS: dict[str, tuple[float, float]] = {
    "ellsberg3": (0.815, 0.780),
    "machina5051": (0.580, 0.630),
    "reflection_lower": (0.575, 0.550),
    "reflection_upper": (0.670, 0.520),
}


@dataclass(frozen=True)
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
        """Targets on the scenario's two question pairs; gaps default to the registry values."""
        if len(scenario.question_pairs) != 2:
            raise ScenarioError(f"solving needs two question pairs; scenario {scenario.name!r} has one")
        if d1 is None or d2 is None:
            defaults = DEFAULT_TARGETS.get(scenario.name)
            if defaults is None:
                raise ScenarioError(
                    f"scenario {scenario.name!r} has no default targets; pass d1 and d2 explicitly"
                )
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
    """Raise ScenarioError unless a residual tolerance is finite and positive."""
    if not (math.isfinite(tol) and tol > 0):
        raise ScenarioError(f"residual_tolerance must be finite and positive, got {tol}")


@dataclass(frozen=True)
class SolverConfig:
    """Restart cap, seed, and convergence thresholds; fixed config gives identical output.

    ``max_iterations`` caps the residual evaluations of each restart,
    the starting point's included.
    """

    restarts: int = 64
    seed: int = 0
    max_iterations: int = 400
    residual_tolerance: float = 1e-8

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ScenarioError(f"restarts must be >= 1, got {self.restarts}")
        if self.seed < 0:
            raise ScenarioError(f"seed must be >= 0, got {self.seed}")
        if self.max_iterations < 1:
            raise ScenarioError(f"max_iterations must be >= 1, got {self.max_iterations}")
        check_tolerance(self.residual_tolerance)


@dataclass(frozen=True)
class SolveResult:
    """Best state pair found, its per-equation residuals, and search metadata.

    ``restarts_used`` is the number of restarts actually run: at most
    ``SolverConfig.restarts``, fewer when a restart converged and the
    search stopped there. ``best_restart`` is the 0-based index of the
    winning restart: the converged one, or else the lowest-cost one.
    """

    scenario_name: str
    target: SolveTarget
    w1: QuantumState
    w2: QuantumState
    residuals: dict[str, float]
    converged: bool
    cost: float
    restarts_used: int
    best_restart: int
    method: str = METHOD_DESCRIPTION

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario_name,
            "target": self.target.to_dict(),
            "w1": self.w1.to_dict(),
            "w2": self.w2.to_dict(),
            "residuals": dict(self.residuals),
            "converged": self.converged,
            "cost": self.cost,
            "restarts_used": self.restarts_used,
            "best_restart": self.best_restart,
            "method": self.method,
        }

    def summary(self) -> str:
        lines = [
            f"scenario {self.scenario_name}: solve "
            f"{'converged' if self.converged else 'did NOT converge'} "
            f"(cost {self.cost:.3e}, best restart {self.best_restart} of {self.restarts_used})"
        ]
        for name, value in self.residuals.items():
            lines.append(f"  residual {name}: {value:+.3e}")
        return "\n".join(lines)


class ResidualSystem:
    """Residuals and analytic Jacobian for the state-pair equations.

    Parameter vector layout: for each of the two states, first the
    within-group angles (k-1 per group of size k, moduli are the group
    total's square root times hyperspherical coordinates), then one
    phase per event except event 0, whose phase is fixed to 0 to remove
    the global-phase flat direction. Residuals: expectation gap of pair
    1 in state 1 minus d1, gap of pair 2 in state 2 minus d2, and (when
    orthogonality is required) the real and imaginary parts of the
    overlap, so the squared residual norm is exactly the squared overlap
    magnitude plus the squared target misses.
    """

    def __init__(self, scenario: Scenario, target: SolveTarget, u: UtilityFunction = DEFAULT_UTILITY):
        self.scenario = scenario
        self.target = target
        self.u = u
        self.delta_1, self.delta_2 = _gap_vectors(scenario, target, u)
        self.groups = [(list(idx), math.sqrt(float(t))) for idx, t in scenario.groups()]
        self.n_events = scenario.n_events
        self.n_angles = sum(len(idx) - 1 for idx, _ in self.groups)
        self.n_state_params = self.n_angles + (self.n_events - 1)
        self.n_params = 2 * self.n_state_params
        self.n_residuals = 4 if target.require_orthogonal else 2

    def initial_points(self, rng: np.random.Generator, count: int) -> np.ndarray:
        x = rng.uniform(0.0, 1.0, size=(count, self.n_params))
        for s in range(2):
            base = s * self.n_state_params
            x[:, base : base + self.n_angles] *= math.pi / 2
            x[:, base + self.n_angles : base + self.n_state_params] *= 2 * math.pi
        return x

    def _state_parts(self, x: np.ndarray, which: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Moduli, their Jacobian w.r.t. the angles, and the full phase vector."""
        base = which * self.n_state_params
        angles = x[base : base + self.n_angles]
        phases = np.zeros(self.n_events)
        phases[1:] = x[base + self.n_angles : base + self.n_state_params]
        m = np.zeros(self.n_events)
        dm = np.zeros((self.n_events, self.n_angles))
        pos = 0
        for idx, sqrt_t in self.groups:
            k = len(idx)
            local = angles[pos : pos + k - 1]
            sin = np.sin(local)
            cos = np.cos(local)
            for a, event in enumerate(idx):
                value = sqrt_t
                for b in range(a):
                    value *= sin[b]
                if a < k - 1:
                    value *= cos[a]
                m[event] = value
                for j in range(k - 1):
                    if j > a:
                        continue
                    d = sqrt_t
                    for b in range(a):
                        d *= cos[b] if b == j else sin[b]
                    if a < k - 1:
                        d *= -sin[a] if j == a else cos[a]
                    dm[event, pos + j] = d
            pos += k - 1
        return m, dm, phases

    def residuals(self, x: np.ndarray) -> np.ndarray:
        m1, _, ph1 = self._state_parts(x, 0)
        m2, _, ph2 = self._state_parts(x, 1)
        r = np.empty(self.n_residuals)
        r[0] = float(np.dot(m1 * m1, self.delta_1)) - self.target.d1
        r[1] = float(np.dot(m2 * m2, self.delta_2)) - self.target.d2
        if self.target.require_orthogonal:
            z = np.sum(m1 * m2 * np.exp(1j * (ph2 - ph1)))
            r[2] = z.real
            r[3] = z.imag
        return r

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        m1, dm1, ph1 = self._state_parts(x, 0)
        m2, dm2, ph2 = self._state_parts(x, 1)
        jac = np.zeros((self.n_residuals, self.n_params))
        a1 = slice(0, self.n_angles)
        f1 = slice(self.n_angles, self.n_state_params)
        a2 = slice(self.n_state_params, self.n_state_params + self.n_angles)
        f2 = slice(self.n_state_params + self.n_angles, self.n_params)
        jac[0, a1] = 2.0 * (m1 * self.delta_1) @ dm1
        jac[1, a2] = 2.0 * (m2 * self.delta_2) @ dm2
        if self.target.require_orthogonal:
            rel = ph2 - ph1
            cos = np.cos(rel)
            sin = np.sin(rel)
            jac[2, a1] = (m2 * cos) @ dm1
            jac[2, a2] = (m1 * cos) @ dm2
            jac[2, f1] = (m1 * m2 * sin)[1:]
            jac[2, f2] = (-m1 * m2 * sin)[1:]
            jac[3, a1] = (m2 * sin) @ dm1
            jac[3, a2] = (m1 * sin) @ dm2
            jac[3, f1] = (-m1 * m2 * cos)[1:]
            jac[3, f2] = (m1 * m2 * cos)[1:]
        return jac

    def states(self, x: np.ndarray) -> tuple[QuantumState, QuantumState]:
        out = []
        for which in range(2):
            m, _, phases = self._state_parts(x, which)
            negative = m < 0
            moduli = np.abs(m)
            phases = np.where(negative, phases + math.pi, phases)
            phases = np.mod(phases, 2 * math.pi)
            out.append(QuantumState(self.scenario, tuple(moduli.tolist()), tuple(phases.tolist())))
        return out[0], out[1]


# Levenberg–Marquardt damping: lambda = mu * trace(J J^T) / m, with mu
# starting at MU_START, divided by MU_SHRINK after an accepted step and
# multiplied by MU_GROW after a rejected one. MU_FLOOR keeps J J^T + lambda I
# well conditioned where J J^T is singular (more residuals than parameters);
# a restart stops once mu passes MU_CEILING or a step is below round-off
# relative to x.
MU_START = 1e-3
MU_SHRINK = 3.0
MU_GROW = 4.0
MU_FLOOR = 1e-12
MU_CEILING = 1e16
STEP_RTOL = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Fit:
    """End point of one restart: the parameters and their residuals."""

    x: np.ndarray
    fun: np.ndarray


def least_squares(fun, x0: np.ndarray, jac, max_nfev: int) -> Fit:
    """Levenberg–Marquardt from ``x0`` with at most ``max_nfev`` evaluations of ``fun``.

    Each iteration solves the m×m system (J Jᵀ + λ I) y = r for the m
    residuals and steps by δ = −Jᵀ y, which is the damped Gauss–Newton
    step whether m is below or above the parameter count. A trial point
    is accepted only when its residuals are finite and its cost falls;
    a non-finite trial is a rejected step.
    """
    x = np.array(x0, dtype=float)
    r = fun(x)
    nfev = 1
    cost = float(r @ r)
    J = jac(x)
    mu = MU_START
    while nfev < max_nfev and mu <= MU_CEILING:
        gram = J @ J.T
        scale = float(np.trace(gram)) / len(r)
        if not (math.isfinite(scale) and scale > 0):
            break
        gram[np.diag_indices_from(gram)] += mu * scale
        step = -J.T @ np.linalg.solve(gram, r)
        if not float(np.linalg.norm(step)) > STEP_RTOL * (STEP_RTOL + float(np.linalg.norm(x))):
            break
        trial = x + step
        r_trial = fun(trial)
        nfev += 1
        cost_trial = float(r_trial @ r_trial)
        if math.isfinite(cost_trial) and cost_trial < cost:
            x, r, cost = trial, r_trial, cost_trial
            J = jac(x)
            mu = max(mu / MU_SHRINK, MU_FLOOR)
        else:
            mu *= MU_GROW
    return Fit(x=x, fun=r)


def _gap_vectors(
    scenario: Scenario, target: SolveTarget, u: UtilityFunction
) -> tuple[np.ndarray, np.ndarray]:
    """Per-event utility differences of question pair 1 and of question pair 2."""
    (a1, b1), (a2, b2) = target.pair_1, target.pair_2
    return (
        utility_values(scenario, a1, u) - utility_values(scenario, b1, u),
        utility_values(scenario, a2, u) - utility_values(scenario, b2, u),
    )


def _named_residuals(
    scenario: Scenario,
    w1: QuantumState,
    w2: QuantumState,
    target: SolveTarget,
    d_1: np.ndarray,
    d_2: np.ndarray,
) -> dict[str, float]:
    """Every equation's residual; ``d_1``/``d_2`` are the pairs' gap vectors."""
    p1 = np.array(w1.probabilities())
    p2 = np.array(w2.probabilities())
    out = {
        "target_1": float(np.dot(p1, d_1)) - target.d1,
        "target_2": float(np.dot(p2, d_2)) - target.d2,
    }
    z = hilbert.inner_product(w1.ket(), w2.ket())
    out["overlap_re"] = float(z.real)
    out["overlap_im"] = float(z.imag)
    out["norm_w1"] = float(p1.sum() - 1.0)
    out["norm_w2"] = float(p2.sum() - 1.0)
    for idx, t in scenario.groups():
        labels = "".join(scenario.events[i] for i in idx)
        out[f"group_{labels}_w1"] = float(sum(p1[i] for i in idx) - float(t))
        out[f"group_{labels}_w2"] = float(sum(p2[i] for i in idx) - float(t))
    return out


def _converged(residuals: dict[str, float], target: SolveTarget, tol: float) -> bool:
    checked = dict(residuals)
    if not target.require_orthogonal:
        checked.pop("overlap_re")
        checked.pop("overlap_im")
    return all(abs(v) <= tol for v in checked.values())


def solve(
    scenario: Scenario,
    target: SolveTarget,
    u: UtilityFunction = DEFAULT_UTILITY,
    config: SolverConfig = SolverConfig(),
) -> SolveResult:
    """Find a state pair meeting the targets; seeded random restarts in order.

    Each restart runs ``least_squares`` (Levenberg–Marquardt) for at most
    ``config.max_iterations`` residual evaluations. The search stops at
    the first restart whose named residuals pass the convergence test at
    ``config.residual_tolerance``, the same test that sets
    ``SolveResult.converged``. If none passes, the lowest sum of squared
    residuals wins, with ties broken by the earliest restart. Either way
    the outcome is deterministic for a fixed seed, and ``restarts_used``
    counts the restarts actually run. Non-convergence is reported in the
    result, not raised: the best residuals found are always returned.
    """
    system = ResidualSystem(scenario, target, u)
    rng = np.random.default_rng(config.seed)
    starts = system.initial_points(rng, config.restarts)
    best = None
    for index in range(config.restarts):
        fit = least_squares(system.residuals, starts[index], system.jacobian, config.max_iterations)
        cost = float(np.sum(fit.fun**2))
        w1, w2 = system.states(fit.x)
        residuals = _named_residuals(scenario, w1, w2, target, system.delta_1, system.delta_2)
        converged = _converged(residuals, target, config.residual_tolerance)
        if best is None or cost < best[0] or converged:
            best = (cost, index, w1, w2, residuals, converged)
        if converged:
            break
    cost, best_index, w1, w2, residuals, converged = best
    return SolveResult(
        scenario_name=scenario.name,
        target=target,
        w1=w1,
        w2=w2,
        residuals=residuals,
        converged=converged,
        cost=cost,
        restarts_used=index + 1,
        best_restart=best_index,
    )


def verify(
    scenario: Scenario,
    w1: QuantumState,
    w2: QuantumState,
    target: SolveTarget,
    u: UtilityFunction = DEFAULT_UTILITY,
    tol: float = 1e-8,
) -> hilbert.ValidationReport:
    """Recompute every equation for a given state pair; no search.

    Group-constraint lines are held to the tighter of ``tol`` and 2e-3,
    since rounded three-decimal vectors are expected to sit within 2e-3
    of the exact group totals once projected.
    """
    residuals = _named_residuals(scenario, w1, w2, target, *_gap_vectors(scenario, target, u))
    group_tol = min(tol, 2e-3)
    checks = []
    for name, value in residuals.items():
        if name in ("overlap_re", "overlap_im") and not target.require_orthogonal:
            continue
        line_tol = group_tol if name.startswith(("group_", "norm_")) else tol
        checks.append(hilbert.CheckLine(name=name, deviation=abs(value), tolerance=line_tol))
    return hilbert.ValidationReport(
        subject=f"state pair for {scenario.name} "
        f"(targets {target.d1:g} on {target.pair_1[0]}-{target.pair_1[1]}, "
        f"{target.d2:g} on {target.pair_2[0]}-{target.pair_2[1]})",
        checks=tuple(checks),
    )


@dataclass(frozen=True)
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

    def verify(self, u: UtilityFunction = DEFAULT_UTILITY, tol: float = 5e-3) -> hilbert.ValidationReport:
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


def explore_solution_family(
    scenario: Scenario,
    target: SolveTarget,
    u: UtilityFunction = DEFAULT_UTILITY,
    config: SolverConfig = SolverConfig(),
    count: int = 5,
) -> list[SolveResult]:
    """Up to ``count`` converged solutions with distinct probability assignments.

    Runs the solver under successive seeds; two solutions count as
    distinct only when their subjective-probability vectors differ by
    more than 1e-3 somewhere (phase-only differences do not separate
    solutions). Unreachable targets yield an empty list.
    """
    found: list[SolveResult] = []
    profiles: list[np.ndarray] = []
    for offset in range(count):
        result = solve(scenario, target, u, replace(config, seed=config.seed + offset))
        if not result.converged:
            continue
        mu = np.array(result.w1.probabilities() + result.w2.probabilities())
        if any(float(np.max(np.abs(mu - seen))) <= 1e-3 for seen in profiles):
            continue
        found.append(result)
        profiles.append(mu)
    return found
