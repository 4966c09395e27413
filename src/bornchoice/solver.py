"""Search for orthogonal belief-state pairs hitting target utility gaps.

Given a scenario and two target expectation differences (one per
question pair), find unit vectors w1, w2 that satisfy the group
probability constraints exactly, are mutually orthogonal, and realize
the targets: the belief-state pairs that represent an observed joint
preference pattern. Group constraints and unit norm are built into the
parameterization (within-group hyperspherical splits plus free phases),
so the search is unconstrained least squares over the remaining
coordinates, solved by a small Levenberg–Marquardt loop on Python
floats: the system has at most four residuals, so each iteration solves
one 4×4 (or 2×2) linear system by Cholesky. Each restart starts from a
point drawn from ``random.Random(seed)``. Before any search, a target gap
outside the interval that any Born-rule state attains is certified
unreachable in exact arithmetic, and only restart 0 runs on it. The
module runs on the standard library and does not load numpy. Targets,
the residual check of a given pair and the registry of published pairs
are in :mod:`bornchoice.verification` and are re-exported here.
"""

from __future__ import annotations

import cmath
import math
import operator
import random
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import _value_class
from .quantum import QuantumState
from .scenarios import (
    DEFAULT_UTILITY,
    GROUP_SUM_TOL,
    Scenario,
    ScenarioError,
    UtilityFunction,
    support,
    utility_differences,
)

# the check of a given pair lives in the verification module, which
# verify-paper loads without this one; its names stay importable from here
from .verification import (  # noqa: F401
    PaperSolution,
    SolveTarget,
    _named_residuals,
    check_tolerance,
    paper_solutions,
    verify,
)

METHOD_DESCRIPTION = (
    "least squares (Levenberg-Marquardt) with analytic Jacobian over within-group "
    "hyperspherical moduli and free phases (first event's phase gauge-fixed to 0)"
)

@_value_class
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
        for name, least in (("restarts", 1), ("seed", 0), ("max_iterations", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ScenarioError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ScenarioError(f"{name} must be >= {least}, got {value}")
        check_tolerance(self.residual_tolerance)


@_value_class
class UnreachableCertificate:
    """A target gap that no state attains, and the exact bounds of that pair's gap.

    ``lower`` and ``upper`` are the exact ends of the attainable interval
    of ``pair``'s gap, rounded to floats; ``target`` lies outside them by
    more than the bound stated in :func:`certify_unreachable`.
    """

    pair: tuple[str, str]
    target: float
    lower: float
    upper: float

    def to_dict(self) -> dict:
        return {"pair": list(self.pair), "target": self.target, "lower": self.lower, "upper": self.upper}


@_value_class
class SolveResult:
    """Best state pair found, its per-equation residuals, and search metadata.

    ``restarts_used`` is the number of restarts actually run: at most
    ``SolverConfig.restarts``, fewer when a restart converged and the
    search stopped there, and 1 when ``certificate`` is set, which it is
    only for a target certified unreachable. ``best_restart`` is the
    0-based index of the winning restart: the converged one, or else the
    lowest-cost one.
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
    certificate: Optional[UnreachableCertificate] = None

    def to_dict(self) -> dict:
        out = {
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
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_dict()
        return out

    def summary(self) -> str:
        lines = [
            f"scenario {self.scenario_name}: solve "
            f"{'converged' if self.converged else 'did NOT converge'} "
            f"(cost {self.cost:.3e}, best restart {self.best_restart} of {self.restarts_used})"
        ]
        c = self.certificate
        if c is not None:
            lines.append(
                f"  unreachable: target {c.target:g} on {c.pair[0]}-{c.pair[1]} is outside "
                f"[{c.lower:.6g}, {c.upper:.6g}], the gaps any state attains"
            )
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
    magnitude plus the squared target misses. Points are any sequence of
    floats; residuals come back as a tuple and the Jacobian as a list of
    rows.
    """

    def __init__(self, scenario: Scenario, target: SolveTarget, u: UtilityFunction = DEFAULT_UTILITY):
        self.scenario = scenario
        self.target = target
        self.u = u
        self.gaps = tuple(utility_differences(scenario, *pair, u) for pair in (target.pair_1, target.pair_2))
        self.groups = [(list(idx), math.sqrt(float(t))) for idx, t in scenario.groups()]
        self.n_events = scenario.n_events
        self.n_angles = sum(len(idx) - 1 for idx, _ in self.groups)
        self.n_state_params = self.n_angles + (self.n_events - 1)
        self.n_params = 2 * self.n_state_params
        self.n_residuals = 4 if target.require_orthogonal else 2

    def initial_points(self, rng, count: int) -> list[tuple[float, ...]]:
        """``count`` starting points: angles uniform in [0, π/2), phases in [0, 2π).

        ``rng`` is any object whose ``random()`` returns floats in [0, 1);
        it is read point by point, coordinate by coordinate, so numpy's
        ``Generator`` gives the points of its bulk ``uniform(0, 1, (count,
        n_params))`` draw.
        """
        scale = ([math.pi / 2] * self.n_angles + [2 * math.pi] * (self.n_events - 1)) * 2
        return [tuple(rng.random() * s for s in scale) for _ in range(count)]

    def _state_parts(self, x: Sequence[float], base: int) -> tuple[list[float], list[list[float]], list[float]]:
        """One state's moduli, their derivatives and its phases, from ``x[base : base + n_state_params]``.

        In a group of total t with angles θ₀…θ_{k−2}, event a has modulus
        √t · sin θ₀ ⋯ sin θ_{a−1} · cos θ_a; the group's last event has no
        cosine. The derivatives come as one row per angle: ∂mₑ/∂angle for
        every event e.
        """
        m = [0.0] * self.n_events
        dm = []
        pos = base
        for idx, sqrt_t in self.groups:
            k = len(idx)
            angles = x[pos : pos + k - 1]
            sin = [math.sin(theta) for theta in angles]
            cos = [math.cos(theta) for theta in angles]
            value = sqrt_t
            for a in range(k - 1):
                m[idx[a]] = value * cos[a]
                value *= sin[a]
            m[idx[-1]] = value
            for j in range(k - 1):
                row = [0.0] * self.n_events
                for a in range(j, k):
                    d = sqrt_t
                    for b in range(a):
                        d *= cos[b] if b == j else sin[b]
                    if a < k - 1:
                        d *= -sin[a] if a == j else cos[a]
                    row[idx[a]] = d
                dm.append(row)
            pos += k - 1
        return m, dm, [0.0, *x[pos : base + self.n_state_params]]

    def residuals(self, x: Sequence[float]) -> tuple[float, ...]:
        m1, _, ph1 = self._state_parts(x, 0)
        m2, _, ph2 = self._state_parts(x, self.n_state_params)
        gap_1 = _dot([m * m for m in m1], self.gaps[0]) - self.target.d1
        gap_2 = _dot([m * m for m in m2], self.gaps[1]) - self.target.d2
        if not self.target.require_orthogonal:
            return gap_1, gap_2
        z = sum(map(cmath.rect, map(operator.mul, m1, m2), map(operator.sub, ph2, ph1)), 0j)
        return gap_1, gap_2, z.real, z.imag

    def jacobian(self, x: Sequence[float]) -> list[list[float]]:
        n = self.n_state_params
        m1, dm1, ph1 = self._state_parts(x, 0)
        m2, dm2, ph2 = self._state_parts(x, n)

        def angle_grad(weights, dm):
            # Σₑ weightsₑ ∂mₑ/∂θ for each angle θ of one state
            return [_dot(weights, row) for row in dm]

        no_phases = [0.0] * (self.n_events - 1)
        no_state = [0.0] * n
        jac = [
            angle_grad([2.0 * m * g for m, g in zip(m1, self.gaps[0])], dm1) + no_phases + no_state,
            no_state + angle_grad([2.0 * m * g for m, g in zip(m2, self.gaps[1])], dm2) + no_phases,
        ]
        if self.target.require_orthogonal:
            # the overlap's terms are m1ₑ m2ₑ (cos, sin)(φ2ₑ − φ1ₑ); event 0 has no phase parameter
            rel = list(map(operator.sub, ph2, ph1))
            cos = list(map(math.cos, rel))
            sin = list(map(math.sin, rel))
            mm = list(map(operator.mul, m1, m2))
            mm_cos = list(map(operator.mul, mm, cos))[1:]
            mm_sin = list(map(operator.mul, mm, sin))[1:]
            jac.append(
                angle_grad(list(map(operator.mul, m2, cos)), dm1) + mm_sin
                + angle_grad(list(map(operator.mul, m1, cos)), dm2) + [-v for v in mm_sin]
            )
            jac.append(
                angle_grad(list(map(operator.mul, m2, sin)), dm1) + [-v for v in mm_cos]
                + angle_grad(list(map(operator.mul, m1, sin)), dm2) + mm_cos
            )
        return jac

    def states(self, x: Sequence[float]) -> tuple[QuantumState, QuantumState]:
        out = []
        for base in (0, self.n_state_params):
            moduli, _, phases = self._state_parts(x, base)
            phases = [(p + math.pi if m < 0 else p) % (2 * math.pi) for m, p in zip(moduli, phases)]
            out.append(QuantumState(self.scenario, tuple(map(abs, moduli)), tuple(phases)))
        return out[0], out[1]


def _dot(a, b) -> float:
    return sum(map(operator.mul, a, b))


# Levenberg–Marquardt damping: lambda = mu * trace(J J^T) / m, with mu
# starting at MU_START, divided by MU_SHRINK after an accepted step and
# multiplied by MU_GROW after a rejected one. MU_FLOOR keeps J J^T + lambda I
# well conditioned where J J^T is singular (more residuals than parameters),
# so the Cholesky pivots stay far above round-off; a restart stops once mu
# passes MU_CEILING or a step is below round-off relative to x.
MU_START = 1e-3
MU_SHRINK = 3.0
MU_GROW = 4.0
MU_FLOOR = 1e-12
MU_CEILING = 1e16
STEP_RTOL = sys.float_info.epsilon


@_value_class
class Fit:
    """End point of one restart: the parameters and their residuals."""

    x: tuple[float, ...]
    fun: tuple[float, ...]


def _cholesky_solve(a: list[list[float]], b) -> list[float]:
    """y with a y = b, for a symmetric positive definite a; only its lower triangle is read."""
    n = len(b)
    low: list[list[float]] = []
    for i in range(n):
        row: list[float] = []
        for j in range(i):
            row.append((a[i][j] - _dot(row, low[j])) / low[j][j])
        row.append(math.sqrt(a[i][i] - _dot(row, row)))
        low.append(row)
    y: list[float] = []
    for i in range(n):
        y.append((b[i] - _dot(low[i], y)) / low[i][i])
    for i in reversed(range(n)):
        y[i] = (y[i] - sum(low[k][i] * y[k] for k in range(i + 1, n))) / low[i][i]
    return y


def least_squares(fun, x0: Sequence[float], jac, max_nfev: int) -> Fit:
    """Levenberg–Marquardt from ``x0`` with at most ``max_nfev`` evaluations of ``fun``.

    Each iteration solves the m×m system (J Jᵀ + λ I) y = r for the m
    residuals by Cholesky and steps by δ = −Jᵀ y, which is the damped
    Gauss–Newton step whether m is below or above the parameter count. A
    trial point is accepted only when its residuals are finite and its
    cost falls; a non-finite trial is a rejected step.
    """
    x = tuple(map(float, x0))
    r = fun(x)
    nfev = 1
    cost = _dot(r, r)
    J = jac(x)
    mu = MU_START
    m = len(r)
    while nfev < max_nfev and mu <= MU_CEILING:
        gram = [[_dot(a, b) for b in J] for a in J]
        scale = sum(gram[i][i] for i in range(m)) / m
        if not (math.isfinite(scale) and scale > 0):
            break
        for i in range(m):
            gram[i][i] += mu * scale
        y = _cholesky_solve(gram, r)
        step = [-_dot(column, y) for column in zip(*J)]
        if not math.hypot(*step) > STEP_RTOL * (STEP_RTOL + math.hypot(*x)):
            break
        trial = tuple(map(operator.add, x, step))
        r_trial = fun(trial)
        nfev += 1
        cost_trial = _dot(r_trial, r_trial)
        if math.isfinite(cost_trial) and cost_trial < cost:
            x, r, cost = trial, r_trial, cost_trial
            J = jac(x)
            mu = max(mu / MU_SHRINK, MU_FLOOR)
        else:
            mu *= MU_GROW
    return Fit(x=x, fun=tuple(r))


def certify_unreachable(system: ResidualSystem, tol: float) -> Optional[UnreachableCertificate]:
    """The first target gap no state pair can bring within ``tol`` of its target, or None.

    Question k's gap p·Δ depends only on the probabilities p of wₖ, which
    lie on the constraint polytope, so it spans exactly [lo, hi] =
    [−h(−Δ), h(Δ)], with h :func:`scenarios.support`. A solved state holds
    its group sums only within ``GROUP_SUM_TOL`` (1e-12) of the exact
    totals, and its residual is summed in floats, so that residual can be
    nearer the target than [lo, hi] is by up to

        slack = 1e-12·Σ_G max_{i∈G} |Δᵢ| + n·2⁻⁵⁰·max|Δ| + 2⁻⁵²·tol + 2⁻¹⁰⁷⁴

    over n events: the group sums, their float recomputation and the sum
    of p·Δ, then the rounding of the final difference against ``tol``.
    The target is certified when its distance to [lo, hi], computed in
    ``Fraction`` on the rationals the floats Δ and d store, exceeds
    ``tol + slack``; then no restart can pass the convergence test. The
    same distance in floats must exceed ``tol`` first; that is looser than
    the exact test by far more than its own rounding, and keeps the exact
    arithmetic off reachable targets.
    """
    groups = system.scenario.groups()
    float_groups = [(idx, float(t)) for idx, t in groups]
    target = system.target
    for pair, d, gap in zip((target.pair_1, target.pair_2), (target.d1, target.d2), system.gaps):
        if not (d - support(float_groups, gap) > tol or -support(float_groups, [-x for x in gap]) - d > tol):
            continue
        exact = [Fraction(x) for x in gap]
        lo, hi = -support(groups, [-x for x in exact]), support(groups, exact)
        distance = max(lo - Fraction(d), Fraction(d) - hi)
        exact_tol = Fraction(tol)
        slack = (
            Fraction(GROUP_SUM_TOL) * sum(max(abs(exact[i]) for i in idx) for idx, _ in groups)
            + Fraction(len(exact), 2**50) * max(map(abs, exact))
            + exact_tol / 2**52
            + Fraction(1, 2**1074)
        )
        if distance > exact_tol + slack:
            return UnreachableCertificate(pair=pair, target=d, lower=float(lo), upper=float(hi))
    return None


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

    A target that :func:`certify_unreachable` proves out of reach runs
    restart 0 alone, the same restart 0 as any other solve, and its
    result carries the certificate.
    """
    system = ResidualSystem(scenario, target, u)
    certificate = certify_unreachable(system, config.residual_tolerance)
    rng = random.Random(config.seed)
    best = None
    for index in range(config.restarts if certificate is None else 1):
        start = system.initial_points(rng, 1)[0]  # drawn only when its restart runs
        fit = least_squares(system.residuals, start, system.jacobian, config.max_iterations)
        cost = _dot(fit.fun, fit.fun)
        w1, w2 = system.states(fit.x)
        residuals = _named_residuals(scenario, w1, w2, target, *system.gaps)
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
        certificate=certificate,
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
    solutions). Unreachable targets yield an empty list, and a certified
    one stops the sweep at its first solve.
    """
    found: list[SolveResult] = []
    profiles: list[tuple[float, ...]] = []
    for offset in range(count):
        seeded = SolverConfig(
            config.restarts, config.seed + offset, config.max_iterations, config.residual_tolerance
        )
        result = solve(scenario, target, u, seeded)
        if result.certificate is not None:
            return []
        if not result.converged:
            continue
        profile = result.w1.probabilities() + result.w2.probabilities()
        if any(max(abs(a - b) for a, b in zip(profile, seen)) <= 1e-3 for seen in profiles):
            continue
        found.append(result)
        profiles.append(profile)
    return found
