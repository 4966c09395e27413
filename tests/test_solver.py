"""Tests for the orthogonal state-pair solver and the published-solution registry."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bornchoice import quantum, solver, stats
from bornchoice.scenarios import (
    BUILTIN_NAMES,
    Act,
    ProbabilityConstraint,
    Scenario,
    ScenarioError,
    builtin,
    load_scenario,
)
from bornchoice.solver import (
    ResidualSystem,
    SolveTarget,
    SolverConfig,
    explore_solution_family,
    paper_solutions,
    solve,
    verify,
)

# moduli as printed (3 decimals) and their squares after the exact
# within-group rescale; recomputed from p_i = printed_i^2 * t / s with
# s the printed squared group sum
PRINTED = {
    "ellsberg3": ((0.577, 0.644, 0.502), (0.577, 0.505, 0.641)),
    "machina5051": ((0.487, 0.508, 0.345, 0.621), (0.605, 0.359, 0.530, 0.474)),
    "reflection_lower": ((0.333, 0.624, 0.333, 0.624), (0.342, 0.619, 0.342, 0.619)),
    "reflection_upper": ((0.297, 0.642, 0.297, 0.642), (0.353, 0.613, 0.353, 0.613)),
}
PROJECTED_PROBS = {
    "ellsberg3": (
        (0.333333333333, 0.414690384058, 0.251976282609),
        (0.333333333333, 0.255316315916, 0.411350350750),
    ),
    "machina5051": (
        (0.237081123511, 0.257968381440, 0.119092097889, 0.385858397160),
        (0.366131134093, 0.128918370857, 0.280552467007, 0.224398028043),
    ),
    "reflection_lower": (
        (0.110830259962, 0.389169740038, 0.110830259962, 0.389169740038),
        (0.116934766308, 0.383065233692, 0.116934766308, 0.383065233692),
    ),
    "reflection_upper": (
        (0.088143245139, 0.411856754861, 0.088143245139, 0.411856754861),
        (0.124514866761, 0.375485133239, 0.124514866761, 0.375485133239),
    ),
}
REALIZED_GAPS = {
    "ellsberg3": (0.813570507244, 0.780170174169),
    "machina5051": (0.578113468568, 0.631221624289),
    "reflection_lower": (0.576459937956, 0.551174244754),
    "reflection_upper": (0.670432630251, 0.519776440639),
}


# -- targets and configuration -------------------------------------------

def default_targets(name):
    """A built-in's default (d1, d2)."""
    target = SolveTarget.for_scenario(builtin(name))
    return target.d1, target.d2


def test_default_targets_table():
    assert {name: default_targets(name) for name in BUILTIN_NAMES} == {
        "ellsberg3": (0.815, 0.780),
        "machina5051": (0.580, 0.630),
        "reflection_lower": (0.575, 0.550),
        "reflection_upper": (0.670, 0.520),
    }


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_default_targets_are_the_bundled_preference_weights(name):
    counts = dict(stats.load_counts_csv(stats.BUNDLED_COUNTS))[name]
    assert default_targets(name) == stats.preference_weights(counts, builtin(name))


def test_solve_target_for_scenario():
    s = builtin("ellsberg3")
    t = SolveTarget.for_scenario(s)
    assert t.pair_1 == ("f1", "f2") and t.d1 == 0.815
    assert t.pair_2 == ("f4", "f3") and t.d2 == 0.780
    assert t.require_orthogonal
    override = SolveTarget.for_scenario(s, d1=0.5)
    assert override.d1 == 0.5 and override.d2 == 0.780
    lo = SolveTarget.for_scenario(builtin("reflection_lower"))
    assert lo.pair_2 == ("f3", "f4") and lo.d2 == 0.550


def test_solve_target_validation():
    with pytest.raises(ScenarioError, match="finite"):
        SolveTarget(("f1", "f2"), math.nan, ("f4", "f3"), 0.5)
    doc = builtin("ellsberg3").to_document()
    doc["name"] = "custom"
    custom = load_scenario(doc)
    with pytest.raises(ScenarioError, match="no default targets"):
        SolveTarget.for_scenario(custom)
    # explicit gaps work for any scenario
    t = SolveTarget.for_scenario(custom, d1=0.1, d2=0.2)
    assert (t.d1, t.d2) == (0.1, 0.2)


def test_solver_config_validation():
    with pytest.raises(ScenarioError, match="restarts"):
        SolverConfig(restarts=0)
    with pytest.raises(ScenarioError, match="seed must be >= 0, got -1"):
        SolverConfig(seed=-1)
    with pytest.raises(ScenarioError, match="max_iterations"):
        SolverConfig(max_iterations=0)
    with pytest.raises(ScenarioError, match="residual_tolerance"):
        SolverConfig(residual_tolerance=0.0)
    with pytest.raises(ScenarioError, match="residual_tolerance"):
        SolverConfig(residual_tolerance=True)
    for field in ("restarts", "seed", "max_iterations"):
        for value in (2.5, 1.0, True, False):
            with pytest.raises(ScenarioError, match=f"{field} must be an integer, got {value}"):
                SolverConfig(**{field: value})


@pytest.mark.parametrize("tol", ["1e-8", None, 1e-8j])
def test_solver_config_rejects_a_non_number_tolerance(tol):
    with pytest.raises(ScenarioError, match=f"residual_tolerance must be finite and positive, got {tol!r}"):
        SolverConfig(residual_tolerance=tol)


def test_explore_family_seeds_an_equal_config_per_offset(monkeypatch):
    seen = []
    monkeypatch.setattr(solver, "solve", lambda s, t, u, config: seen.append(config) or SimpleNamespace(converged=False, certificate=None))
    s = builtin("ellsberg3")
    config = SolverConfig(restarts=3, seed=5, max_iterations=7, residual_tolerance=1e-6)
    assert explore_solution_family(s, SolveTarget.for_scenario(s), config=config, count=3) == []
    assert seen == [
        SolverConfig(restarts=3, seed=seed, max_iterations=7, residual_tolerance=1e-6) for seed in (5, 6, 7)
    ]


def test_value_objects_copy_with_changed_fields_through_the_standard_library():
    # the benchmark's checker self-tests corrupt results this way
    import dataclasses

    s = builtin("ellsberg3")
    result = solve(s, SolveTarget.for_scenario(s), config=SolverConfig(restarts=1))
    moved = dataclasses.replace(result, converged=not result.converged)
    assert moved.converged is not result.converged and moved.w1 is result.w1
    assert dataclasses.replace(moved, converged=result.converged) == result
    phases = (0.0,) + result.w2.phases[1:]
    assert dataclasses.replace(result.w2, phases=phases).phases == phases
    with pytest.raises(ScenarioError, match="restarts"):
        dataclasses.replace(SolverConfig(), restarts=0)


@pytest.mark.parametrize("tol", [math.inf, math.nan])
def test_solver_config_rejects_non_finite_tolerance(tol):
    with pytest.raises(ScenarioError, match="residual_tolerance must be finite and positive"):
        SolverConfig(residual_tolerance=tol)


# -- published-solution registry -------------------------------------------

@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_registry_keeps_printed_values_verbatim(name):
    sol = paper_solutions(name)
    assert sol.printed_moduli_1 == PRINTED[name][0]
    assert sol.printed_moduli_2 == PRINTED[name][1]
    data = sol.to_dict()
    assert data["printed_moduli_2"] == list(PRINTED[name][1])
    assert data["target"]["d1"] == default_targets(name)[0]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_registry_states_project_onto_constraints(name):
    sol = paper_solutions(name)
    assert sol.w1.probabilities() == pytest.approx(PROJECTED_PROBS[name][0], abs=1e-9)
    assert sol.w2.probabilities() == pytest.approx(PROJECTED_PROBS[name][1], abs=1e-9)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_registry_passes_verify_at_half_percent(name):
    sol = paper_solutions(name)
    report = sol.verify()
    assert report.passed, report.summary()
    d1, d2 = default_targets(name)
    g1, g2 = REALIZED_GAPS[name]
    assert report.check("target_1").deviation == pytest.approx(abs(g1 - d1), abs=1e-9)
    assert report.check("target_2").deviation == pytest.approx(abs(g2 - d2), abs=1e-9)
    # group lines are held to the tighter 2e-3 tolerance
    for line in report.checks:
        if line.name.startswith("group_"):
            assert line.tolerance == 2e-3
            assert line.deviation <= 1e-12


def test_registry_orthogonality_magnitudes():
    z = quantum.overlap(*_pair("ellsberg3"))
    assert 1e-4 <= abs(z) <= 2e-4
    z = quantum.overlap(*_pair("machina5051"))
    assert 5e-4 <= abs(z) <= 6e-4
    for name in ("reflection_lower", "reflection_upper"):
        # the twofold symmetry of the printed vectors cancels the overlap exactly
        assert abs(quantum.overlap(*_pair(name))) <= 1e-12


def _pair(name):
    sol = paper_solutions(name)
    return sol.w1, sol.w2


def test_registry_accepts_scenario_objects_and_rejects_unknown():
    sol = paper_solutions(builtin("machina5051"))
    assert sol.scenario_name == "machina5051"
    doc = builtin("ellsberg3").to_document()
    doc["name"] = "custom"
    with pytest.raises(ScenarioError, match="no published solution"):
        paper_solutions(load_scenario(doc))


# -- solve ------------------------------------------------------------------

@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_solve_converges_on_builtin_targets(name):
    s = builtin(name)
    target = SolveTarget.for_scenario(s)
    result = solve(s, target)
    assert result.converged, result.summary()
    assert all(abs(v) <= 1e-8 for v in result.residuals.values())
    assert result.restarts_used == result.best_restart + 1
    # a converged result re-verifies at the residual tolerance
    assert verify(s, result.w1, result.w2, target, tol=1e-8).passed


def reference_solve(scenario, target, config=SolverConfig()):
    """Every restart run through ``solver.least_squares``; the first converged one wins, else the lowest cost."""
    system = ResidualSystem(scenario, target)
    starts = system.initial_points(random.Random(config.seed), config.restarts)
    fits = []
    for index, start in enumerate(starts):
        fit = solver.least_squares(system.residuals, start, system.jacobian, config.max_iterations)
        w1, w2 = system.states(fit.x)
        residuals = solver._named_residuals(scenario, w1, w2, target, *system.gaps)
        converged = solver._converged(residuals, target, config.residual_tolerance)
        fits.append((sum(r * r for r in fit.fun), index, w1, w2, residuals, converged))
    converged = [f for f in fits if f[5]]
    return converged[0] if converged else min(fits, key=lambda f: f[:2])


@pytest.mark.parametrize(
    "name, max_iterations",
    [(name, 400) for name in BUILTIN_NAMES]
    # capped evaluations on ellsberg3: at 10 per restart, restart 3 is the
    # first to converge; at 5, no restart converges, so all 64 run (the
    # best cost, about 6.0e-14, sits below the former 1e-12 early-exit
    # band); reflection_upper converges at restart 0 within 15
    + [("ellsberg3", 10), ("ellsberg3", 5), ("reflection_upper", 15)],
)
def test_solve_early_exit_matches_running_every_restart(name, max_iterations):
    s = builtin(name)
    target = SolveTarget.for_scenario(s)
    config = SolverConfig(max_iterations=max_iterations)
    result = solve(s, target, config=config)
    cost, best_index, w1, w2, residuals, converged = reference_solve(s, target, config)
    assert result.w1 == w1 and result.w2 == w2
    assert result.residuals == residuals
    assert result.cost == cost
    assert result.best_restart == best_index
    assert result.converged is converged
    assert result.restarts_used == (best_index + 1 if converged else config.restarts)


def test_solve_stops_only_at_a_converged_restart(monkeypatch):
    # restart 0 ends at cost ~2.3e-14 with target_1 off by 1.5e-7, which
    # fails the 1e-8 convergence test; restart 1 converges
    s = builtin("ellsberg3")
    target = SolveTarget.for_scenario(s)
    system = ResidualSystem(s, target)
    exact = solve(s, target)
    assert exact.converged
    start = system.initial_points(random.Random(0), exact.restarts_used)[exact.best_restart]
    x_star = solver.least_squares(system.residuals, start, jac=system.jacobian, max_nfev=400).x
    shift = np.linalg.lstsq(system.jacobian(x_star), np.array([1.5e-7, 0.0, 0.0, 0.0]), rcond=None)[0]
    ends = [tuple(x_star + shift), x_star]
    calls = []

    def fixed_fit(fun, x0, *args, **kwargs):
        x = ends[len(calls)]
        calls.append(x)
        return SimpleNamespace(x=x, fun=fun(x))

    monkeypatch.setattr(solver, "least_squares", fixed_fit)
    # restart 0's cost lies far below 1e-12, yet it is not converged
    assert sum(r * r for r in system.residuals(ends[0])) == pytest.approx(2.3e-14, rel=0.1)
    result = solve(s, target)
    assert result.converged
    assert result.best_restart == 1
    assert result.restarts_used == 2
    assert len(calls) == 2


# -- scipy's trf as the reference solver ----------------------------------------

def trf_least_squares(fun, x0, jac, max_nfev):
    """scipy's trust-region reflective least squares, as ``solve`` ran it before Levenberg–Marquardt."""
    return scipy.optimize.least_squares(
        fun, x0, jac=jac, method="trf", xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=max_nfev
    )


def trf_solve(monkeypatch, scenario, target, config=SolverConfig()):
    with monkeypatch.context() as patch:
        patch.setattr(solver, "least_squares", trf_least_squares)
        return solve(scenario, target, config=config)


def test_solve_converges_wherever_trf_does(monkeypatch):
    # the registry targets shifted by -0.05, 0 and +0.05 in both gaps
    missed = []
    for name in BUILTIN_NAMES:
        s = builtin(name)
        for shift_1 in (-0.05, 0.0, 0.05):
            for shift_2 in (-0.05, 0.0, 0.05):
                d1, d2 = default_targets(name)
                target = SolveTarget.for_scenario(s, d1=d1 + shift_1, d2=d2 + shift_2)
                if trf_solve(monkeypatch, s, target).converged and not solve(s, target).converged:
                    missed.append((name, target.d1, target.d2))
    assert missed == []


# relative tolerance on the best cost against trf's, fixed before measuring
UNREACHABLE_COST_RTOL = 1e-4


@pytest.mark.parametrize(
    "name, d1, d2",
    [
        ("ellsberg3", 20.0, None),
        ("ellsberg3", 5.0, None),
        ("ellsberg3", -5.0, None),
        ("machina5051", None, 4.0),
        ("reflection_lower", -3.0, None),
        ("reflection_upper", None, 3.0),
    ],
)
def test_unreachable_best_cost_matches_trf(monkeypatch, name, d1, d2):
    s = builtin(name)
    target = SolveTarget.for_scenario(s, d1=d1, d2=d2)
    config = SolverConfig(restarts=8)
    result = solve(s, target, config=config)
    reference = trf_solve(monkeypatch, s, target, config)
    assert not result.converged and not reference.converged
    assert result.cost <= reference.cost * (1 + UNREACHABLE_COST_RTOL)


# -- certified unreachable targets ---------------------------------------------

def interval_and_bound(groups, gap, tol):
    """The exact [lo, hi] of p . gap over the polytope and the distance beyond it that certifies.

    Restates the bound of ``solver.certify_unreachable``: tol, plus 1e-12 per
    group times that group's largest |gap|, plus the rounding terms.
    """
    exact = [Fraction(x) for x in gap]
    lo = sum(t * min(exact[i] for i in idx) for idx, t in groups)
    hi = sum(t * max(exact[i] for i in idx) for idx, t in groups)
    slack = (
        Fraction(1e-12) * sum(max(abs(exact[i]) for i in idx) for idx, _ in groups)
        + len(exact) * max(abs(x) for x in exact) / 2**50
        + Fraction(tol) / 2**52
        + Fraction(1, 2**1074)
    )
    return lo, hi, Fraction(tol) + slack


def distance(lo, hi, d):
    return max(lo - Fraction(d), Fraction(d) - hi)


@st.composite
def certify_cases(draw):
    """A 2-4-event scenario in 1-3 groups, sqrt gaps from integer payoffs, targets near or past the ends."""
    n = draw(st.integers(min_value=2, max_value=4))
    k = draw(st.integers(min_value=1, max_value=min(3, n)))
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=n - 1), min_size=k - 1, max_size=k - 1)))
    weights = draw(st.lists(st.integers(min_value=1, max_value=9), min_size=k, max_size=k))
    groups = [
        (tuple(range(lo, hi)), Fraction(w, sum(weights))) for lo, hi, w in zip([0] + cuts, cuts + [n], weights)
    ]
    payoffs = [draw(st.lists(st.integers(min_value=0, max_value=100), min_size=n, max_size=n)) for _ in range(4)]
    scenario = Scenario(
        "generated",
        tuple(f"E{i}" for i in range(n)),
        tuple(Act(f"f{j + 1}", tuple(p)) for j, p in enumerate(payoffs)),
        tuple(ProbabilityConstraint(frozenset(idx), t) for idx, t in groups),
        ((0, 1), (3, 2)),
    )
    gaps = [
        tuple(math.sqrt(x) - math.sqrt(y) for x, y in zip(payoffs[a], payoffs[b])) for a, b in ((0, 1), (3, 2))
    ]
    tol = draw(st.sampled_from([1e-12, 1e-8, 1e-6]))
    targets = []
    for gap in gaps:
        lo, hi, bound = interval_and_bound(groups, gap, tol)
        end = draw(st.sampled_from([lo, hi]))
        # anywhere near the interval, or past an end by tol plus up to twice the slack
        slack = float(bound) - tol
        offset = draw(st.one_of(
            st.floats(min_value=-5, max_value=5),
            st.floats(min_value=0, max_value=2).map(lambda r: tol + r * slack),
        ))
        targets.append(float(end) + (offset if end == hi else -offset))
    target = SolveTarget.for_scenario(scenario, d1=targets[0], d2=targets[1])
    return scenario, groups, gaps, target, tol


def expected_certificate(groups, gaps, target, tol):
    for k, (pair, d, gap) in enumerate(zip((target.pair_1, target.pair_2), (target.d1, target.d2), gaps), 1):
        lo, hi, bound = interval_and_bound(groups, gap, tol)
        if distance(lo, hi, d) > bound:
            return k, solver.UnreachableCertificate(pair, d, float(lo), float(hi))
    return None, None


@settings(max_examples=300, deadline=None)
@given(case=certify_cases())
def test_certified_exactly_when_the_distance_exceeds_the_bound(case):
    scenario, groups, gaps, target, tol = case
    system = ResidualSystem(scenario, target)
    assert system.gaps == tuple(gaps)
    assert solver.certify_unreachable(system, tol) == expected_certificate(groups, gaps, target, tol)[1]


@settings(max_examples=25, deadline=None)
@given(case=certify_cases())
def test_certified_solve_stays_at_least_the_distance_away(case):
    scenario, groups, gaps, target, tol = case
    k, certificate = expected_certificate(groups, gaps, target, tol)
    assume(certificate is not None)
    result = solve(scenario, target, config=SolverConfig(restarts=4, max_iterations=60, residual_tolerance=tol))
    assert result.certificate == certificate
    assert not result.converged and result.restarts_used == 1
    lo, hi, bound = interval_and_bound(groups, gaps[k - 1], tol)
    # the residual may sit nearer the target than the interval by the slack, no more
    assert Fraction(abs(result.residuals[f"target_{k}"])) >= distance(lo, hi, certificate.target) - (
        bound - Fraction(tol))


def test_certification_threshold_to_the_ulp():
    s = builtin("ellsberg3")
    tol = SolverConfig().residual_tolerance
    gap = ResidualSystem(s, SolveTarget.for_scenario(s)).gaps[0]
    lo, hi, bound = interval_and_bound(s.groups(), gap, tol)
    assert (lo, hi) == (Fraction(-10, 3), Fraction(10, 3))

    def certified(d):
        return solver.certify_unreachable(ResidualSystem(s, SolveTarget.for_scenario(s, d1=d)), tol) is not None

    for end, outward in ((hi, math.inf), (lo, -math.inf)):
        # the first float past the threshold, counted outwards from the end
        first = float(end + (bound if end == hi else -bound))
        while distance(lo, hi, first) <= bound:
            first = math.nextafter(first, outward)
        while distance(lo, hi, math.nextafter(first, -outward)) > bound:
            first = math.nextafter(first, -outward)
        assert certified(first)
        assert not certified(math.nextafter(first, -outward))
        assert not certified(float(end))
        assert not certified(float(end) + (tol if end == hi else -tol))


CERTIFIED_CASES = [
    ("ellsberg3", 20.0, None),
    ("ellsberg3", 5.0, None),
    ("ellsberg3", -5.0, None),
    ("machina5051", None, 4.0),
    ("reflection_lower", -3.0, None),
    ("reflection_upper", None, 3.0),
]


@pytest.mark.parametrize("name, d1, d2", CERTIFIED_CASES)
def test_certified_solve_is_restart_0_of_the_search(name, d1, d2):
    s = builtin(name)
    target = SolveTarget.for_scenario(s, d1=d1, d2=d2)
    result = solve(s, target)
    assert result.certificate is not None
    cost, best_index, w1, w2, residuals, converged = reference_solve(s, target, SolverConfig(restarts=1))
    assert result.w1 == w1 and result.w2 == w2
    assert result.residuals == residuals
    assert result.cost == cost
    assert (result.best_restart, result.restarts_used) == (best_index, 1) == (0, 1)
    assert result.converged is converged is False


def test_reachable_targets_skip_the_exact_check(monkeypatch):
    def no_fraction(*args):
        raise AssertionError("the exact check ran on a reachable target")

    monkeypatch.setattr(solver, "Fraction", no_fraction)
    for name in BUILTIN_NAMES:
        s = builtin(name)
        assert solver.certify_unreachable(ResidualSystem(s, SolveTarget.for_scenario(s)), 1e-8) is None


def test_residual_keys_of_two_solves_are_the_same_objects():
    s = builtin("machina5051")
    target = SolveTarget.for_scenario(s)
    first, second = (solve(s, target, config=SolverConfig(restarts=1)) for _ in range(2))
    assert list(first.residuals) == list(second.residuals)
    assert all(a is b for a, b in zip(first.residuals, second.residuals))


def test_solve_is_deterministic():
    s = builtin("ellsberg3")
    target = SolveTarget.for_scenario(s)
    first = solve(s, target)
    second = solve(s, target)
    assert first.to_dict() == second.to_dict()


def test_solve_unreachable_target_reports_failure():
    s = builtin("ellsberg3")
    # (-3, 0) is inside both gap intervals, but the probabilities it fixes
    # leave one event's sqrt(p1 p2) above the sum of the others', so no
    # phases make the pair orthogonal and nothing certifies it in advance
    target = SolveTarget.for_scenario(s, d1=-3.0, d2=0.0)
    config = SolverConfig(restarts=8, max_iterations=120)
    result = solve(s, target, config=config)
    assert not result.converged
    assert result.certificate is None
    # no restart converges, so every one of them runs
    assert result.restarts_used == config.restarts
    assert "did NOT converge" in result.summary()


def test_solve_certified_unreachable_target_runs_restart_0_only():
    s = builtin("ellsberg3")
    # W(f1) - W(f2) = 10 p(R) - 10 p(B) lies in [-10/3, 10/3], so 20 is out of reach
    target = SolveTarget.for_scenario(s, d1=20.0)
    config = SolverConfig(restarts=8, max_iterations=120)
    result = solve(s, target, config=config)
    assert not result.converged
    assert (result.restarts_used, result.best_restart) == (1, 0)
    assert result.certificate == solver.UnreachableCertificate(("f1", "f2"), 20.0, -10 / 3, 10 / 3)
    assert abs(result.residuals["target_1"]) > 1.0
    assert "did NOT converge" in result.summary()
    assert "unreachable: target 20 on f1-f2 is outside [-3.33333, 3.33333], the gaps any state attains" in (
        result.summary())
    assert result.to_dict()["certificate"] == {"pair": ["f1", "f2"], "target": 20.0,
                                               "lower": -10 / 3, "upper": 10 / 3}
    assert "certificate" not in solve(s, SolveTarget.for_scenario(s), config=config).to_dict()


def test_solve_without_orthogonality_requirement():
    s = builtin("ellsberg3")
    target = SolveTarget(("f1", "f2"), 0.815, ("f1", "f2"), 0.815, require_orthogonal=False)
    result = solve(s, target, config=SolverConfig(restarts=8))
    assert result.converged
    assert abs(result.residuals["target_1"]) <= 1e-8
    assert abs(result.residuals["target_2"]) <= 1e-8
    # the overlap is still reported, it just is not a requirement
    assert "overlap_re" in result.residuals
    assert verify(s, result.w1, result.w2, target, tol=1e-8).passed


# two events, each its own group with total 1/2: four residuals, two phases
SINGLETONS = load_scenario(
    {
        "name": "singletons",
        "events": ["A", "B"],
        "acts": [
            {"label": "f1", "payoffs": [1, 0]},
            {"label": "f2", "payoffs": [0, 1]},
            {"label": "f3", "payoffs": [0, 1]},
            {"label": "f4", "payoffs": [1, 0]},
        ],
        "constraints": [{"events": ["A"], "total": "1/2"}, {"events": ["B"], "total": "1/2"}],
        "question_pairs": [["f1", "f2"], ["f3", "f4"]],
    }
)


def test_solve_with_more_residuals_than_parameters():
    system = ResidualSystem(SINGLETONS, SolveTarget.for_scenario(SINGLETONS, d1=0.0, d2=0.0))
    assert (system.n_residuals, system.n_params) == (4, 2)
    # both gaps are 0 on the only admissible moduli; opposite phases on B make the pair orthogonal
    result = solve(SINGLETONS, system.target)
    assert result.converged, result.summary()
    assert result.restarts_used == 1
    assert verify(SINGLETONS, result.w1, result.w2, system.target, tol=1e-8).passed
    # a gap of 1 is out of reach, since p . (1, -1) = 0 on the only admissible p:
    # certified, so restart 0 alone runs, and reported, not raised
    target = SolveTarget.for_scenario(SINGLETONS, d1=1.0, d2=0.0)
    result = solve(SINGLETONS, target)
    assert not result.converged
    assert result.restarts_used == 1
    assert (result.certificate.lower, result.certificate.upper) == (0.0, 0.0)
    assert result.residuals["target_1"] == pytest.approx(-1.0, abs=1e-12)
    assert abs(result.residuals["overlap_re"]) <= 1e-8 and abs(result.residuals["overlap_im"]) <= 1e-8


def test_verify_self_pair_fails_orthogonality():
    sol = paper_solutions("ellsberg3")
    report = verify(sol.w1.scenario, sol.w1, sol.w1, sol.target, tol=5e-3)
    assert not report.passed
    assert report.check("overlap_re").deviation == pytest.approx(1.0, abs=1e-9)


def test_solve_result_round_trip_dict():
    s = builtin("reflection_upper")
    result = solve(s, SolveTarget.for_scenario(s), config=SolverConfig(restarts=4))
    data = result.to_dict()
    assert data["scenario"] == "reflection_upper"
    assert set(data["residuals"]) == {
        "target_1",
        "target_2",
        "overlap_re",
        "overlap_im",
        "norm_w1",
        "norm_w2",
        "group_RY_w1",
        "group_RY_w2",
        "group_BG_w1",
        "group_BG_w2",
    }
    assert data["method"] == solver.METHOD_DESCRIPTION


# -- parameterization and gradients ------------------------------------------

@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_parameterization_always_lands_on_constraints(name):
    s = builtin(name)
    system = ResidualSystem(s, SolveTarget.for_scenario(s))
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = rng.uniform(-10.0, 10.0, system.n_params)
        w1, w2 = system.states(x)  # constructor enforces the group sums at 1e-12
        r = system.residuals(x)
        named = solver._named_residuals(s, w1, w2, system.target, *system.gaps)
        assert r[0] == pytest.approx(named["target_1"], abs=1e-10)
        assert r[1] == pytest.approx(named["target_2"], abs=1e-10)
        assert r[2] == pytest.approx(named["overlap_re"], abs=1e-10)
        assert r[3] == pytest.approx(named["overlap_im"], abs=1e-10)


def central_difference_jacobian(system, x, step=1e-6):
    num = np.zeros((system.n_residuals, system.n_params))
    for j in range(system.n_params):
        up = list(x)
        down = list(x)
        up[j] += step
        down[j] -= step
        num[:, j] = (np.asarray(system.residuals(up)) - np.asarray(system.residuals(down))) / (2 * step)
    return num


def test_least_squares_caps_residual_evaluations():
    s = builtin("ellsberg3")
    system = ResidualSystem(s, SolveTarget.for_scenario(s, d1=20.0))
    calls = []

    def counted(x):
        calls.append(x)
        return system.residuals(x)

    start = system.initial_points(np.random.default_rng(3), 1)[0]
    fit = solver.least_squares(counted, start, system.jacobian, 37)
    assert len(calls) == 37
    assert np.array_equal(fit.fun, system.residuals(fit.x))


def test_least_squares_rejects_non_finite_trials():
    # the residual x - 5 is NaN beyond x = 1, so the search must stop short of it
    def fun(x):
        return np.array([x[0] - 5.0 if x[0] <= 1.0 else math.nan])

    fit = solver.least_squares(fun, np.array([0.0]), lambda x: np.ones((1, 1)), 400)
    assert 0.99 <= fit.x[0] <= 1.0
    assert np.isfinite(fit.fun).all()


def test_cholesky_solve_is_backward_stable_on_damped_systems():
    # J J^T + mu trace(J J^T) / m I for m = 1 to 4 residuals, at the first and
    # the smallest damping; at the smallest, J J^T may be singular
    rng = np.random.default_rng(9)
    for mu in (solver.MU_START, solver.MU_FLOOR):
        for m in (1, 2, 3, 4):
            for _ in range(50):
                J = rng.normal(size=(m, rng.integers(1, 9)))
                gram = J @ J.T
                a = gram + mu * np.trace(gram) / m * np.eye(m)
                b = rng.normal(size=m)
                y = np.array(solver._cholesky_solve(a.tolist(), b.tolist()))
                assert np.linalg.norm(a @ y - b) <= 1e-14 * np.linalg.norm(a) * np.linalg.norm(y)
                if mu == solver.MU_START:
                    assert np.allclose(y, np.linalg.solve(a, b), rtol=1e-9, atol=0)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_initial_points_read_a_numpy_generator_as_its_bulk_draw(name):
    # criterion 7 and the Jacobian test below keep the sample points of
    # rng.uniform(0, 1, (k, n_params)) with angles scaled by pi/2 and phases by 2 pi
    s = builtin(name)
    system = ResidualSystem(s, SolveTarget.for_scenario(s))
    scale = np.array(([math.pi / 2] * system.n_angles + [2 * math.pi] * (system.n_events - 1)) * 2)
    for seed in (7, 42):
        bulk = np.random.default_rng(seed).uniform(0.0, 1.0, (10, system.n_params)) * scale
        assert np.array_equal(np.array(system.initial_points(np.random.default_rng(seed), 10)), bulk)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_jacobian_matches_central_differences(name):
    s = builtin(name)
    system = ResidualSystem(s, SolveTarget.for_scenario(s))
    rng = np.random.default_rng(42)
    points = system.initial_points(rng, 10)
    for x in points:
        analytic = system.jacobian(x)
        numeric = central_difference_jacobian(system, x)
        scale = np.maximum(1.0, np.abs(analytic))
        assert np.max(np.abs(numeric - analytic) / scale) <= 1e-4


# -- families ------------------------------------------------------------------

def test_explore_family_collapses_when_targets_pin_the_moduli():
    s = builtin("ellsberg3")
    family = explore_solution_family(
        s, SolveTarget.for_scenario(s), config=SolverConfig(restarts=8), count=4
    )
    # both gaps fix the entire probability profile here, so every seed
    # lands in the same mu-class
    assert len(family) == 1
    assert family[0].converged
    assert family[0].w1.probabilities()[2] == pytest.approx(1 / 3 - 0.0815, abs=1e-8)
    assert family[0].w2.probabilities()[2] == pytest.approx(1 / 3 + 0.0780, abs=1e-8)


def test_explore_family_finds_distinct_solutions():
    s = builtin("reflection_lower")
    family = explore_solution_family(
        s, SolveTarget.for_scenario(s), config=SolverConfig(restarts=8), count=4
    )
    assert len(family) >= 2
    profiles = [np.array(r.w1.probabilities() + r.w2.probabilities()) for r in family]
    for i in range(len(profiles)):
        assert family[i].converged
        for j in range(i + 1, len(profiles)):
            assert float(np.max(np.abs(profiles[i] - profiles[j]))) > 1e-3


def test_explore_family_empty_for_unreachable_target(monkeypatch):
    calls = []
    real_solve = solver.solve
    monkeypatch.setattr(solver, "solve", lambda *args: calls.append(args) or real_solve(*args))
    s = builtin("ellsberg3")
    target = SolveTarget.for_scenario(s, d1=20.0)
    family = explore_solution_family(
        s, target, config=SolverConfig(restarts=2, max_iterations=80), count=2
    )
    assert family == []
    # the first solve certifies the target, so no other seed is tried
    assert len(calls) == 1
