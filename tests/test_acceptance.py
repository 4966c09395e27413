"""Acceptance gate: one test per release criterion, each printing a single
pass/fail line under pytest -v. Timing budgets are asserted where a
criterion states one."""

from __future__ import annotations

import time

import numpy as np
import pytest

import test_hilbert_properties
import test_quantum
from test_classical import assert_verdict_proven
from test_solver import central_difference_jacobian

from bornchoice import classical, quantum, solver, stats
from bornchoice.scenarios import BUILTIN_NAMES, ExperimentCounts, builtin
from bornchoice.solver import ResidualSystem, SolveTarget, SolverConfig

CELLS = {
    "ellsberg3": (125, 38, 6, 31),
    "machina5051": (59, 57, 17, 67),
    "reflection_lower": (64, 51, 59, 26),
    "reflection_upper": (80, 54, 50, 16),
}


def test_criterion_1_published_pairs_verify_at_printed_precision():
    start = time.perf_counter()
    for name in BUILTIN_NAMES:
        report = solver.paper_solutions(name).verify(tol=5e-3)
        assert report.passed, f"{name}: {report.summary()}"
    assert time.perf_counter() - start < 1.0


def test_criterion_2_solver_reaches_all_targets_deterministically():
    start = time.perf_counter()
    config = SolverConfig(restarts=64, seed=0, residual_tolerance=1e-8)
    for name in BUILTIN_NAMES:
        scenario = builtin(name)
        target = SolveTarget.for_scenario(scenario)
        result = solver.solve(scenario, target, config=config)
        assert result.converged, f"{name} did not converge"
        assert result.restarts_used <= 64
        assert all(abs(v) <= 1e-8 for v in result.residuals.values())
        assert solver.verify(scenario, result.w1, result.w2, target, tol=1e-8).passed
    again = solver.solve(builtin("ellsberg3"), SolveTarget.for_scenario(builtin("ellsberg3")),
                         config=config)
    first = solver.solve(builtin("ellsberg3"), SolveTarget.for_scenario(builtin("ellsberg3")),
                         config=config)
    assert again.to_dict() == first.to_dict()
    assert time.perf_counter() - start < 5.0


def test_criterion_3_joint_strict_pattern_infeasible_and_biconditional_holds():
    start = time.perf_counter()
    for name in ("ellsberg3", "machina5051"):
        result = classical.feasibility(builtin(name), "f1>f2,f4>f3")
        assert not result.feasible, f"{name} unexpectedly feasible"
        assert_verdict_proven(builtin(name), result)
    for name in ("machina5051", "reflection_lower", "reflection_upper"):
        assert classical.biconditional_check(builtin(name), ("f1", "f2"), ("f3", "f4"))
    assert time.perf_counter() - start < 10.0


def test_criterion_4_experiment_statistics_reproduce_published_table():
    start = time.perf_counter()
    reports = {name: stats.analyze(ExperimentCounts(*CELLS[name]), scenario=name)
               for name in BUILTIN_NAMES}
    assert (reports["ellsberg3"].weight_q1, reports["ellsberg3"].weight_q2) == (0.815, 0.780)
    assert (reports["machina5051"].weight_q1, reports["machina5051"].weight_q2) == (0.580, 0.630)
    assert reports["reflection_lower"].weight_q1 == 0.575
    assert reports["reflection_upper"].weight_q1 == 0.670
    assert reports["ellsberg3"].inversion_rate == 0.655
    assert reports["machina5051"].inversion_rate == 0.380
    assert reports["reflection_lower"].inversion_rate == 0.615
    assert reports["reflection_upper"].inversion_rate == 0.650
    # normal-approximation p-values that the published analysis quotes
    assert reports["machina5051"].p_q1 == pytest.approx(2.33e-2, rel=0.05)
    assert reports["reflection_lower"].p_q1 == pytest.approx(3.36e-2, rel=0.05)
    assert reports["reflection_upper"].p_q2 == pytest.approx(5.73e-1, rel=0.05)
    # uncorrected McNemar values that the published analysis quotes
    lower_cross = reports["reflection_lower"].cross_test["mcnemar_chi2"]
    upper_cross = reports["reflection_upper"].cross_test["mcnemar_chi2"]
    assert lower_cross == pytest.approx(0.6533, rel=0.10)
    assert upper_cross == pytest.approx(8.18e-3, rel=0.10)
    # published values no implemented variant reproduces must be flagged
    flagged = {name: {f.published for f in reports[name].flags} for name in BUILTIN_NAMES}
    assert 1.91e-35 in flagged["ellsberg3"]
    assert 7.48e-7 in flagged["machina5051"]
    assert 1.58e-1 in flagged["reflection_lower"]
    assert 0.630 in flagged["reflection_lower"]
    assert 0.620 in flagged["reflection_upper"]
    assert time.perf_counter() - start < 1.0


def test_criterion_5_expected_ball_counts_from_published_states():
    solution = solver.paper_solutions("ellsberg3")
    counts_1 = quantum.expected_ball_counts(solution.w1, ("Y", "B"), 60)
    counts_2 = quantum.expected_ball_counts(solution.w2, ("Y", "B"), 60)
    assert counts_1["Y"] == pytest.approx(37.3, abs=0.2)
    assert counts_1["B"] == pytest.approx(22.7, abs=0.2)
    assert counts_2["Y"] == pytest.approx(23.0, abs=0.2)
    assert counts_2["B"] == pytest.approx(37.0, abs=0.2)


def test_criterion_6_hilbert_axioms_and_quantum_classical_consistency():
    # each call runs the full 1000-example property suite
    test_hilbert_properties.test_inner_product_linear_in_ket()
    test_hilbert_properties.test_inner_product_antilinear_in_bra()
    test_hilbert_properties.test_born_range_and_complement()
    test_hilbert_properties.test_born_normalization_over_family()
    test_hilbert_properties.test_measure_additive_over_orthogonal_projectors()
    test_hilbert_properties.test_spectral_decomposition_consistency()
    test_hilbert_properties.test_collapse_unit_norm_and_idempotent()
    test_quantum.test_phase_invariance_of_probabilities_and_utilities()
    test_quantum.test_quantum_matches_classical_on_born_marginal()


def test_criterion_7_solver_jacobian_matches_central_differences():
    for name in BUILTIN_NAMES:
        scenario = builtin(name)
        system = ResidualSystem(scenario, SolveTarget.for_scenario(scenario))
        rng = np.random.default_rng(7)
        for x in system.initial_points(rng, 10):
            analytic = system.jacobian(x)
            numeric = central_difference_jacobian(system, x)
            scale = np.maximum(1.0, np.abs(analytic))
            assert np.max(np.abs(numeric - analytic) / scale) <= 1e-4, name
