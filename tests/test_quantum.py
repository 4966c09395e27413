"""Tests for belief states, Born-rule probabilities, and state-dependent utility."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornchoice import classical, hilbert
from bornchoice.quantum import (
    QuantumState,
    expected_ball_counts,
    expected_utility,
    initial_state,
    overlap,
    preference,
    state_from_polar,
    subjective_probabilities,
)
from bornchoice.scenarios import (
    Act,
    BUILTIN_NAMES,
    ProbabilityConstraint,
    Scenario,
    ScenarioError,
    UtilityFunction,
    act_operator,
    builtin,
)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
SCENARIO_IDX = st.integers(min_value=0, max_value=len(BUILTIN_NAMES) - 1)
CASES = settings(max_examples=1000, deadline=None)

SQRT = UtilityFunction.sqrt()


def _random_state(scenario, rng, with_phases=True):
    mods = np.zeros(scenario.n_events)
    for indices, total in scenario.groups():
        idx = list(indices)
        g = np.abs(rng.normal(size=len(idx))) + 1e-6
        mods[idx] = g / np.linalg.norm(g) * math.sqrt(float(total))
    phases = rng.uniform(0.0, 2 * math.pi, scenario.n_events) if with_phases else np.zeros(scenario.n_events)
    return QuantumState(scenario, tuple(mods.tolist()), tuple(phases.tolist()))


# -- construction and validation -----------------------------------------

def test_state_validation_errors():
    s = builtin("ellsberg3")
    with pytest.raises(ScenarioError, match="3 moduli"):
        QuantumState(s, (1.0, 0.0), (0.0, 0.0, 0.0))
    with pytest.raises(ScenarioError, match="negative"):
        QuantumState(s, (-math.sqrt(1 / 3),) + (math.sqrt(1 / 3),) * 2, (0.0,) * 3)
    with pytest.raises(ScenarioError, match="not a unit vector"):
        QuantumState(s, (0.9, 0.9, 0.9), (0.0,) * 3)
    # unit norm but the wrong group split
    with pytest.raises(ScenarioError, match="state_from_polar"):
        QuantumState(s, (math.sqrt(0.4), math.sqrt(0.3), math.sqrt(0.3)), (0.0,) * 3)


@pytest.mark.parametrize("make", [
    pytest.param(lambda s: state_from_polar(s, (math.nan, 0.644, 0.502)), id="polar-nan-modulus"),
    pytest.param(lambda s: state_from_polar(s, (0.577, 0.644, 0.502), (0.0, math.nan, 0.0)), id="polar-nan-phase"),
    pytest.param(lambda s: state_from_polar(s, (0.577, math.inf, 0.502)), id="polar-infinite-modulus"),
    pytest.param(lambda s: QuantumState(s, (math.nan,) * 3, (0.0,) * 3), id="nan-moduli"),
    pytest.param(lambda s: QuantumState(s, (math.sqrt(1 / 3),) * 3, (0.0, math.nan, 0.0)), id="nan-phase"),
    pytest.param(lambda s: QuantumState(s, (math.sqrt(1 / 3),) * 3, (0.0, math.inf, 0.0)), id="infinite-phase"),
])
def test_non_finite_moduli_and_phases_are_rejected(make):
    with pytest.raises(ScenarioError, match="moduli and phases must be finite"):
        make(builtin("ellsberg3"))


def test_state_round_trips_polar_form():
    s = builtin("ellsberg3")
    v = state_from_polar(s, (0.577, 0.505, 0.641), (0.0, 238.48, 120.46))
    assert v.phases_deg == pytest.approx((0.0, 238.48, 120.46), abs=1e-9)
    amps = v.ket().amplitudes
    assert amps[0] == pytest.approx(v.moduli[0])
    assert amps[1] == pytest.approx(v.moduli[1] * np.exp(1j * math.radians(238.48)))
    data = v.to_dict()
    assert data["scenario"] == "ellsberg3"
    assert data["probabilities"] == pytest.approx([m * m for m in v.moduli])


def test_state_from_polar_projects_onto_constraints():
    s = builtin("ellsberg3")
    v = state_from_polar(s, (0.577, 0.644, 0.502))
    # each group is rescaled by a common factor to hit its exact total
    pair = 0.644**2 + 0.502**2
    expected = (1 / 3, 0.644**2 * (2 / 3) / pair, 0.502**2 * (2 / 3) / pair)
    assert v.probabilities() == pytest.approx(expected, abs=1e-12)
    assert sum(v.probabilities()) == pytest.approx(1.0, abs=1e-12)
    # within-group proportions are preserved by the rescale
    assert v.moduli[1] / v.moduli[2] == pytest.approx(0.644 / 0.502, rel=1e-12)


def test_state_from_polar_rejects_beyond_snap_tolerance():
    s = builtin("ellsberg3")
    with pytest.raises(ScenarioError, match="snap tolerance"):
        state_from_polar(s, (0.7, 0.6, 0.4))
    # unit norm, but the group split is off by more than 5e-3
    with pytest.raises(ScenarioError, match="snap tolerance"):
        state_from_polar(s, (0.6, math.sqrt(0.64 - 0.332929), 0.577))


def test_state_from_polar_folds_negative_moduli():
    s = builtin("ellsberg3")
    v = state_from_polar(s, (-0.577, 0.644, 0.502), (0.0, 0.0, 0.0))
    assert v.moduli[0] == pytest.approx(math.sqrt(1 / 3))
    assert v.phases_deg[0] == pytest.approx(180.0)
    w = state_from_polar(s, (0.577, 0.644, 0.502))
    assert v.probabilities() == pytest.approx(w.probabilities())


def test_state_from_polar_shape_errors():
    s = builtin("ellsberg3")
    with pytest.raises(ScenarioError, match="expected 3 moduli"):
        state_from_polar(s, (0.577, 0.644))
    with pytest.raises(ScenarioError, match="expected 3 phases"):
        state_from_polar(s, (0.577, 0.644, 0.502), (0.0, 0.0))


def test_state_from_polar_zero_group_cannot_rescale():
    s = Scenario(
        "tinygroup",
        ("a", "b"),
        (Act("f1", (1, 0)), Act("f2", (0, 1))),
        (
            ProbabilityConstraint(frozenset({0}), Fraction(1, 250)),
            ProbabilityConstraint(frozenset({1}), Fraction(249, 250)),
        ),
        ((0, 1),),
    )
    with pytest.raises(ScenarioError, match="zero total amplitude"):
        state_from_polar(s, (0.0, math.sqrt(249 / 250)))


def test_initial_states():
    v = initial_state(builtin("ellsberg3"))
    assert v.moduli == pytest.approx((math.sqrt(1 / 3),) * 3)
    assert v.phases == (0.0,) * 3
    m = initial_state(builtin("machina5051"))
    assert m.probabilities() == pytest.approx((25 / 101, 25 / 101, 25.5 / 101, 25.5 / 101))
    for name in ("reflection_lower", "reflection_upper"):
        r = initial_state(builtin(name))
        assert r.moduli == pytest.approx((0.5, 0.5, 0.5, 0.5))


# -- probabilities and utilities ------------------------------------------

def test_subjective_probabilities_are_admissible():
    s = builtin("machina5051")
    rng = np.random.default_rng(3)
    for _ in range(10):
        v = _random_state(s, rng)
        p = subjective_probabilities(v)
        assert isinstance(p, classical.ClassicalProbability)
        assert p.probs == pytest.approx(v.probabilities())


def test_subjective_probabilities_at_the_edge_of_the_group_band():
    # each group's squared moduli sum 9e-13 above its total, inside the
    # state's band, so all of them sum 1.8e-12 above 1
    s = builtin("machina5051")
    mods = []
    for indices, total in s.groups():
        mods += [math.sqrt((float(total) + 9e-13) / len(indices))] * len(indices)
    v = QuantumState(s, tuple(mods), (0.0,) * s.n_events)
    assert sum(v.probabilities()) - 1.0 > 1e-12
    p = subjective_probabilities(v)
    assert p.probs == v.probabilities()
    for act in s.acts:
        assert expected_utility(v, act.label, SQRT) == classical.expected_utility(p, act.label, SQRT)


def test_expected_utility_on_initial_states():
    v = initial_state(builtin("ellsberg3"))
    assert expected_utility(v, "f1", SQRT) == pytest.approx(10 / 3, abs=1e-12)
    assert expected_utility(v, "f4", SQRT) == pytest.approx(20 / 3, abs=1e-12)


def test_ambiguity_free_acts_are_state_independent():
    rng = np.random.default_rng(11)
    s = builtin("ellsberg3")
    m = builtin("machina5051")
    for _ in range(25):
        v = _random_state(s, rng)
        assert expected_utility(v, "f1", SQRT) == pytest.approx(10 / 3, abs=1e-10)
        assert expected_utility(v, "f4", SQRT) == pytest.approx(20 / 3, abs=1e-10)
        w = _random_state(m, rng)
        assert expected_utility(w, "f1", SQRT) == pytest.approx(12.110665117373863, abs=1e-10)


def test_preference_inversion_across_states():
    # two admissible belief states that jointly realize the pattern no
    # single classical probability can: each question is answered in its
    # own state
    s = builtin("ellsberg3")
    v = state_from_polar(s, (math.sqrt(1 / 3), math.sqrt(0.5), math.sqrt(1 / 6)))
    w = state_from_polar(s, (math.sqrt(1 / 3), math.sqrt(0.2), math.sqrt(7 / 15)))
    assert preference(v, "f1", "f2", SQRT) == ">"
    assert preference(v, "f4", "f3", SQRT) == "<"
    assert preference(w, "f4", "f3", SQRT) == ">"
    assert preference(w, "f1", "f2", SQRT) == "<"
    assert not classical.feasibility(s, "f1>f2,f4>f3", SQRT).feasible


def test_preference_indifference_band():
    assert preference(initial_state(builtin("ellsberg3")), "f1", "f2", SQRT) == "="
    assert preference(initial_state(builtin("reflection_lower")), "f1", "f2", SQRT) == "="


# -- ball counts -----------------------------------------------------------

def test_expected_ball_counts_on_published_states():
    s = builtin("ellsberg3")
    w1 = state_from_polar(s, (0.577, 0.644, 0.502))
    counts = expected_ball_counts(w1, ("Y", "B"), 60)
    assert counts["Y"] == pytest.approx(37.3, abs=0.1)
    assert counts["B"] == pytest.approx(22.7, abs=0.1)
    assert counts["Y"] + counts["B"] == pytest.approx(60.0, abs=1e-9)

    w2 = state_from_polar(s, (0.577, 0.505, 0.641), (0.0, 238.48, 120.46))
    counts = expected_ball_counts(w2, ("Y", "B"), 60)
    assert counts["Y"] == pytest.approx(23.0, abs=0.1)
    assert counts["B"] == pytest.approx(37.0, abs=0.1)


def test_expected_ball_counts_uniform():
    counts = expected_ball_counts(initial_state(builtin("ellsberg3")), ("Y", "B"), 60)
    assert counts == pytest.approx({"Y": 30.0, "B": 30.0})


def test_expected_ball_counts_errors():
    v = initial_state(builtin("ellsberg3"))
    with pytest.raises(ScenarioError, match="do not form a constraint group"):
        expected_ball_counts(v, ("R", "Y"), 60)
    with pytest.raises(ScenarioError, match="positive"):
        expected_ball_counts(v, ("Y", "B"), 0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ScenarioError, match=f"finite and positive, got {bad}"):
            expected_ball_counts(v, ("Y", "B"), bad)
    # label order inside the group does not matter
    assert expected_ball_counts(v, ("B", "Y"), 60) == pytest.approx({"Y": 30.0, "B": 30.0})


# -- overlaps ---------------------------------------------------------------

def test_overlap_of_published_pair_is_nearly_zero():
    s = builtin("ellsberg3")
    w1 = state_from_polar(s, (0.577, 0.644, 0.502))
    w2 = state_from_polar(s, (0.577, 0.505, 0.641), (0.0, 238.48, 120.46))
    assert abs(overlap(w1, w2)) <= 5e-3
    assert abs(overlap(w1, w1)) == pytest.approx(1.0, abs=1e-12)


def test_overlap_rejects_mismatched_scenarios():
    with pytest.raises(ScenarioError, match="different scenarios"):
        overlap(initial_state(builtin("ellsberg3")), initial_state(builtin("machina5051")))


# -- randomized invariants ---------------------------------------------------

@CASES
@given(seed=SEEDS, idx=SCENARIO_IDX)
def test_phase_invariance_of_probabilities_and_utilities(seed, idx):
    scenario = builtin(BUILTIN_NAMES[idx])
    rng = np.random.default_rng(seed)
    base = _random_state(scenario, rng, with_phases=False)
    reph_a = QuantumState(scenario, base.moduli, tuple(rng.uniform(0, 2 * math.pi, scenario.n_events)))
    reph_b = QuantumState(scenario, base.moduli, tuple(rng.uniform(0, 2 * math.pi, scenario.n_events)))
    assert subjective_probabilities(reph_a).probs == pytest.approx(
        subjective_probabilities(reph_b).probs, abs=1e-10
    )
    for act in scenario.acts:
        ua = expected_utility(reph_a, act.label, SQRT)
        ub = expected_utility(reph_b, act.label, SQRT)
        assert abs(ua - ub) <= 1e-10


@CASES
@given(seed=SEEDS, idx=SCENARIO_IDX)
def test_quantum_matches_classical_on_born_marginal(seed, idx):
    scenario = builtin(BUILTIN_NAMES[idx])
    rng = np.random.default_rng(seed)
    v = _random_state(scenario, rng)
    p = subjective_probabilities(v)
    psi = v.ket()
    for act in scenario.acts:
        q_value = expected_utility(v, act.label, SQRT)
        c_value = classical.expected_utility(p, act.label, SQRT)
        assert abs(q_value - c_value) <= 1e-10
        # <psi|A|psi> through the operator API, an independent reference
        op_value = hilbert.expectation(act_operator(scenario, act.label, SQRT), psi)
        assert abs(q_value - op_value) <= 1e-10
