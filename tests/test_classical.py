"""Tests for classical expected utility and exact pattern feasibility."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornchoice.classical import (
    FIRST_STRICT,
    INDIFFERENT,
    RELATIONS,
    SECOND_STRICT,
    STRICT_MARGIN,
    ClassicalProbability,
    PatternError,
    PreferencePattern,
    biconditional_check,
    expected_utility,
    feasibility,
)
from bornchoice.scenarios import (
    Act,
    BUILTIN_NAMES,
    ProbabilityConstraint,
    Scenario,
    ScenarioError,
    UtilityFunction,
    builtin,
)

SQRT = UtilityFunction.sqrt()
LINEAR = UtilityFunction.linear()


def _random_admissible(scenario, rng):
    p = np.zeros(scenario.n_events)
    for indices, total in scenario.groups():
        idx = list(indices)
        w = rng.random(len(idx)) + 1e-9
        p[idx] = w / w.sum() * float(total)
    return ClassicalProbability(scenario, tuple(p.tolist()))


# -- probability container ---------------------------------------------

def test_classical_probability_accepts_admissible():
    s = builtin("ellsberg3")
    p = ClassicalProbability(s, (1 / 3, 0.5, 2 / 3 - 0.5))
    assert p.to_dict() == {"R": 1 / 3, "Y": 0.5, "B": 2 / 3 - 0.5}
    assert np.allclose(p.probs, [1 / 3, 0.5, 1 / 6])


def test_classical_probability_rejections():
    s = builtin("ellsberg3")
    with pytest.raises(ScenarioError, match="expected 3 probabilities"):
        ClassicalProbability(s, (0.5, 0.5))
    with pytest.raises(ScenarioError, match="outside"):
        ClassicalProbability(s, (1.2, -0.1, -0.1))
    with pytest.raises(ScenarioError, match="sum to"):
        ClassicalProbability(s, (0.2, 0.2, 0.2))
    # right total, wrong group split
    with pytest.raises(ScenarioError, match="constraint requires"):
        ClassicalProbability(s, (0.5, 0.25, 0.25))


@pytest.mark.parametrize("probs", [
    (math.nan,) * 3,
    (1 / 3, math.nan, 1 / 3),
    (1 / 3, math.inf, -math.inf),
], ids=["all-nan", "one-nan", "infinite"])
def test_classical_probability_rejects_non_finite(probs):
    with pytest.raises(ScenarioError, match="outside"):
        ClassicalProbability(builtin("ellsberg3"), probs)


# -- pattern parsing ----------------------------------------------------

def test_pattern_from_text_orientations():
    s = builtin("ellsberg3")
    assert PreferencePattern.from_text(s, "f1>f2,f4>f3").relations == (FIRST_STRICT, FIRST_STRICT)
    assert PreferencePattern.from_text(s, "f2>f1,f3>f4").relations == (SECOND_STRICT, SECOND_STRICT)
    assert PreferencePattern.from_text(s, "f1=f2,f4=f3").relations == (INDIFFERENT, INDIFFERENT)
    # terms may come in any order and use either act first
    assert PreferencePattern.from_text(s, "f4<f3, f1>f2").relations == (FIRST_STRICT, SECOND_STRICT)
    lo = builtin("reflection_lower")
    assert PreferencePattern.from_text(lo, "f1>f2,f3>f4").relations == (FIRST_STRICT, FIRST_STRICT)


def test_pattern_describe_round_trip():
    s = builtin("machina5051")
    for text in ("f1>f2,f4>f3", "f1<f2,f4=f3", "f1=f2,f4<f3"):
        pattern = PreferencePattern.from_text(s, text)
        assert pattern.describe(s) == text
        assert PreferencePattern.from_text(s, pattern.describe(s)) == pattern


def test_pattern_parse_errors():
    s = builtin("ellsberg3")
    with pytest.raises(PatternError, match="empty"):
        PreferencePattern.from_text(s, "  ,  ")
    with pytest.raises(PatternError, match="bad pattern term"):
        PreferencePattern.from_text(s, "f1 ? f2")
    with pytest.raises(PatternError, match="do not form a question pair"):
        PreferencePattern.from_text(s, "f1>f3,f4>f3")
    with pytest.raises(PatternError, match="specified twice"):
        PreferencePattern.from_text(s, "f1>f2,f2>f1")
    with pytest.raises(PatternError, match="does not cover"):
        PreferencePattern.from_text(s, "f1>f2")
    with pytest.raises(ScenarioError, match="unknown act"):
        PreferencePattern.from_text(s, "f9>f1,f4>f3")
    with pytest.raises(PatternError, match="unknown relation"):
        PreferencePattern(("sometimes",))


# -- expected utility ---------------------------------------------------

def test_expected_utility_ellsberg_uniform():
    s = builtin("ellsberg3")
    p = ClassicalProbability(s, (1 / 3, 1 / 3, 1 / 3))
    assert expected_utility(p, "f1", SQRT) == pytest.approx(10 / 3, abs=1e-12)
    assert expected_utility(p, "f4", SQRT) == pytest.approx(20 / 3, abs=1e-12)
    # f1 only pays on the pinned event, so its value ignores p_Y
    q = ClassicalProbability(s, (1 / 3, 0.6, 2 / 3 - 0.6))
    assert expected_utility(q, "f1", SQRT) == pytest.approx(10 / 3, abs=1e-12)


def test_expected_utility_machina_f1_is_constant():
    s = builtin("machina5051")
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = _random_admissible(s, rng)
        assert expected_utility(p, "f1", SQRT) == pytest.approx(12.110665117373863, abs=1e-9)


def test_expected_utility_reflection_uniform_indifference():
    s = builtin("reflection_lower")
    p = ClassicalProbability(s, (0.25, 0.25, 0.25, 0.25))
    values = [expected_utility(p, label, SQRT) for label in ("f1", "f2", "f3", "f4")]
    assert max(values) - min(values) <= 1e-12


def test_expected_utility_point_mass():
    s = Scenario(
        "point",
        ("a", "b", "c"),
        (Act("f1", (9, 4, 1)), Act("f2", (1, 4, 9))),
        (ProbabilityConstraint(frozenset({0, 1, 2}), Fraction(1)),),
        ((0, 1),),
    )
    p = ClassicalProbability(s, (1.0, 0.0, 0.0))
    assert expected_utility(p, "f1", SQRT) == 3.0


def test_expected_utility_is_affine_in_p():
    rng = np.random.default_rng(12)
    for name in BUILTIN_NAMES:
        s = builtin(name)
        for _ in range(50):
            p = _random_admissible(s, rng)
            q = _random_admissible(s, rng)
            lam = float(rng.random())
            mix = ClassicalProbability(
                s, tuple(lam * a + (1 - lam) * b for a, b in zip(p.probs, q.probs))
            )
            for act in s.acts:
                lhs = expected_utility(mix, act.label, SQRT)
                rhs = lam * expected_utility(p, act.label, SQRT) + (1 - lam) * expected_utility(
                    q, act.label, SQRT
                )
                assert abs(lhs - rhs) <= 1e-10


# -- feasibility: truth tables ------------------------------------------

# the pinned verdict per relation pair: (feasible, multipliers, the
# proportionality line of the certificate, if any). The first-pair and
# second-pair functionals of ellsberg3 and machina5051 are exact negatives
# on the polytope, so only opposite strict signs hold; the reflection
# scenarios' functionals are exactly equal
F, S, I = FIRST_STRICT, SECOND_STRICT, INDIFFERENT
NEGATIVE = "is a negative multiple (factor -1) of condition 1"
PROPORTIONAL = "constrain proportional functionals (factor"
HALVES = (Fraction(1, 2), Fraction(1, 2))
ANTI_VERDICTS = {
    (F, F): (False, HALVES, NEGATIVE),
    (F, S): (True, None, None),
    (F, I): (False, (1, 1), PROPORTIONAL),
    (S, F): (True, None, None),
    (S, S): (False, HALVES, NEGATIVE),
    (S, I): (False, (1, -1), PROPORTIONAL),
    (I, F): (False, (1, 1), PROPORTIONAL),
    (I, S): (False, (-1, 1), PROPORTIONAL),
    (I, I): (True, None, None),
}
ALIGNED_VERDICTS = {
    (F, F): (True, None, None),
    (F, S): (False, HALVES, NEGATIVE),
    (F, I): (False, (1, -1), PROPORTIONAL),
    (S, F): (False, HALVES, NEGATIVE),
    (S, S): (True, None, None),
    (S, I): (False, (1, 1), PROPORTIONAL),
    (I, F): (False, (-1, 1), PROPORTIONAL),
    (I, S): (False, (1, 1), PROPORTIONAL),
    (I, I): (True, None, None),
}
VERDICTS = {
    "ellsberg3": ANTI_VERDICTS,
    "machina5051": ANTI_VERDICTS,
    "reflection_lower": ALIGNED_VERDICTS,
    "reflection_upper": ALIGNED_VERDICTS,
}


def _check_witness(scenario, pattern, result, u):
    w = result.witness
    assert w is not None
    for (a, b), rel in zip(scenario.question_pairs, pattern.relations):
        gap = expected_utility(w, a, u) - expected_utility(w, b, u)
        if rel == FIRST_STRICT:
            assert gap >= STRICT_MARGIN
        elif rel == SECOND_STRICT:
            assert gap <= -STRICT_MARGIN
        else:
            assert abs(gap) <= STRICT_MARGIN


def assert_verdict_proven(scenario, result, u=SQRT):
    """Re-prove a feasibility verdict in exact rational arithmetic.

    The conditions are rebuilt here from the payoffs: a feasible verdict
    must carry a witness that, rationalised onto the polytope, meets every
    relation; an infeasible one must carry multipliers w (non-negative on
    strict relations) whose combined functional g = sum_k w_k c_k has
    sum_G t_G max_{i in G} g_i < STRICT_MARGIN * (sum of strict w_k).
    """
    conditions = []
    for (a, b), rel in zip(scenario.question_pairs, result.pattern.relations):
        sign = -1 if rel == SECOND_STRICT else 1
        c = [sign * Fraction(u(xa) - u(xb)) for xa, xb in zip(scenario.acts[a].payoffs, scenario.acts[b].payoffs)]
        conditions.append((rel != INDIFFERENT, c))
    if result.feasible:
        assert result.multipliers is None
        x = [Fraction(v) for v in result.witness.probs]
        for indices, total in scenario.groups():
            k = max(indices, key=lambda i: x[i])
            x[k] = total - sum(x[i] for i in indices if i != k)
        assert all(v >= 0 for v in x)
        for strict, c in conditions:
            value = sum(ci * xi for ci, xi in zip(c, x))
            assert value >= STRICT_MARGIN if strict else abs(value) <= STRICT_MARGIN
        return
    assert result.witness is None
    weights = result.multipliers
    assert len(weights) == len(conditions)
    assert all(w >= 0 for w, (strict, _) in zip(weights, conditions) if strict)
    g = [sum(w * c[i] for w, (_, c) in zip(weights, conditions)) for i in range(scenario.n_events)]
    bound = sum(total * max(g[i] for i in indices) for indices, total in scenario.groups())
    strict_total = sum(w for w, (strict, _) in zip(weights, conditions) if strict)
    assert bound < Fraction(STRICT_MARGIN) * strict_total


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("u", [SQRT, LINEAR], ids=["sqrt", "linear"])
def test_feasibility_truth_table(name, u):
    s = builtin(name)
    for combo in product(RELATIONS, repeat=2):
        pattern = PreferencePattern(combo)
        result = feasibility(s, pattern, u)
        feasible, multipliers, line = VERDICTS[name][combo]
        assert (result.feasible, result.multipliers) == (feasible, multipliers), combo
        assert [text for text in (NEGATIVE, PROPORTIONAL) if text in result.certificate] == ([line] if line else []), combo
        assert_verdict_proven(s, result, u)
        assert result.u_independent is True
        if result.feasible:
            _check_witness(s, pattern, result, u)
            if any(r != INDIFFERENT for r in combo):
                assert result.margin is not None and result.margin >= STRICT_MARGIN
            else:
                assert result.margin is None
        else:
            assert result.witness is None
            assert result.certificate


def test_feasibility_accepts_pattern_text():
    s = builtin("ellsberg3")
    result = feasibility(s, "f1>f2,f4>f3")
    assert not result.feasible
    assert "negative multiple" in result.certificate
    assert "strictly increasing utility" in result.certificate


def _near_proportional():
    """Conditions of f1>f2,f4>f3 proportional but for a 1e-12 utility step: both hold where p(Y) = p(B)."""
    s = Scenario(
        "near_proportional",
        ("R", "Y", "B"),
        (Act("f1", (0, 10, 0)), Act("f2", (0, 0, 10)), Act("f3", (10, 10, 0)), Act("f4", (11, 0, 10))),
        (
            ProbabilityConstraint(frozenset({0}), Fraction(1, 3)),
            ProbabilityConstraint(frozenset({1, 2}), Fraction(2, 3)),
        ),
        ((0, 1), (3, 2)),
    )
    return s, UtilityFunction.from_table({0: 0, 10: 10, 11: 10 + 1e-12})


def test_proportionality_is_decided_exactly():
    s, u = _near_proportional()
    result = feasibility(s, "f1>f2,f4>f3", u)
    # the joint margin is positive, below STRICT_MARGIN: no negative multiple
    assert not result.feasible
    assert 0 < result.margin < STRICT_MARGIN
    assert "multiple" not in result.certificate and "proportional" not in result.certificate
    assert_verdict_proven(s, result, u)
    assert not biconditional_check(s, ("f1", "f2"), ("f3", "f4"), u)
    assert not biconditional_check(s, ("f1", "f2"), ("f4", "f3"), u)


def test_feasibility_machina_paradox_pattern_infeasible():
    result = feasibility(builtin("machina5051"), "f1>f2,f4>f3")
    assert not result.feasible
    assert result.u_independent
    assert_verdict_proven(builtin("machina5051"), result)

    # the indifference meets the strict region only at its edge: the
    # exact maximum margin is 0
    edge = Scenario(
        "edge",
        ("E0", "E1", "E2", "E3"),
        (
            Act("f1", (100, 49, 1, 4)),
            Act("f2", (36, 25, 36, 16)),
            Act("f3", (9, 0, 25, 25)),
            Act("f4", (9, 81, 1, 49)),
        ),
        (
            ProbabilityConstraint(frozenset({0, 1}), Fraction(3, 7)),
            ProbabilityConstraint(frozenset({2, 3}), Fraction(4, 7)),
        ),
        ((0, 1), (3, 2)),
    )
    result = feasibility(edge, "f1>f2,f4=f3")
    assert not result.feasible
    assert_verdict_proven(edge, result)


def test_feasible_witness_values():
    # preferring f1 forces p_Y above the pinned 1/3, and the joint
    # margin maxes out at the p_B = 0 vertex
    s = builtin("ellsberg3")
    result = feasibility(s, "f1>f2,f3>f4")
    assert result.feasible
    assert result.witness.to_dict()["Y"] > 1 / 3
    assert result.margin == pytest.approx(10 / 3, abs=1e-6)

    m = builtin("machina5051")
    result = feasibility(m, "f1>f2,f3>f4")
    assert result.feasible
    delta = math.sqrt(202) - math.sqrt(101)
    assert result.margin == pytest.approx(delta * 50 / 101, abs=1e-6)

    # a region thinner than 1e-3: p(B) in (0.3329, 0.3333)
    thin = Scenario(
        "ellsberg3_thin",
        s.events,
        (Act("f1", (100, 0, 0)), Act("f2", (0, 0, 100)), Act("f3", (99.76, 0, 0)), Act("f4", (0, 0, 100))),
        s.constraints,
        ((0, 1), (3, 2)),
    )
    result = feasibility(thin, "f1>f2,f4>f3")
    assert result.feasible
    assert result.margin == pytest.approx(2.0e-3, abs=1e-5)
    assert_verdict_proven(thin, result)

    # the indifference holds only between the two vertices, at their midpoint
    mix = Scenario(
        "mix",
        ("a", "b"),
        (Act("f1", (0, 10)), Act("f2", (5, 5))),
        (ProbabilityConstraint(frozenset({0, 1}), Fraction(1)),),
        ((0, 1),),
    )
    result = feasibility(mix, "f1=f2", LINEAR)
    assert result.feasible
    assert result.witness.probs == (0.5, 0.5)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("u", [SQRT, LINEAR], ids=["sqrt", "linear"])
def test_feasible_margin_is_exact_on_the_reported_witness(name, u):
    # the least strict W difference, each summed exactly over the reported
    # float witness and the per-event float differences, rounded once
    s = builtin(name)
    for combo in product(RELATIONS, repeat=2):
        result = feasibility(s, PreferencePattern(combo), u)
        if not result.feasible:
            continue
        values = []
        for (a, b), rel in zip(s.question_pairs, combo):
            if rel == INDIFFERENT:
                continue
            sign = 1 if rel == FIRST_STRICT else -1
            diffs = [u(x) - u(y) for x, y in zip(s.acts[a].payoffs, s.acts[b].payoffs)]
            values.append(sum(sign * Fraction(d) * Fraction(p) for d, p in zip(diffs, result.witness.probs)))
        assert result.margin == (float(min(values)) if values else None), combo


def test_margin_differs_from_the_float_dot_product_by_one_ulp():
    # the float dot product gave 33.333333333333336 here
    result = feasibility(builtin("ellsberg3"), "f1<f2,f4>f3", LINEAR)
    assert result.margin == 33.33333333333333


def test_feasibility_rejects_wrong_arity():
    s = builtin("ellsberg3")
    with pytest.raises(PatternError, match="2 question pairs"):
        feasibility(s, PreferencePattern((FIRST_STRICT,)))


def test_feasibility_without_free_coordinates():
    s = Scenario(
        "pinned",
        ("a", "b"),
        (Act("f1", (10, 20)), Act("f2", (20, 10))),
        (
            ProbabilityConstraint(frozenset({0}), Fraction(1, 2)),
            ProbabilityConstraint(frozenset({1}), Fraction(1, 2)),
        ),
        ((0, 1),),
    )
    equal = feasibility(s, "f1=f2", LINEAR)
    assert equal.feasible
    assert_verdict_proven(s, equal, LINEAR)
    strict = feasibility(s, "f1>f2", LINEAR)
    assert not strict.feasible
    assert_verdict_proven(s, strict, LINEAR)

    # f1 dominates f2 on every event, so no probability makes them
    # indifferent: the indifferences alone admit no point
    dominated = Scenario(
        "dominated",
        ("a", "b"),
        (Act("f1", (2, 2)), Act("f2", (1, 1)), Act("f3", (1, 2)), Act("f4", (2, 1))),
        (ProbabilityConstraint(frozenset({0, 1}), Fraction(1)),),
        ((0, 1), (2, 3)),
    )
    for pattern in ("f1=f2,f3=f4", "f1=f2,f3>f4"):
        result = feasibility(dominated, pattern, LINEAR)
        assert not result.feasible, pattern
        assert result.margin is None
        assert_verdict_proven(dominated, result, LINEAR)


def test_feasibility_decides_five_free_coordinates():
    s = Scenario(
        "wide",
        ("a", "b", "c", "d", "e", "f"),
        (
            Act("f1", (5, 4, 3, 2, 1, 3)),
            Act("f2", (1, 2, 3, 4, 5, 3)),
            Act("f3", (1, 2, 3, 4, 5, 3)),
            Act("f4", (5, 4, 3, 2, 1, 3)),
        ),
        (ProbabilityConstraint(frozenset(range(6)), Fraction(1)),),
        ((0, 1), (2, 3)),
    )
    cases = (("f1>f2,f3<f4", True), ("f1=f2,f3=f4", True), ("f1>f2,f3>f4", False), ("f1=f2,f3>f4", False))
    for pattern, feasible in cases:
        result = feasibility(s, pattern, LINEAR)
        assert result.feasible is feasible, pattern
        assert_verdict_proven(s, result, LINEAR)


def test_feasibility_reports_utility_dependence():
    s = Scenario(
        "mixed",
        ("a", "b"),
        (Act("f1", (100, 0)), Act("f2", (0, 50))),
        (ProbabilityConstraint(frozenset({0, 1}), Fraction(1)),),
        ((0, 1),),
    )
    result = feasibility(s, "f1>f2", SQRT)
    assert result.feasible
    assert result.u_independent is False
    assert "strictly increasing utility" not in result.certificate


def test_feasibility_result_to_dict():
    result = feasibility(builtin("ellsberg3"), "f1>f2,f4>f3")
    data = result.to_dict()
    assert data["feasible"] is False
    assert data["witness"] is None
    assert data["u_independent"] is True
    assert [Fraction(w) for w in data["multipliers"]] == list(result.multipliers)
    assert "INFEASIBLE" in result.summary()
    assert feasibility(builtin("ellsberg3"), "f1>f2,f3>f4").to_dict()["multipliers"] is None


@st.composite
def _square_scenarios(draw):
    """2-6 events in 1-3 groups with rational totals, four acts with perfect-square payoffs."""
    n = draw(st.integers(min_value=2, max_value=6))
    k = draw(st.integers(min_value=1, max_value=min(3, n)))
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=n - 1), min_size=k - 1, max_size=k - 1)))
    weights = draw(st.lists(st.integers(min_value=1, max_value=9), min_size=k, max_size=k))
    squares = st.sampled_from((0, 1, 4, 9, 16, 25, 36, 49, 64, 81, 100))
    acts = tuple(
        Act(f"f{j + 1}", tuple(draw(st.lists(squares, min_size=n, max_size=n)))) for j in range(4)
    )
    constraints = tuple(
        ProbabilityConstraint(frozenset(range(lo, hi)), Fraction(w, sum(weights)))
        for lo, hi, w in zip([0] + cuts, cuts + [n], weights)
    )
    return Scenario("squares", tuple(f"E{i}" for i in range(n)), acts, constraints, ((0, 1), (3, 2)))


@settings(max_examples=150, deadline=None)
@given(scenario=_square_scenarios(), u=st.sampled_from([SQRT, LINEAR]))
def test_feasibility_verdicts_are_proven_on_generated_scenarios(scenario, u):
    # square payoffs make sqrt gaps integers, so ties and degenerate faces are common
    for combo in product(RELATIONS, repeat=2):
        assert_verdict_proven(scenario, feasibility(scenario, PreferencePattern(combo), u), u)


# -- biconditional ------------------------------------------------------

def test_biconditional_holds_on_builtins():
    for name in BUILTIN_NAMES:
        s = builtin(name)
        assert biconditional_check(s, ("f1", "f2"), ("f3", "f4"), SQRT)
        assert biconditional_check(s, ("f1", "f2"), ("f3", "f4"), LINEAR)


def test_biconditional_rejects_mismatched_pairs():
    s = builtin("ellsberg3")
    # reversing one pair flips the sign relation
    assert not biconditional_check(s, ("f1", "f2"), ("f4", "f3"), SQRT)
    assert not biconditional_check(s, ("f1", "f2"), ("f1", "f3"), SQRT)


def test_biconditional_zero_functionals():
    s = builtin("ellsberg3")
    assert biconditional_check(s, ("f1", "f1"), ("f2", "f2"), SQRT)
    assert not biconditional_check(s, ("f1", "f1"), ("f1", "f2"), SQRT)
