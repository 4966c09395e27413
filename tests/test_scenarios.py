"""Tests for scenario construction, JSON loading, utilities, and counts."""

from __future__ import annotations

import json
import math
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from bornchoice.scenarios import (
    act_utilities,
    Act,
    BUILTIN_NAMES,
    DEFAULT_UTILITY,
    ExperimentCounts,
    ProbabilityConstraint,
    Scenario,
    ScenarioError,
    UtilityFunction,
    act_operator,
    builtin,
    load_scenario,
    load_scenario_file,
    resolve_scenario,
    utility_values,
)


# -- utility functions -------------------------------------------------

def test_parse_utility_specs():
    assert UtilityFunction.parse("sqrt").kind == "sqrt"
    assert UtilityFunction.parse(" linear ").kind == "linear"
    assert UtilityFunction.parse("identity")(7.5) == 7.5
    u = UtilityFunction.parse("power:0.5")
    assert u.kind == "power" and u.alpha == 0.5
    assert u.label() == "power:0.5"
    with pytest.raises(ScenarioError, match="unknown utility spec"):
        UtilityFunction.parse("cubic")
    with pytest.raises(ScenarioError, match="bad power utility spec"):
        UtilityFunction.parse("power:abc")


def test_utility_values_and_domains():
    u = UtilityFunction.sqrt()
    assert u(100) == 10.0
    assert u(0) == 0.0
    with pytest.raises(ScenarioError, match="undefined at payoff -1"):
        u(-1)
    p = UtilityFunction.power(2.0)
    assert p(3) == 9.0
    with pytest.raises(ScenarioError, match="alpha > 0"):
        UtilityFunction.power(-1.0)
    with pytest.raises(ScenarioError, match="unknown utility kind"):
        UtilityFunction("log")


def test_utility_parameters_must_be_finite():
    with pytest.raises(ScenarioError, match="finite alpha > 0"):
        UtilityFunction.power(math.inf)
    with pytest.raises(ScenarioError, match="finite alpha > 0"):
        UtilityFunction.parse("power:inf")
    # a NaN entry would slip past the pairwise increasing check
    with pytest.raises(ScenarioError, match="finite payoffs and values"):
        UtilityFunction.from_table({0: 0.0, 100: math.nan})


@pytest.mark.parametrize("payoff", [math.nan, math.inf, -math.inf])
def test_act_rejects_non_finite_payoffs(payoff):
    with pytest.raises(ScenarioError, match="payoffs must be finite"):
        Act("f1", (0, payoff, 1))
    doc = builtin("ellsberg3").to_document()
    doc["acts"][0]["payoffs"][1] = payoff
    with pytest.raises(ScenarioError, match="payoffs must be finite"):
        load_scenario(json.dumps(doc))


def test_table_utility():
    t = UtilityFunction.from_table({0: 0.0, 100: 1.0, 50: 0.6})
    assert t(50) == 0.6
    assert t.label() == "table"
    with pytest.raises(ScenarioError, match="undefined at payoff 25"):
        t(25)
    with pytest.raises(ScenarioError, match="twice"):
        UtilityFunction("table", table=((0, 0.0), (0.0, 1.0)))
    with pytest.raises(ScenarioError, match="not strictly increasing"):
        UtilityFunction("table", table=((0, 1.0), (10, 0.5)))


def test_check_increasing_on():
    UtilityFunction.sqrt().check_increasing_on([0, 25, 100])
    with pytest.raises(ScenarioError, match="undefined"):
        UtilityFunction.sqrt().check_increasing_on([-5, 100])
    # table functions are checked only on their own support
    UtilityFunction.from_table({0: 0.0, 100: 1.0}).check_increasing_on([0, 100])


def test_default_utility_is_sqrt():
    assert DEFAULT_UTILITY.kind == "sqrt"


# -- built-in scenarios ------------------------------------------------

def test_builtin_names_and_lookup():
    assert BUILTIN_NAMES == ("ellsberg3", "machina5051", "reflection_lower", "reflection_upper")
    with pytest.raises(ScenarioError, match="unknown scenario"):
        builtin("ellsberg")


@pytest.mark.parametrize("name", ["table5", "../data/ellsberg3", "ellsberg3.json"])
def test_builtin_opens_no_file_for_other_names(monkeypatch, name):
    def no_open(*args, **kwargs):
        raise AssertionError(f"opened {args[0]!r}")

    with monkeypatch.context() as patch:
        patch.setattr("builtins.open", no_open)
        with pytest.raises(ScenarioError, match="unknown scenario"):
            builtin(name)


def test_ellsberg3_contents():
    s = builtin("ellsberg3")
    assert s.events == ("R", "Y", "B")
    assert s.act("f1").payoffs == (100.0, 0.0, 0.0)
    assert s.act("f2").payoffs == (0.0, 0.0, 100.0)
    assert s.act("f3").payoffs == (100.0, 100.0, 0.0)
    assert s.act("f4").payoffs == (0.0, 100.0, 100.0)
    assert s.groups() == (((0,), Fraction(1, 3)), ((1, 2), Fraction(2, 3)))
    assert s.question_pairs == ((0, 1), (3, 2))


def test_machina5051_contents():
    s = builtin("machina5051")
    assert s.events == ("R", "Y", "B", "G")
    expected = np.array(
        [
            [202, 202, 101, 101],
            [202, 101, 202, 101],
            [303, 202, 101, 0],
            [303, 101, 202, 0],
        ],
        dtype=float,
    )
    assert np.array_equal(s.payoff_matrix(), expected)
    assert s.groups() == (((0, 1), Fraction(50, 101)), ((2, 3), Fraction(51, 101)))
    assert s.question_pairs == ((0, 1), (3, 2))


def test_reflection_contents():
    lo = builtin("reflection_lower")
    hi = builtin("reflection_upper")
    assert np.array_equal(
        lo.payoff_matrix(),
        np.array([[0, 50, 25, 25], [0, 25, 50, 25], [25, 50, 25, 0], [25, 25, 50, 0]], dtype=float),
    )
    # the upper variant lifts events R and G by 50 on every act
    assert np.array_equal(hi.payoff_matrix(), lo.payoff_matrix() + np.array([50.0, 0.0, 0.0, 50.0]))
    for s in (lo, hi):
        assert s.groups() == (((0, 1), Fraction(1, 2)), ((2, 3), Fraction(1, 2)))
        assert s.question_pairs == ((0, 1), (2, 3))


def test_act_and_event_lookup():
    s = builtin("ellsberg3")
    assert s.act(0).label == "f1"
    assert s.act_index("f3") == 2
    assert s.event_index("Y") == 1
    assert s.event_index(2) == 2
    with pytest.raises(ScenarioError, match="unknown act"):
        s.act("f9")
    with pytest.raises(ScenarioError, match="out of range"):
        s.act(7)
    with pytest.raises(ScenarioError, match="unknown event"):
        s.event_index("G")


# each maps the scenario's labels of one kind to a reference that names none of them
BAD_REFERENCES = {
    "negative": lambda labels: -1,
    "past-the-end": len,
    "bool": lambda labels: True,
    "float": lambda labels: 1.5,
    "none": lambda labels: None,
    "unknown-label": lambda labels: "nope",
}


@pytest.mark.parametrize("bad", BAD_REFERENCES.values(), ids=BAD_REFERENCES.keys())
def test_bad_references_rejected_alike_on_every_route(bad):
    s = builtin("ellsberg3")
    act_ref = bad([a.label for a in s.acts])
    event_ref = bad(s.events)
    messages = set()
    for lookup in (s.act, s.act_index):
        with pytest.raises(ScenarioError) as direct:
            lookup(act_ref)
        messages.add(str(direct.value))
    assert len(messages) == 1
    doc = s.to_document()
    doc["question_pairs"][0][1] = act_ref
    with pytest.raises(ScenarioError, match="question_pairs\\[0\\]") as loaded:
        load_scenario(doc)
    with pytest.raises(ScenarioError, match="question_pairs\\[0\\]") as built:
        Scenario(s.name, s.events, s.acts, s.constraints, ((0, act_ref), s.question_pairs[1]))
    assert str(loaded.value) == str(built.value)
    assert str(loaded.value).endswith(messages.pop())

    with pytest.raises(ScenarioError) as direct:
        s.event_index(event_ref)
    doc = s.to_document()
    doc["constraints"][0]["events"] = [event_ref]
    with pytest.raises(ScenarioError, match="constraints\\[0\\]") as loaded:
        load_scenario(doc)
    assert str(loaded.value).endswith(str(direct.value))


@pytest.mark.parametrize("index", [True, 1.5, -1, 3, "W"])
def test_constraint_indices_resolve_like_event_references(index):
    # a constraint built in code names events as event_index does, and Scenario resolves them
    constraints = (
        ProbabilityConstraint(frozenset({0}), Fraction(1, 3)),
        ProbabilityConstraint(frozenset({index, 2}), Fraction(2, 3)),
    )
    s = builtin("ellsberg3")
    with pytest.raises(ScenarioError) as direct:
        s.event_index(index)
    with pytest.raises(ScenarioError) as built:
        Scenario("s", s.events, s.acts, constraints, s.question_pairs)
    assert str(built.value) == f"constraints[1]: {direct.value}"


@pytest.mark.parametrize("first", [{"R"}, {"R", 0}], ids=["label", "label-and-its-index"])
def test_constraint_labels_resolve_to_indices(first):
    s = builtin("ellsberg3")
    constraints = (
        ProbabilityConstraint(frozenset(first), Fraction(1, 3)),
        ProbabilityConstraint(frozenset({1, 2}), Fraction(2, 3)),
    )
    assert Scenario(s.name, s.events, s.acts, constraints, s.question_pairs) == s


def test_constraint_label_overlapping_an_index_is_reported():
    s = builtin("ellsberg3")
    constraints = (
        ProbabilityConstraint(frozenset({"R", "Y"}), Fraction(1, 3)),
        ProbabilityConstraint(frozenset({1, 2}), Fraction(2, 3)),
    )
    with pytest.raises(ScenarioError, match="constraints overlap on event 'Y'"):
        Scenario(s.name, s.events, s.acts, constraints, s.question_pairs)


def test_document_constraint_keeps_a_boolean_beside_its_index():
    # a document's event list is not collapsed to a set before it is resolved: true is not 1
    doc = builtin("ellsberg3").to_document()
    doc["constraints"][1]["events"] = [1, True]
    with pytest.raises(ScenarioError, match="constraints\\[1\\]: bad event reference True"):
        load_scenario(doc)


def test_deeply_nested_document_is_a_scenario_error():
    with pytest.raises(ScenarioError, match="nested too deeply"):
        load_scenario("[" * 100_000 + "]" * 100_000)


# -- scenario validation -----------------------------------------------

def _acts3():
    return (Act("f1", (1, 2, 3)), Act("f2", (3, 2, 1)))


def _constraints3():
    return (
        ProbabilityConstraint(frozenset({0}), Fraction(1, 3)),
        ProbabilityConstraint(frozenset({1, 2}), Fraction(2, 3)),
    )


def test_scenario_rejects_duplicate_events():
    with pytest.raises(ScenarioError, match="unique"):
        Scenario("s", ("a", "a", "b"), _acts3(), _constraints3(), ((0, 1),))


def test_scenario_rejects_wrong_payoff_length():
    acts = (Act("f1", (1, 2)), Act("f2", (3, 2, 1)))
    with pytest.raises(ScenarioError, match="expected 3 payoffs"):
        Scenario("s", ("a", "b", "c"), acts, _constraints3(), ((0, 1),))


def test_scenario_rejects_overlapping_groups():
    constraints = (
        ProbabilityConstraint(frozenset({0, 1}), Fraction(1, 2)),
        ProbabilityConstraint(frozenset({1, 2}), Fraction(1, 2)),
    )
    with pytest.raises(ScenarioError, match="overlap"):
        Scenario("s", ("a", "b", "c"), _acts3(), constraints, ((0, 1),))


def test_scenario_rejects_uncovered_events():
    constraints = (ProbabilityConstraint(frozenset({0}), Fraction(1)),)
    with pytest.raises(ScenarioError, match="partition"):
        Scenario("s", ("a", "b", "c"), _acts3(), constraints, ((0, 1),))


def test_scenario_rejects_bad_total_sum():
    constraints = (
        ProbabilityConstraint(frozenset({0}), Fraction(1, 2)),
        ProbabilityConstraint(frozenset({1, 2}), Fraction(1, 4)),
    )
    with pytest.raises(ScenarioError, match="sum to 1"):
        Scenario("s", ("a", "b", "c"), _acts3(), constraints, ((0, 1),))


def test_scenario_rejects_bad_question_pairs():
    with pytest.raises(ScenarioError, match="missing act"):
        Scenario("s", ("a", "b", "c"), _acts3(), _constraints3(), ((0, 5),))
    with pytest.raises(ScenarioError, match="distinct"):
        Scenario("s", ("a", "b", "c"), _acts3(), _constraints3(), ((1, 1),))
    for pairs in ((), ((0, 1), (1, 0), (0, 1))):
        with pytest.raises(ScenarioError, match="one or two question pairs"):
            Scenario("s", ("a", "b", "c"), _acts3(), _constraints3(), pairs)


def test_constraint_total_range():
    with pytest.raises(ScenarioError, match="outside"):
        ProbabilityConstraint(frozenset({0}), Fraction(3, 2))
    with pytest.raises(ScenarioError, match="at least one event"):
        ProbabilityConstraint(frozenset(), Fraction(1, 2))


# -- JSON loading ------------------------------------------------------

def test_serialize_round_trip():
    for name in BUILTIN_NAMES:
        s = builtin(name)
        assert load_scenario(s.serialize()) == s


def test_bundled_scenario_files_match_builtins():
    for name in BUILTIN_NAMES:
        text = resources.files("bornchoice.data").joinpath(f"{name}.json").read_text()
        assert load_scenario(text) == builtin(name)


def test_load_scenario_accepts_indices():
    doc = {
        "name": "urn",
        "events": ["R", "Y", "B"],
        "acts": [{"label": "f1", "payoffs": [1, 0, 0]}, {"label": "f2", "payoffs": [0, 1, 1]}],
        "constraints": [{"events": [0], "total": "1/3"}, {"events": ["Y", 2], "total": "2/3"}],
        "question_pairs": [[0, "f2"]],
    }
    s = load_scenario(doc)
    assert s.groups() == (((0,), Fraction(1, 3)), ((1, 2), Fraction(2, 3)))
    assert s.question_pairs == ((0, 1),)


def test_load_scenario_rejects_float_total():
    doc = builtin("ellsberg3").to_document()
    doc["constraints"][0]["total"] = 0.3333333
    with pytest.raises(ScenarioError, match="integer fraction string"):
        load_scenario(doc)


def test_load_scenario_rejects_bad_rational():
    doc = builtin("ellsberg3").to_document()
    doc["constraints"][0]["total"] = "1/0"
    with pytest.raises(ScenarioError, match="bad rational"):
        load_scenario(doc)


def test_load_scenario_diagnostics_name_the_field():
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario("{nope")
    with pytest.raises(ScenarioError, match="missing field 'acts'"):
        load_scenario({"name": "x", "events": ["a"]})
    doc = builtin("ellsberg3").to_document()
    doc["constraints"][0]["events"] = ["W"]
    with pytest.raises(ScenarioError, match="unknown event 'W'"):
        load_scenario(doc)
    doc = builtin("ellsberg3").to_document()
    doc["question_pairs"][0] = ["f1"]
    with pytest.raises(ScenarioError, match="question_pairs\\[0\\]"):
        load_scenario(doc)
    doc = builtin("ellsberg3").to_document()
    doc["acts"][1]["payoffs"] = [0, 0, "many"]
    with pytest.raises(ScenarioError, match="must be numbers"):
        load_scenario(doc)


def test_resolve_scenario(tmp_path):
    assert resolve_scenario("machina5051").name == "machina5051"
    path = tmp_path / "urn.json"
    path.write_text(builtin("ellsberg3").serialize())
    assert resolve_scenario(str(path)) == builtin("ellsberg3")
    with pytest.raises(ScenarioError, match="not an existing file"):
        resolve_scenario("no_such_scenario")


def test_load_scenario_file(tmp_path):
    path = tmp_path / "urn.json"
    path.write_text(builtin("reflection_upper").serialize())
    assert load_scenario_file(path) == builtin("reflection_upper")


# -- act utilities and operators ---------------------------------------

def test_utility_values_sqrt():
    s = builtin("ellsberg3")
    assert np.array_equal(utility_values(s, "f1", UtilityFunction.sqrt()), [10.0, 0.0, 0.0])
    assert np.array_equal(utility_values(s, 3, UtilityFunction.linear()), [0.0, 100.0, 100.0])


def test_utility_values_rejects_foreign_act():
    s = builtin("ellsberg3")
    foreign = Act("f1", (1, 2, 3))
    with pytest.raises(ScenarioError, match="does not belong"):
        utility_values(s, foreign, DEFAULT_UTILITY)


@pytest.mark.parametrize("alpha", [400.0, 1e308])
def test_power_utility_overflow_is_a_scenario_error(alpha):
    with pytest.raises(ScenarioError, match="power utility overflows at payoff 100.0"):
        utility_values(builtin("ellsberg3"), "f1", UtilityFunction.power(alpha))


def test_utility_values_wraps_act_utilities():
    s = builtin("machina5051")
    for act in s.acts:
        values = act_utilities(s, act, DEFAULT_UTILITY)
        assert isinstance(values, tuple)
        assert np.array_equal(utility_values(s, act, DEFAULT_UTILITY), values)


def test_utility_values_rejects_undefined_utility():
    s = Scenario(
        "neg",
        ("a", "b"),
        (Act("f1", (-5, 10)), Act("f2", (0, 1))),
        (ProbabilityConstraint(frozenset({0, 1}), Fraction(1)),),
        ((0, 1),),
    )
    with pytest.raises(ScenarioError, match="undefined"):
        utility_values(s, "f1", UtilityFunction.sqrt())


def test_act_operator_is_diagonal_utilities():
    s = builtin("machina5051")
    op = act_operator(s, "f1", UtilityFunction.sqrt())
    expected = np.diag(np.sqrt(np.array([202.0, 202.0, 101.0, 101.0], dtype=complex)))
    assert np.allclose(op.entries, expected, atol=1e-12)
    assert op.dim == 4


# -- experiment counts -------------------------------------------------

def test_counts_derive_total():
    c = ExperimentCounts(125, 38, 6, 31)
    assert c.n_total == 200
    assert c.cells() == (125, 38, 6, 31)
    assert c.to_dict()["n_total"] == 200


def test_counts_validate_total_and_cells():
    ExperimentCounts(1, 2, 3, 4, n_total=10)
    with pytest.raises(ScenarioError, match="sum to 10, not the stated total 11"):
        ExperimentCounts(1, 2, 3, 4, n_total=11)
    with pytest.raises(ScenarioError, match="non-negative integers"):
        ExperimentCounts(-1, 2, 3, 4)
    with pytest.raises(ScenarioError, match="non-negative integers"):
        ExperimentCounts(1.5, 2, 3, 4)
    with pytest.raises(ScenarioError, match="at least one participant"):
        ExperimentCounts(0, 0, 0, 0)
    # a bool equals 0 or 1 and a float total can equal the sum, but neither is a count
    for cells, total in [((True, 0, 0, 0), None), ((1, 2, 3, False), None), ((1, 0, 0, 0), True),
                         ((1, 2, 3, 4), 10.0), ((1, 2, 3, 4), "10")]:
        with pytest.raises(ScenarioError, match="non-negative integers"):
            ExperimentCounts(*cells, n_total=total)


# -- the value-class contract ------------------------------------------

def test_equal_values_compare_and_hash_equal():
    pairs = [
        (ExperimentCounts(1, 2, 3, 4), ExperimentCounts(1, 2, 3, 4, n_total=10)),
        (UtilityFunction.power(0.5), UtilityFunction("power", alpha=0.5)),
        (Act("a", [1, 2]), Act(label="a", payoffs=(1.0, 2.0))),
        (builtin("machina5051"), load_scenario(builtin("machina5051").serialize())),
    ]
    for left, right in pairs:
        assert left is not right
        assert left == right and not left != right
        assert hash(left) == hash(right)
    assert Act("a", [1]) != Act("b", [1])
    assert ExperimentCounts(1, 2, 3, 4) != (1, 2, 3, 4, 10)


def test_fields_are_read_only():
    act = Act("a", [1, 2])
    with pytest.raises(AttributeError, match="label"):
        act.label = "b"
    with pytest.raises(AttributeError, match="payoffs"):
        del act.payoffs
    with pytest.raises(AttributeError):
        act.extra = 1
    assert act == Act("a", [1, 2])


def test_repr_names_fields_and_the_class():
    assert repr(Act("a", [1])) == "Act(label='a', payoffs=(1.0,))"
    assert repr(ExperimentCounts(1, 2, 3, 4)) == (
        "ExperimentCounts(n_f1f4=1, n_f1f3=2, n_f2f3=3, n_f2f4=4, n_total=10)"
    )


@pytest.mark.parametrize("make, message", [
    (lambda: Act("a"), "missing required argument 'payoffs'"),
    (lambda: Act("a", [1], colour="red"), "unexpected keyword argument 'colour'"),
    (lambda: Act("a", [1], "extra"), "takes 2 arguments but 3 were given"),
    (lambda: Act("a", [1], label="b"), "multiple values for argument 'label'"),
    (lambda: ExperimentCounts(1, 2, 3), "missing required argument 'n_f2f4'"),
])
def test_constructor_arguments_are_checked(make, message):
    with pytest.raises(TypeError, match=message):
        make()


def test_post_init_normalises_fields():
    assert Act("a", [1, "2.5"]).payoffs == (1.0, 2.5)
    assert ExperimentCounts(1, 2, 3, 4).n_total == 10
    assert UtilityFunction.from_table({4: 2, 1: 1}).table == ((1.0, 1.0), (4.0, 2.0))
    constraint = ProbabilityConstraint([0, 1], "1/3")
    assert constraint.event_indices == (0, 1) and constraint.total == Fraction(1, 3)


def test_subclass_inherits_fields_and_post_init():
    from bornchoice import _value_class

    @_value_class
    class WeightedAct(Act):
        weight: float = 1.0

    act = WeightedAct("a", [1, 2], weight=2.0)
    assert (act.label, act.payoffs, act.weight) == ("a", (1.0, 2.0), 2.0)
    assert WeightedAct("a", [1, 2]).weight == 1.0
    assert repr(act) == "WeightedAct(label='a', payoffs=(1.0, 2.0), weight=2.0)"
    assert act != Act("a", [1, 2])
    with pytest.raises(ScenarioError, match="finite"):
        WeightedAct("a", [math.inf])
    with pytest.raises(AttributeError):
        act.weight = 3.0
