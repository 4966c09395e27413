"""Tests for experiment statistics: weights, binomial tests, McNemar variants, discrepancy analysis."""

from __future__ import annotations

import math

import pytest

from bornchoice.scenarios import (
    BUILTIN_NAMES,
    Act,
    ExperimentCounts,
    Fraction,
    ProbabilityConstraint,
    Scenario,
    ScenarioError,
    builtin,
)
from bornchoice.stats import (
    BUNDLED_COUNTS,
    analyze,
    binomial_z_test,
    exact_binomial_test,
    inversion_rate,
    load_counts_csv,
    mcnemar_tests,
    preference_weights,
    report_csv_rows,
)

# bundled cell tables, one row per scenario, cells (f1f4, f1f3, f2f3, f2f4)
CELLS = {
    "ellsberg3": (125, 38, 6, 31),
    "machina5051": (59, 57, 17, 67),
    "reflection_lower": (64, 51, 59, 26),
    "reflection_upper": (80, 54, 50, 16),
}

# weights and inversion rates implied by the cells (k/200 is exact in floats)
WEIGHTS = {
    "ellsberg3": (0.815, 0.780),
    "machina5051": (0.580, 0.630),
    "reflection_lower": (0.575, 0.550),
    "reflection_upper": (0.670, 0.520),
}
INVERSIONS = {
    "ellsberg3": 0.655,
    "machina5051": 0.380,
    "reflection_lower": 0.615,
    "reflection_upper": 0.650,
}

# two-sided normal-approximation p-values at n=200, frozen from an
# independent scipy.stats.norm computation
Z_P = {
    163: 5.124222e-19,
    156: 2.382836e-15,
    134: 1.521993e-6,
    126: 2.360344e-4,
    120: 4.677735e-3,
    116: 2.365162e-2,
    115: 3.389485e-2,
    110: 1.572992e-1,
    104: 5.716076e-1,
}

# doubled-smaller-tail exact p-values at n=200, frozen from scipy.stats.binom
EXACT_P = {
    163: 4.582036e-20,
    156: 6.837911e-16,
    134: 1.737587e-6,
    126: 2.892753e-4,
    116: 2.812541e-2,
    115: 4.003719e-2,
    110: 1.789640e-1,
    104: 6.207289e-1,
}

# (chi2, corrected, exact) triples on the discordant cells of each bundled
# row, frozen from scipy.stats.chi2.sf and scipy.stats.binom
MCNEMAR = {
    (125, 6): (2.556520e-25, 6.369464e-25, 4.819049e-30),
    (59, 17): (1.452004e-6, 2.563381e-6, 1.396872e-6),
    (64, 59): (6.521086e-1, 7.183478e-1, 7.185088e-1),
    (80, 50): (8.509044e-3, 1.097580e-2, 1.069406e-2),
}


def _counts(name):
    return ExperimentCounts(*CELLS[name])


# -- preference weights and inversion rate -------------------------------

@pytest.mark.parametrize("name", sorted(CELLS))
def test_preference_weights_match_cells(name):
    w = preference_weights(_counts(name), scenario=builtin(name))
    assert w == WEIGHTS[name]


def test_question2_orientation():
    c = _counts("reflection_lower")
    # without a scenario the second question defaults to fourth-act-first
    assert preference_weights(c) == (0.575, 0.450)
    # the reflection scenarios list the third act first
    assert preference_weights(c, scenario="reflection_lower") == (0.575, 0.550)
    # the urn scenarios list the fourth act first
    assert preference_weights(_counts("ellsberg3"), scenario="ellsberg3")[1] == 0.780


def test_question2_rejects_crossed_pairs():
    acts = tuple(Act(f"f{i}", (float(i), 2.0, 3.0, 4.0)) for i in range(1, 5))
    cons = (
        ProbabilityConstraint(frozenset({0, 1}), Fraction(1, 2)),
        ProbabilityConstraint(frozenset({2, 3}), Fraction(1, 2)),
    )
    crossed = Scenario("crossed", ("R", "Y", "B", "G"), acts, cons, ((0, 2), (1, 3)))
    with pytest.raises(ScenarioError, match="cell counts assume"):
        preference_weights(ExperimentCounts(50, 50, 50, 50), scenario=crossed)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_inversion_rate_and_complement(name):
    c = _counts(name)
    assert inversion_rate(c) == INVERSIONS[name]
    concordant = (c.n_f1f3 + c.n_f2f4) / c.n_total
    assert inversion_rate(c) + concordant == 1.0


# -- binomial z-test ------------------------------------------------------

def test_binomial_z_frozen_values():
    for k, expected in Z_P.items():
        assert binomial_z_test(k, 200) == pytest.approx(expected, rel=1e-6)


def test_binomial_z_even_split_is_one():
    assert binomial_z_test(100, 200) == 1.0
    assert binomial_z_test(50, 200, p0=0.25) == 1.0


def test_binomial_z_rejects_bad_arguments():
    with pytest.raises(ScenarioError, match="need 0 <= k <= n"):
        binomial_z_test(-1, 200)
    with pytest.raises(ScenarioError, match="need 0 <= k <= n"):
        binomial_z_test(201, 200)
    with pytest.raises(ScenarioError, match="strictly inside"):
        binomial_z_test(10, 200, p0=0.0)
    with pytest.raises(ScenarioError, match="strictly inside"):
        binomial_z_test(10, 200, p0=1.0)
    with pytest.raises(ScenarioError, match="at least one trial, got n=0"):
        binomial_z_test(0, 0)


# -- exact binomial test ---------------------------------------------------

def test_exact_binomial_frozen_values():
    for k, expected in EXACT_P.items():
        assert exact_binomial_test(k, 200) == pytest.approx(expected, rel=1e-6)


def test_exact_binomial_symmetry_is_bitwise():
    for k in list(range(0, 201, 7)) + sorted(EXACT_P):
        assert exact_binomial_test(k, 200) == exact_binomial_test(200 - k, 200)
    for k in (0, 40, 100):
        assert exact_binomial_test(k, 201) == exact_binomial_test(201 - k, 201)


def test_exact_binomial_extremes():
    edge = exact_binomial_test(200, 200)
    assert edge == pytest.approx(2.0 * 0.5**200, rel=1e-12)
    assert exact_binomial_test(0, 200) == edge
    assert exact_binomial_test(100, 200) == 1.0  # doubled tail capped at 1


def test_exact_binomial_skewed_null():
    # doubled smaller tail at p0 = 0.2, frozen from scipy.stats.binom
    assert exact_binomial_test(3, 10, p0=0.2) == pytest.approx(0.6444009472, rel=1e-9)
    assert exact_binomial_test(2, 10, p0=0.2) == 1.0


def test_exact_binomial_rejects_bad_arguments():
    with pytest.raises(ScenarioError, match="need 0 <= k <= n"):
        exact_binomial_test(-1, 200)
    with pytest.raises(ScenarioError, match="strictly inside"):
        exact_binomial_test(10, 200, p0=1.0)


def test_z_within_factor_of_exact_in_central_window():
    # the approximation stays within x1.5 of the exact tail across the
    # whole band the bundled counts live in, and well inside it at 116;
    # outside the band the z tail overshoots badly, so no claim is made
    for k in range(53, 148):
        ratio = binomial_z_test(k, 200) / exact_binomial_test(k, 200)
        assert 1.0 / 1.5 <= ratio <= 1.5
    ratio_116 = binomial_z_test(116, 200) / exact_binomial_test(116, 200)
    assert 1.0 / 1.3 <= ratio_116 <= 1.3
    assert binomial_z_test(40, 200) / exact_binomial_test(40, 200) > 1.5


# -- McNemar variants ------------------------------------------------------

@pytest.mark.parametrize("name", sorted(CELLS))
def test_mcnemar_frozen_values(name):
    c = _counts(name)
    chi2, corrected, exact = MCNEMAR[(c.n_f1f4, c.n_f2f3)]
    got = mcnemar_tests(c)
    assert got["mcnemar_chi2"] == pytest.approx(chi2, rel=1e-6)
    assert got["mcnemar_chi2_corrected"] == pytest.approx(corrected, rel=1e-6)
    assert got["mcnemar_exact"] == pytest.approx(exact, rel=1e-6)


def test_mcnemar_balanced_discordance():
    got = mcnemar_tests(ExperimentCounts(30, 99, 30, 41))
    assert got == {"mcnemar_chi2": 1.0, "mcnemar_chi2_corrected": 1.0, "mcnemar_exact": 1.0}


def test_mcnemar_no_discordant_answers():
    got = mcnemar_tests(ExperimentCounts(0, 100, 0, 100))
    assert got == {"mcnemar_chi2": None, "mcnemar_chi2_corrected": None, "mcnemar_exact": 1.0}


# -- full analysis against the published values ---------------------------

EXPECTED_MATCHED = {
    "ellsberg3": {
        "weight_q1": "cell counts",
        "weight_q2": "cell counts",
        "inversion": "cell counts",
    },
    "machina5051": {
        "weight_q1": "cell counts",
        "weight_q2": "cell counts",
        "inversion": "cell counts",
        "p_q1": "z_test",
    },
    "reflection_lower": {
        "weight_q1": "cell counts",
        "inversion": "cell counts",
        "p_q1": "z_test",
        "cross_test": "mcnemar_chi2",
    },
    "reflection_upper": {
        "weight_q1": "cell counts",
        "inversion": "cell counts",
        "p_q2": "z_test",
        "cross_test": "mcnemar_chi2",
    },
}

EXPECTED_FLAGS = {
    "ellsberg3": {"p_q1": 1.25e-23, "p_q2": 5.48e-18, "cross_test": 1.91e-35},
    "machina5051": {"p_q2": 1.93e-4, "cross_test": 7.48e-7},
    "reflection_lower": {"count_q2": 120, "weight_q2": 0.630, "p_q2": 1.58e-1},
    "reflection_upper": {"p_q1": 7.89e-7, "weight_q2": 0.620},
}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_analyze_matches_and_flags(name):
    rep = analyze(_counts(name), scenario=name)
    assert rep.scenario_name == name
    assert (rep.weight_q1, rep.weight_q2) == WEIGHTS[name]
    assert rep.inversion_rate == INVERSIONS[name]
    assert rep.matched == EXPECTED_MATCHED[name]
    assert {f.quantity: f.published for f in rep.flags} == EXPECTED_FLAGS[name]


@pytest.mark.parametrize("name", sorted(CELLS))
def test_analyze_variant_values(name):
    rep = analyze(_counts(name), scenario=name)
    c = _counts(name)
    if name.startswith("reflection"):
        k2 = c.n_f1f3 + c.n_f2f3  # third act listed first
    else:
        k2 = c.n_f1f4 + c.n_f2f4
    assert (rep.k_q1, rep.k_q2) == (c.n_f1f4 + c.n_f1f3, k2)
    # headline p-values are the normal-approximation ones
    assert rep.p_q1 == rep.question_variants["q1"]["z_test"]
    assert rep.p_q2 == rep.question_variants["q2"]["z_test"]
    for q, k in (("q1", rep.k_q1), ("q2", rep.k_q2)):
        variants = rep.question_variants[q]
        assert variants["z_test"] == pytest.approx(Z_P[k], rel=1e-6)
        assert variants["exact_binomial"] == pytest.approx(EXACT_P[k], rel=1e-6)
    chi2, corrected, exact = MCNEMAR[(c.n_f1f4, c.n_f2f3)]
    assert rep.cross_test["mcnemar_chi2"] == pytest.approx(chi2, rel=1e-6)
    assert rep.cross_test["mcnemar_exact"] == pytest.approx(exact, rel=1e-6)


def test_analyze_question_labels():
    assert analyze(_counts("ellsberg3"), scenario="ellsberg3").first_act_q2 == "f4"
    assert analyze(_counts("reflection_lower"), scenario="reflection_lower").first_act_q2 == "f3"
    rep = analyze(_counts("machina5051"), scenario="machina5051")
    assert rep.first_act_q1 == "f1" and rep.first_act_q2 == "f4"


def test_analyze_flag_messages():
    lower = analyze(_counts("reflection_lower"), scenario="reflection_lower")
    by_quantity = {f.quantity: f.message for f in lower.flags}
    assert "disagrees with the cell table" in by_quantity["count_q2"]
    assert "matches neither the cells" in by_quantity["weight_q2"]
    assert "tied to the inconsistent count" in by_quantity["p_q2"]
    upper = analyze(_counts("reflection_upper"), scenario="reflection_upper")
    weight_flag = next(f for f in upper.flags if f.quantity == "weight_q2")
    assert "disagrees with its own count" in weight_flag.message
    ellsberg = analyze(_counts("ellsberg3"), scenario="ellsberg3")
    for f in ellsberg.flags:
        assert "not reproduced by any implemented variant (closest" in f.message


def test_analyze_without_scenario_context():
    rep = analyze(_counts("ellsberg3"))
    assert rep.scenario_name is None
    assert rep.published is None
    assert rep.matched == {} and rep.flags == ()
    assert rep.first_act_q2 == "f4"


def test_analyze_accepts_name_or_object():
    by_name = analyze(_counts("machina5051"), scenario="machina5051")
    by_object = analyze(_counts("machina5051"), scenario=builtin("machina5051"))
    assert by_name.to_dict() == by_object.to_dict()


def test_analyze_carries_published_registry():
    rep = analyze(_counts("ellsberg3"), scenario="ellsberg3")
    assert rep.published["count_q1"] == 163
    assert rep.published["cross"] == 1.91e-35
    lower = analyze(_counts("reflection_lower"), scenario="reflection_lower")
    assert lower.published["count_q2"] == 120  # disagrees with the cells on purpose


def test_analyze_degenerate_tables():
    unanimous = analyze(ExperimentCounts(200, 0, 0, 0))
    assert (unanimous.weight_q1, unanimous.weight_q2) == (1.0, 1.0)
    assert unanimous.inversion_rate == 1.0
    assert unanimous.p_q1 < 1e-10
    split = analyze(ExperimentCounts(50, 50, 50, 50))
    assert (split.weight_q1, split.weight_q2) == (0.5, 0.5)
    assert split.inversion_rate == 0.5
    assert split.p_q1 == 1.0
    assert split.question_variants["q1"]["exact_binomial"] == 1.0
    assert split.cross_test["mcnemar_chi2"] == 1.0


def test_summary_lists_matches_and_flags():
    lower = analyze(_counts("reflection_lower"), scenario="reflection_lower").summary()
    assert "question 1: 115/200 prefer f1" in lower
    assert "published values reproduced:" in lower
    assert "FLAG [count_q2]:" in lower
    ellsberg = analyze(_counts("ellsberg3"), scenario="ellsberg3").summary()
    assert "FLAG [cross_test]:" in ellsberg
    bare = analyze(_counts("ellsberg3")).summary()
    assert "(no scenario context)" in bare and "FLAG" not in bare


def test_report_to_dict_shape():
    d = analyze(_counts("reflection_upper"), scenario="reflection_upper").to_dict()
    assert d["scenario"] == "reflection_upper"
    assert d["counts"]["n_f1f4"] == 80
    assert set(d["question_variants"]) == {"q1", "q2"}
    assert set(d["cross_test"]) == {"mcnemar_chi2", "mcnemar_chi2_corrected", "mcnemar_exact"}
    assert all(set(f) == {"quantity", "published", "message"} for f in d["flags"])
    assert d["published"]["weight_q2"] == 0.620


# -- CSV input and output ---------------------------------------------------

def test_bundled_table_labels_its_rows_in_builtin_order():
    # cli analyze and the benchmark's analyze check read the rows in this order
    rows = load_counts_csv(BUNDLED_COUNTS)
    assert [label for label, _ in rows] == list(BUILTIN_NAMES)
    assert {label: counts.cells() for label, counts in rows} == CELLS


def test_load_counts_csv_round_trip(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text(
        "scenario,n_f1f4,n_f1f3,n_f2f3,n_f2f4,n_total\n"
        "ellsberg3,125,38,6,31,200\n"
        ",10,20,30,40,\n"
    )
    rows = load_counts_csv(path)
    assert rows[0] == ("ellsberg3", ExperimentCounts(125, 38, 6, 31, 200))
    assert rows[1][0] is None
    assert rows[1][1].n_total == 100


def test_load_counts_csv_minimal_header(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("n_f1f4,n_f1f3,n_f2f3,n_f2f4\n1,2,3,4\n")
    [(label, counts)] = load_counts_csv(path)
    assert label is None and counts.cells() == (1, 2, 3, 4)


def test_load_counts_csv_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("n_f1f4,n_f1f3,n_f2f3\n1,2,3\n")
    with pytest.raises(ScenarioError, match=r"missing column\(s\)"):
        load_counts_csv(path)


def test_load_counts_csv_non_integer_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("n_f1f4,n_f1f3,n_f2f3,n_f2f4\n1,x,3,4\n")
    with pytest.raises(ScenarioError, match="line 2: column n_f1f3 is 'x', not an integer"):
        load_counts_csv(path)


def test_load_counts_csv_total_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("n_f1f4,n_f1f3,n_f2f3,n_f2f4,n_total\n1,2,3,4,99\n")
    with pytest.raises(ScenarioError, match="line 2: .*not the stated total"):
        load_counts_csv(path)


def test_load_counts_csv_reads_a_user_file_on_every_call(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("n_f1f4,n_f1f3,n_f2f3,n_f2f4\n1,2,3,4\n")
    assert load_counts_csv(path)[0][1].n_total == 10
    path.write_text("n_f1f4,n_f1f3,n_f2f3,n_f2f4\n1,2,3,5\n")
    assert load_counts_csv(path)[0][1].n_total == 11


def test_load_counts_csv_hands_out_copies_of_the_bundled_rows():
    first = load_counts_csv(BUNDLED_COUNTS)
    first.clear()
    assert len(load_counts_csv(BUNDLED_COUNTS)) == 4


def test_load_counts_csv_missing_file(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        load_counts_csv(tmp_path / "absent.csv")


def test_report_csv_rows_shape():
    reports = [
        analyze(_counts("reflection_lower"), scenario="reflection_lower"),
        analyze(_counts("machina5051")),
    ]
    rows = report_csv_rows(reports)
    expected_keys = {
        "scenario", "n_f1f4", "n_f1f3", "n_f2f3", "n_f2f4", "n_total",
        "weight_q1", "weight_q2", "inversion_rate",
        "p_q1_z", "p_q2_z", "p_q1_exact", "p_q2_exact",
        "mcnemar_chi2", "mcnemar_chi2_corrected", "mcnemar_exact", "flags",
    }
    assert all(set(row) == expected_keys for row in rows)
    assert rows[0]["scenario"] == "reflection_lower"
    assert "count_q2:" in rows[0]["flags"]
    assert rows[1]["scenario"] == "" and rows[1]["flags"] == ""
