"""Experiment statistics from paired-choice cell counts.

Two hundred participants each answered two binary questions; the four
cells count the joint answers. From a cell table this module computes
preference weights, the inversion rate, per-question significance tests
against an even split, and cross-question McNemar tests in three
variants. For the built-in scenarios a registry of published values is
compared against every implemented variant, and any published number no
variant reproduces within 10% relative is flagged rather than silently
matched; questions whose published participant count disagrees with the
cell table are flagged wholesale as internally inconsistent.
"""

from __future__ import annotations

import functools
import math
from pathlib import Path
from typing import Optional, Sequence, Union

from . import _value_class
from .scenarios import DATA_DIR, ExperimentCounts, Scenario, ScenarioError, builtin, read_text

# a published value counts as reproduced when some variant lands within
# this relative distance of it
MATCH_RTOL = 0.10

COUNT_COLUMNS = ("n_f1f4", "n_f1f3", "n_f2f3", "n_f2f4")

# the experiment's cell table, one row per built-in, labelled in its scenario column
BUNDLED_COUNTS = Path(DATA_DIR, "table5.csv")

# published per-scenario analysis values: per-question counts, weights,
# p-values, inversion rate, and the cross-question p-value
_PUBLISHED_STATS: dict[str, dict[str, float]] = {
    "ellsberg3": {
        "count_q1": 163, "weight_q1": 0.815, "p_q1": 1.25e-23,
        "count_q2": 156, "weight_q2": 0.780, "p_q2": 5.48e-18,
        "inversion": 0.655, "cross": 1.91e-35,
    },
    "machina5051": {
        "count_q1": 116, "weight_q1": 0.580, "p_q1": 2.33e-2,
        "count_q2": 126, "weight_q2": 0.630, "p_q2": 1.93e-4,
        "inversion": 0.380, "cross": 7.48e-7,
    },
    "reflection_lower": {
        "count_q1": 115, "weight_q1": 0.575, "p_q1": 3.36e-2,
        "count_q2": 120, "weight_q2": 0.630, "p_q2": 1.58e-1,
        "inversion": 0.615, "cross": 0.6533,
    },
    "reflection_upper": {
        "count_q1": 134, "weight_q1": 0.670, "p_q1": 7.89e-7,
        "count_q2": 104, "weight_q2": 0.620, "p_q2": 5.73e-1,
        "inversion": 0.650, "cross": 8.18e-3,
    },
}


@_value_class
class Flag:
    """A published value that the computed analysis does not reproduce."""

    quantity: str
    published: float
    message: str

    def to_dict(self) -> dict:
        return {"quantity": self.quantity, "published": self.published, "message": self.message}


@_value_class
class StatsReport:
    """Full analysis of one cell table, with variant p-values and discrepancy flags."""

    scenario_name: Optional[str]
    counts: ExperimentCounts
    first_act_q1: str
    first_act_q2: str
    k_q1: int
    k_q2: int
    weight_q1: float
    weight_q2: float
    inversion_rate: float
    p_q1: float
    p_q2: float
    question_variants: dict[str, dict[str, float]]
    cross_test: dict[str, Optional[float]]
    matched: dict[str, str]
    flags: tuple[Flag, ...]
    published: Optional[dict[str, float]]

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario_name,
            "counts": self.counts.to_dict(),
            "first_act_q1": self.first_act_q1,
            "first_act_q2": self.first_act_q2,
            "k_q1": self.k_q1,
            "k_q2": self.k_q2,
            "weight_q1": self.weight_q1,
            "weight_q2": self.weight_q2,
            "inversion_rate": self.inversion_rate,
            "p_q1": self.p_q1,
            "p_q2": self.p_q2,
            "question_variants": {k: dict(v) for k, v in self.question_variants.items()},
            "cross_test": dict(self.cross_test),
            "matched": dict(self.matched),
            "flags": [f.to_dict() for f in self.flags],
            "published": None if self.published is None else dict(self.published),
        }

    def summary(self) -> str:
        c = self.counts
        name = self.scenario_name or "(no scenario context)"
        lines = [
            f"scenario {name}: N={c.n_total}, cells "
            f"f1f4={c.n_f1f4} f1f3={c.n_f1f3} f2f3={c.n_f2f3} f2f4={c.n_f2f4}"
        ]
        q1v = self.question_variants["q1"]
        q2v = self.question_variants["q2"]
        lines.append(
            f"  question 1: {self.k_q1}/{c.n_total} prefer {self.first_act_q1} -> weight {self.weight_q1:.6g}; "
            f"z-test p = {q1v['z_test']:.6g}; exact p = {q1v['exact_binomial']:.6g}"
        )
        lines.append(
            f"  question 2: {self.k_q2}/{c.n_total} prefer {self.first_act_q2} -> weight {self.weight_q2:.6g}; "
            f"z-test p = {q2v['z_test']:.6g}; exact p = {q2v['exact_binomial']:.6g}"
        )
        lines.append(f"  inversion rate: {self.inversion_rate:.6g}")
        cross = ", ".join(
            f"{k} p = {'undefined' if v is None else format(v, '.6g')}" for k, v in self.cross_test.items()
        )
        lines.append(f"  cross-question: {cross}")
        if self.matched:
            lines.append("  published values reproduced: " + "; ".join(
                f"{label} by {variant}" for label, variant in sorted(self.matched.items())
            ))
        for flag in self.flags:
            lines.append(f"  FLAG [{flag.quantity}]: {flag.message}")
        return "\n".join(lines)


def preference_weights(
    counts: ExperimentCounts, scenario: Optional[Union[Scenario, str]] = None
) -> tuple[float, float]:
    """Fraction preferring the first act of each question pair.

    Question 1's first act is always the first act of the scenario; the
    orientation of question 2 (third versus fourth act first) comes from
    the scenario's question pairs, defaulting to fourth-act-first when
    no scenario is given.
    """
    k1 = counts.n_f1f4 + counts.n_f1f3
    k2, _ = _question2_count(counts, _resolve(scenario))
    return k1 / counts.n_total, k2 / counts.n_total


def inversion_rate(counts: ExperimentCounts) -> float:
    """Fraction whose two choices follow the inverted pattern (first-and-fourth or second-and-third)."""
    return (counts.n_f1f4 + counts.n_f2f3) / counts.n_total


def binomial_z_test(k: int, n: int, p0: float = 0.5) -> float:
    """Two-sided normal-approximation test of k successes in n trials, no continuity correction."""
    if not 0 <= k <= n:
        raise ScenarioError(f"need 0 <= k <= n, got k={k}, n={n}")
    if n == 0:
        raise ScenarioError(f"the z-test needs at least one trial, got n={n}")
    if not 0.0 < p0 < 1.0:
        raise ScenarioError(f"null proportion must be strictly inside (0, 1), got {p0}")
    z = (k - n * p0) / math.sqrt(n * p0 * (1.0 - p0))
    return math.erfc(abs(z) / math.sqrt(2.0))


def _log_pmf(i: int, n: int, log_p: float, log_q: float) -> float:
    return (
        math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1) + i * log_p + (n - i) * log_q
    )


def _log_sum_exp(logs: Sequence[float]) -> float:
    top = max(logs)
    if top == -math.inf:
        return -math.inf
    return top + math.log(sum(math.exp(x - top) for x in logs))


def exact_binomial_test(k: int, n: int, p0: float = 0.5) -> float:
    """Two-sided exact binomial tail probability by log-space summation.

    The smaller tail is doubled and capped at 1. For an even-split null
    the tail is always summed from the end nearer to k, which makes
    p(k) = p(n-k) hold bit for bit.
    """
    if not 0 <= k <= n:
        raise ScenarioError(f"need 0 <= k <= n, got k={k}, n={n}")
    if not 0.0 < p0 < 1.0:
        raise ScenarioError(f"null proportion must be strictly inside (0, 1), got {p0}")
    log_p = math.log(p0)
    log_q = math.log1p(-p0)
    if p0 == 0.5:
        m = min(k, n - k)
        tail = _log_sum_exp([_log_pmf(i, n, log_p, log_q) for i in range(m + 1)])
        return min(1.0, 2.0 * math.exp(tail))
    lower = _log_sum_exp([_log_pmf(i, n, log_p, log_q) for i in range(k + 1)])
    upper = _log_sum_exp([_log_pmf(i, n, log_p, log_q) for i in range(k, n + 1)])
    return min(1.0, 2.0 * math.exp(min(lower, upper)))


def _chi2_survival_1df(x: float) -> float:
    return math.erfc(math.sqrt(x / 2.0))


def mcnemar_tests(counts: ExperimentCounts) -> dict[str, Optional[float]]:
    """Cross-question tests on the discordant cells, in three variants.

    Discordant cells are first-and-fourth and second-and-third (the
    answers that disagree across the two questions). With no discordant
    answers the chi-square variants are undefined (None) and the exact
    variant returns 1.
    """
    a = counts.n_f1f4
    b = counts.n_f2f3
    n = a + b
    if n == 0:
        return {"mcnemar_chi2": None, "mcnemar_chi2_corrected": None, "mcnemar_exact": 1.0}
    chi2 = (a - b) ** 2 / n
    corrected = max(0.0, abs(a - b) - 1.0) ** 2 / n
    return {
        "mcnemar_chi2": _chi2_survival_1df(chi2),
        "mcnemar_chi2_corrected": _chi2_survival_1df(corrected),
        "mcnemar_exact": exact_binomial_test(a, n, 0.5),
    }


def _resolve(scenario: Optional[Union[Scenario, str]]) -> Optional[Scenario]:
    if scenario is None or isinstance(scenario, Scenario):
        return scenario
    return builtin(scenario)


def _question2_count(counts: ExperimentCounts, scenario: Optional[Scenario]) -> tuple[int, str]:
    """Count preferring question 2's first-listed act, and that act's label."""
    by_fourth = counts.n_f1f4 + counts.n_f2f4
    by_third = counts.n_f1f3 + counts.n_f2f3
    if scenario is None:
        return by_fourth, "f4"
    pairs = scenario.question_pairs
    if len(pairs) != 2 or pairs[0] != (0, 1) or set(pairs[1]) != {2, 3}:
        raise ScenarioError(
            f"cell counts assume question 1 = (act 1, act 2) and question 2 over acts 3 and 4; "
            f"scenario {scenario.name!r} has pairs {pairs}"
        )
    first = pairs[1][0]
    label = scenario.acts[first].label
    return (by_fourth if first == 3 else by_third), label


def _best_variant(variants: dict[str, Optional[float]], published: float) -> tuple[str, float, float]:
    best_name, best_value, best_rel = "", math.nan, math.inf
    for name, value in variants.items():
        if value is None:
            continue
        rel = abs(value - published) / abs(published) if published != 0 else math.inf
        if rel < best_rel:
            best_name, best_value, best_rel = name, value, rel
    return best_name, best_value, best_rel


def analyze(
    counts: ExperimentCounts, scenario: Optional[Union[Scenario, str]] = None
) -> StatsReport:
    """Full report for one cell table, with published-value reconciliation.

    When the scenario is one of the built-ins, every published analysis
    value is checked against all implemented variants: values some
    variant reproduces within 10% relative are recorded in ``matched``
    (with the variant's name); the rest become flags. A question whose
    published participant count contradicts the cell table is flagged
    as internally inconsistent: its published count, weight, and
    p-value cannot all refer to the same data, so all three are flagged
    even if one of them happens to be numerically close.
    """
    sc = _resolve(scenario)
    n = counts.n_total
    k1 = counts.n_f1f4 + counts.n_f1f3
    k2, act2 = _question2_count(counts, sc)
    act1 = sc.acts[sc.question_pairs[0][0]].label if sc is not None else "f1"
    weight_q1 = k1 / n
    weight_q2 = k2 / n
    inversion = inversion_rate(counts)
    question_variants = {
        "q1": {"z_test": binomial_z_test(k1, n), "exact_binomial": exact_binomial_test(k1, n)},
        "q2": {"z_test": binomial_z_test(k2, n), "exact_binomial": exact_binomial_test(k2, n)},
    }
    cross = mcnemar_tests(counts)

    matched: dict[str, str] = {}
    flags: list[Flag] = []
    published = _PUBLISHED_STATS.get(sc.name) if sc is not None else None
    if published is not None:
        for q, k, weight in (("q1", k1, weight_q1), ("q2", k2, weight_q2)):
            pub_count = int(published[f"count_{q}"])
            pub_weight = published[f"weight_{q}"]
            pub_p = published[f"p_{q}"]
            variants = question_variants[q]
            if pub_count != k:
                flags.append(Flag(
                    f"count_{q}", pub_count,
                    f"published count {pub_count}/{n} disagrees with the cell table ({k}/{n})",
                ))
                flags.append(Flag(
                    f"weight_{q}", pub_weight,
                    f"published weight {pub_weight:.4g} matches neither the cells ({weight:.4g}) "
                    f"nor the published count ({pub_count / n:.4g})",
                ))
                flags.append(Flag(
                    f"p_{q}", pub_p,
                    f"published p-value {pub_p:.4g} is tied to the inconsistent count {pub_count} "
                    f"and is flagged as internally inconsistent",
                ))
                continue
            if pub_weight != weight:
                flags.append(Flag(
                    f"weight_{q}", pub_weight,
                    f"published weight {pub_weight:.4g} disagrees with its own count {k}/{n} = {weight:.4g}",
                ))
            else:
                matched[f"weight_{q}"] = "cell counts"
            name, value, rel = _best_variant(variants, pub_p)
            if rel <= MATCH_RTOL:
                matched[f"p_{q}"] = name
            else:
                flags.append(Flag(
                    f"p_{q}", pub_p,
                    f"published p-value {pub_p:.4g} not reproduced by any implemented variant "
                    f"(closest: {name} = {value:.4g})",
                ))
        if published["inversion"] != inversion:
            flags.append(Flag(
                "inversion", published["inversion"],
                f"published inversion rate {published['inversion']:.4g} disagrees with the cells "
                f"({inversion:.4g})",
            ))
        else:
            matched["inversion"] = "cell counts"
        name, value, rel = _best_variant(cross, published["cross"])
        if rel <= MATCH_RTOL:
            matched["cross_test"] = name
        else:
            flags.append(Flag(
                "cross_test", published["cross"],
                f"published cross-question p-value {published['cross']:.4g} not reproduced by any "
                f"implemented variant (closest: {name} = {value:.4g})",
            ))

    return StatsReport(
        scenario_name=None if sc is None else sc.name,
        counts=counts,
        first_act_q1=act1,
        first_act_q2=act2,
        k_q1=k1,
        k_q2=k2,
        weight_q1=weight_q1,
        weight_q2=weight_q2,
        inversion_rate=inversion,
        p_q1=question_variants["q1"]["z_test"],
        p_q2=question_variants["q2"]["z_test"],
        question_variants=question_variants,
        cross_test=cross,
        matched=matched,
        flags=tuple(flags),
        published=published,
    )


def load_counts_csv(path: Union[str, Path]) -> list[tuple[Optional[str], ExperimentCounts]]:
    """Read cell tables from a CSV with columns n_f1f4, n_f1f3, n_f2f3, n_f2f4.

    An optional ``scenario`` column labels each row; an optional
    ``n_total`` column is validated against the cell sum. Returns
    (scenario label or None, counts) per data row. The bundled table is
    read once per process; any other file on every call.
    """
    path = Path(path)
    return list(_bundled_rows()) if path == BUNDLED_COUNTS else _read_counts_csv(path)


@functools.lru_cache(maxsize=None)
def _bundled_rows() -> tuple[tuple[Optional[str], ExperimentCounts], ...]:
    return tuple(_read_counts_csv(BUNDLED_COUNTS))


def _read_counts_csv(path: Path) -> list[tuple[Optional[str], ExperimentCounts]]:
    import csv

    reader = csv.DictReader(read_text(path, "counts file").splitlines())
    header = reader.fieldnames or []
    missing = [c for c in COUNT_COLUMNS if c not in header]
    if missing:
        raise ScenarioError(f"counts file {path} is missing column(s) {missing}; header is {header}")
    rows: list[tuple[Optional[str], ExperimentCounts]] = []
    for line_no, row in enumerate(reader, start=2):
        values = {}
        for column in (*COUNT_COLUMNS, "n_total"):
            raw = (row.get(column) or "").strip()
            if not raw and column == "n_total":
                continue
            try:
                values[column] = int(raw)
            except ValueError:
                raise ScenarioError(
                    f"counts file {path} line {line_no}: column {column} is {raw!r}, not an integer"
                ) from None
        label = (row.get("scenario") or "").strip() or None
        try:
            counts = ExperimentCounts(**values)
        except ScenarioError as exc:
            raise ScenarioError(f"counts file {path} line {line_no}: {exc}") from exc
        rows.append((label, counts))
    return rows


def report_csv_rows(reports: Sequence[StatsReport]) -> list[dict[str, object]]:
    """Flatten reports into rows suitable for CSV output."""
    out = []
    for r in reports:
        c = r.counts
        out.append({
            "scenario": r.scenario_name or "",
            "n_f1f4": c.n_f1f4,
            "n_f1f3": c.n_f1f3,
            "n_f2f3": c.n_f2f3,
            "n_f2f4": c.n_f2f4,
            "n_total": c.n_total,
            "weight_q1": r.weight_q1,
            "weight_q2": r.weight_q2,
            "inversion_rate": r.inversion_rate,
            "p_q1_z": r.p_q1,
            "p_q2_z": r.p_q2,
            "p_q1_exact": r.question_variants["q1"]["exact_binomial"],
            "p_q2_exact": r.question_variants["q2"]["exact_binomial"],
            "mcnemar_chi2": r.cross_test["mcnemar_chi2"],
            "mcnemar_chi2_corrected": r.cross_test["mcnemar_chi2_corrected"],
            "mcnemar_exact": r.cross_test["mcnemar_exact"],
            "flags": "; ".join(f"{f.quantity}: {f.message}" for f in r.flags),
        })
    return out
