"""Classical subjective expected utility over the constrained event simplex.

Expected utility W(f) = sum_i p_i u(x_i) for a single probability
assignment p, plus exact feasibility analysis of joint preference
patterns: because every W(f) - W(g) is affine in p, a pattern of strict
preferences and indifferences is decided by one linear program over the
constraint polytope (a product of scaled simplices), and the verdict is
proven in exact rational arithmetic: a feasible pattern by a witness
point on the polytope, an infeasible one by the program's dual
multipliers. A sign-analysis text explains an infeasibility, and notes
when the conclusion does not depend on the utility values at all.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np
from scipy.optimize import linprog

from .scenarios import (
    DEFAULT_UTILITY,
    Act,
    Scenario,
    ScenarioError,
    UtilityFunction,
    utility_values,
)

FIRST_STRICT = "first-strict"
SECOND_STRICT = "second-strict"
INDIFFERENT = "indifferent"
RELATIONS = (FIRST_STRICT, SECOND_STRICT, INDIFFERENT)

# a strict preference only counts as witnessed when the utility gap
# clears this margin; separates open-region feasibility from boundary
# indifference
STRICT_MARGIN = 1e-9

GROUP_SUM_TOL = 1e-12


class PatternError(ValueError):
    """Raised for preference patterns that cannot be parsed or do not fit the scenario."""


class CertificateError(RuntimeError):
    """Raised when neither a witness nor dual multipliers prove a feasibility verdict.

    This is an internal fault of the decision procedure, not a property of
    the input: no unproven verdict is ever returned.
    """


@dataclass(frozen=True)
class ClassicalProbability:
    """A probability per event, honoring the scenario's group constraints.

    Entries must lie in [0, 1], sum to 1 within 1e-12, and each
    constraint group must sum to its exact rational total within 1e-12.
    """

    scenario: Scenario
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        probs = tuple(float(x) for x in self.probs)
        n = self.scenario.n_events
        if len(probs) != n:
            raise ScenarioError(f"expected {n} probabilities (one per event), got {len(probs)}")
        for label, p in zip(self.scenario.events, probs):
            if p < -GROUP_SUM_TOL or p > 1 + GROUP_SUM_TOL:
                raise ScenarioError(f"probability of event {label!r} is {p}, outside [0, 1]")
        total = sum(probs)
        if abs(total - 1.0) > 1e-12:
            raise ScenarioError(f"probabilities sum to {total!r}, not 1")
        for indices, t in self.scenario.groups():
            s = sum(probs[i] for i in indices)
            if abs(s - float(t)) > GROUP_SUM_TOL:
                labels = [self.scenario.events[i] for i in indices]
                raise ScenarioError(f"group {labels} sums to {s!r}, constraint requires {t} (= {float(t)!r})")
        object.__setattr__(self, "probs", probs)

    def as_array(self) -> np.ndarray:
        return np.array(self.probs, dtype=float)

    def to_dict(self) -> dict:
        return {label: p for label, p in zip(self.scenario.events, self.probs)}

    def __repr__(self) -> str:
        body = ", ".join(f"{e}={p:.6g}" for e, p in zip(self.scenario.events, self.probs))
        return f"ClassicalProbability({body})"


@dataclass(frozen=True)
class PreferencePattern:
    """One relation per question pair: first-strict, second-strict, or indifferent."""

    relations: tuple[str, ...]

    def __post_init__(self) -> None:
        rels = tuple(self.relations)
        for r in rels:
            if r not in RELATIONS:
                raise PatternError(f"unknown relation {r!r}; expected one of {RELATIONS}")
        object.__setattr__(self, "relations", rels)

    @staticmethod
    def from_text(scenario: Scenario, text: str) -> "PreferencePattern":
        """Parse a pattern like ``f1>f2,f4>f3`` against a scenario's question pairs.

        Each comma-separated term is ``A>B`` (A strictly preferred),
        ``A<B``, or ``A=B``; the two acts must form one of the
        scenario's question pairs, and every pair must be covered
        exactly once.
        """
        terms = [t.strip() for t in text.split(",") if t.strip()]
        if not terms:
            raise PatternError(f"empty preference pattern {text!r}")
        pair_sets = [frozenset(pair) for pair in scenario.question_pairs]
        relations: dict[int, str] = {}
        for term in terms:
            m = re.fullmatch(r"(\w+)\s*([<>=])\s*(\w+)", term)
            if m is None:
                raise PatternError(f"bad pattern term {term!r}; expected ACT>ACT, ACT<ACT, or ACT=ACT")
            a, op, b = m.group(1), m.group(2), m.group(3)
            ia, ib = scenario.act_index(a), scenario.act_index(b)
            key = frozenset({ia, ib})
            if key not in pair_sets:
                raise PatternError(
                    f"acts {a!r} and {b!r} do not form a question pair of scenario {scenario.name!r}"
                )
            slot = pair_sets.index(key)
            if slot in relations:
                raise PatternError(f"question pair of {a!r} and {b!r} is specified twice")
            first, _second = scenario.question_pairs[slot]
            if op == "=":
                rel = INDIFFERENT
            elif op == ">":
                rel = FIRST_STRICT if ia == first else SECOND_STRICT
            else:
                rel = SECOND_STRICT if ia == first else FIRST_STRICT
            relations[slot] = rel
        missing = [i for i in range(len(scenario.question_pairs)) if i not in relations]
        if missing:
            pairs = [
                f"{scenario.acts[a].label}/{scenario.acts[b].label}"
                for a, b in (scenario.question_pairs[i] for i in missing)
            ]
            raise PatternError(f"pattern {text!r} does not cover question pair(s) {pairs}")
        return PreferencePattern(tuple(relations[i] for i in range(len(scenario.question_pairs))))

    def describe(self, scenario: Scenario) -> str:
        parts = []
        for (a, b), rel in zip(scenario.question_pairs, self.relations):
            la, lb = scenario.acts[a].label, scenario.acts[b].label
            op = {FIRST_STRICT: ">", SECOND_STRICT: "<", INDIFFERENT: "="}[rel]
            parts.append(f"{la}{op}{lb}")
        return ",".join(parts)


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of a pattern feasibility decision.

    ``witness`` is present exactly when feasible: a point on the polytope
    whose strict margins are at least 1e-9 and whose indifferences are
    within 1e-9 of zero, checked in exact arithmetic. ``multipliers`` is
    present exactly when infeasible: one weight per question pair, on the
    condition oriented as the pattern requires, which proves in exact
    arithmetic that no admissible probability meets the pattern.
    ``certificate`` explains the verdict by sign analysis of the affine
    difference functionals. ``u_independent`` records whether every
    functional's sign structure involves a single payoff swap, in which
    case the conclusion holds for every strictly increasing utility
    function.
    """

    scenario_name: str
    pattern: PreferencePattern
    feasible: bool
    witness: Optional[ClassicalProbability]
    certificate: str
    margin: Optional[float]
    multipliers: Optional[tuple[Fraction, ...]]
    u_independent: bool

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario_name,
            "pattern": list(self.pattern.relations),
            "feasible": self.feasible,
            "witness": None if self.witness is None else self.witness.to_dict(),
            "certificate": self.certificate,
            "margin": self.margin,
            "multipliers": None if self.multipliers is None
            else [f"{w.numerator}/{w.denominator}" for w in self.multipliers],
            "u_independent": self.u_independent,
        }

    def summary(self) -> str:
        lines = [f"scenario {self.scenario_name}: pattern is {'FEASIBLE' if self.feasible else 'INFEASIBLE'}"]
        if self.witness is not None:
            body = ", ".join(f"p({e}) = {p:.6g}" for e, p in self.witness.to_dict().items())
            margin = "" if self.margin is None else f" (margin {self.margin:.3e})"
            lines.append(f"  witness: {body}{margin}")
        lines.append("  " + self.certificate.replace("\n", "\n  "))
        if self.multipliers is not None:
            weights = ", ".join(f"{float(w):.6g}" for w in self.multipliers)
            lines.append(f"  dual multipliers per question pair (checked exactly): {weights}")
        return "\n".join(lines)


def expected_utility(
    p: ClassicalProbability, act: Union[Act, str, int], u: UtilityFunction = DEFAULT_UTILITY
) -> float:
    """Expected utility sum_i p_i u(x_i) of an act under probability p."""
    values = utility_values(p.scenario, act, u)
    return float(np.dot(p.as_array(), values))


def _difference_coefficients(
    scenario: Scenario, first: Union[Act, str, int], second: Union[Act, str, int], u: UtilityFunction
) -> np.ndarray:
    return utility_values(scenario, first, u) - utility_values(scenario, second, u)


def _is_single_swap(scenario: Scenario, first: Union[Act, str, int], second: Union[Act, str, int]) -> bool:
    # the sign structure is utility-independent when the two payoff rows
    # differ only by permuting one high/low payoff pair across events
    fa, fb = scenario.act(first), scenario.act(second)
    pairs = {frozenset({xa, xb}) for xa, xb in zip(fa.payoffs, fb.payoffs) if xa != xb}
    return len(pairs) <= 1


def _reduce(scenario: Scenario, coeffs: np.ndarray) -> np.ndarray:
    """Restrict a linear form c . p to the polytope's free coordinates: (coefficients..., constant).

    Each group's last event is determined by the others and the group total.
    """
    const = 0.0
    reduced: list[float] = []
    for indices, total in scenario.groups():
        determined = indices[-1]
        const += coeffs[determined] * float(total)
        reduced += [float(coeffs[i] - coeffs[determined]) for i in indices[:-1]]
    return np.array(reduced + [const], dtype=float)


def _describe_functional(scenario: Scenario, coeffs: np.ndarray, la: str, lb: str) -> str:
    terms = []
    for label, c in zip(scenario.events, coeffs):
        if abs(c) > 1e-12:
            terms.append(f"{'+' if c >= 0 else '-'} {abs(c):.6g} p({label})")
    body = " ".join(terms) if terms else "0"
    return f"W({la}) - W({lb}) = {body}"


def biconditional_check(
    scenario: Scenario,
    pair_a: Sequence[Union[Act, str, int]],
    pair_b: Sequence[Union[Act, str, int]],
    u: UtilityFunction = DEFAULT_UTILITY,
) -> bool:
    """Whether sign(W difference of pair_a) = sign(W difference of pair_b) on the whole polytope.

    Decided by comparing the two affine difference functionals restricted
    to the constraint polytope: they must be positive multiples of each
    other there, or both identically zero.
    """
    ca = _difference_coefficients(scenario, pair_a[0], pair_a[1], u)
    cb = _difference_coefficients(scenario, pair_b[0], pair_b[1], u)
    va = _reduce(scenario, ca)
    vb = _reduce(scenario, cb)
    scale = max(1.0, float(np.max(np.abs(va))), float(np.max(np.abs(vb))))
    tol = 1e-12 * scale
    a_zero = bool(np.all(np.abs(va) <= tol))
    b_zero = bool(np.all(np.abs(vb) <= tol))
    if a_zero or b_zero:
        return a_zero and b_zero
    j = int(np.argmax(np.abs(va)))
    lam = vb[j] / va[j]
    if lam <= 0:
        return False
    return bool(np.max(np.abs(vb - lam * va)) <= tol * max(1.0, abs(lam)))


def _signed_conditions(
    scenario: Scenario, pattern: PreferencePattern, u: UtilityFunction
) -> list[tuple[str, np.ndarray, str]]:
    """One (kind, oriented coefficients, description) triple per question pair.

    Strict entries are oriented so the condition reads "coefficients . p > 0";
    indifferent entries require "coefficients . p = 0".
    """
    if len(pattern.relations) != len(scenario.question_pairs):
        raise PatternError(
            f"pattern has {len(pattern.relations)} entries, scenario {scenario.name!r} has "
            f"{len(scenario.question_pairs)} question pairs"
        )
    out = []
    for (a, b), rel in zip(scenario.question_pairs, pattern.relations):
        la, lb = scenario.acts[a].label, scenario.acts[b].label
        coeffs = _difference_coefficients(scenario, a, b, u)
        desc = _describe_functional(scenario, coeffs, la, lb)
        if rel == FIRST_STRICT:
            out.append(("strict", coeffs, f"{desc}; require W({la}) > W({lb})"))
        elif rel == SECOND_STRICT:
            out.append(("strict", -coeffs, f"{desc}; require W({la}) < W({lb})"))
        else:
            out.append(("equal", coeffs, f"{desc}; require W({la}) = W({lb})"))
    return out


def _solve_lp(scenario: Scenario, strict: list[np.ndarray], equal: list[np.ndarray]):
    """Maximize the joint margin s with c . p >= s on strict rows and c . p = 0 on equal rows.

    Returns (p, s, strict weights, equal weights), the weights being the
    HiGHS dual multipliers signed as :func:`_certifies` reads them, or
    None when HiGHS finds no optimum.
    """
    n = scenario.n_events
    groups = scenario.groups()
    a_eq = []
    for indices, _ in groups:
        row = np.zeros(n + 1)
        row[list(indices)] = 1.0
        a_eq.append(row)
    a_eq += [np.append(c, 0.0) for c in equal]
    b_eq = [float(total) for _, total in groups] + [0.0] * len(equal)
    # c . p never exceeds max |c|, so the cap on s binds only without strict rows
    cap = float(np.max(np.abs(strict), initial=0.0)) + 1.0
    res = linprog(
        c=np.append(np.zeros(n), -1.0),
        A_ub=np.array([np.append(-c, 1.0) for c in strict]).reshape(len(strict), n + 1),
        b_ub=np.zeros(len(strict)),
        A_eq=np.array(a_eq),
        b_eq=np.array(b_eq),
        bounds=[(0.0, 1.0)] * n + [(None, cap)],
        method="highs",
    )
    if not res.success:
        return None
    # + 0.0 turns HiGHS's -0.0 optimum into 0.0, so no report prints a negative zero
    return res.x[:n], float(res.x[n]) + 0.0, -res.ineqlin.marginals, res.eqlin.marginals[len(groups):]


def _exact_witness(scenario: Scenario, conditions, p: np.ndarray) -> Optional[list[Fraction]]:
    """Rationalise an LP point onto the polytope and check the pattern there exactly.

    Each group's largest coordinate takes what the others leave of the
    exact group total, so rounding in the LP point cannot push it below
    zero. Returns the rational point when every strict margin is at
    least STRICT_MARGIN and every indifference is within STRICT_MARGIN of
    zero, and None otherwise.
    """
    x = [Fraction(max(float(v), 0.0)) for v in p]
    for indices, total in scenario.groups():
        k = max(indices, key=lambda i: x[i])
        x[k] = total - sum(x[i] for i in indices if i != k)
        if x[k] < 0:
            return None
    for kind, coeffs, _ in conditions:
        value = sum(Fraction(float(c)) * xi for c, xi in zip(coeffs, x))
        if (value < STRICT_MARGIN) if kind == "strict" else (abs(value) > STRICT_MARGIN):
            return None
    return x


def _certifies(scenario: Scenario, conditions, weights: Sequence[Fraction]) -> bool:
    """Whether weights w, one per condition, prove in exact arithmetic that no admissible p meets the pattern.

    For p on the polytope with every indifference exact and every strict
    margin at least STRICT_MARGIN, non-negative strict weights give
    sum_k w_k c_k . p >= STRICT_MARGIN * (sum of the strict w_k). The
    groups partition the events, so the left side is at most
    sum_G t_G max_{i in G} (sum_k w_k c_k)_i, one vertex per group. A
    bound strictly below the right side is a contradiction; all-zero
    weights never give one.
    """
    g = [Fraction(0)] * scenario.n_events
    strict_total = Fraction(0)
    for w, (kind, coeffs, _) in zip(weights, conditions):
        if kind == "strict":
            if w < 0:
                return False
            strict_total += w
        for i, c in enumerate(coeffs):
            g[i] += w * Fraction(float(c))
    bound = sum(total * max(g[i] for i in indices) for indices, total in scenario.groups())
    return bound < Fraction(STRICT_MARGIN) * strict_total


def _infeasibility_certificate(scenario: Scenario, conditions, margin: Optional[float]) -> str:
    lines = [desc for _, _, desc in conditions]
    reduced = [(kind, _reduce(scenario, c)) for kind, c, _ in conditions]
    # point out when two conditions pull on one functional in opposite directions
    for i in range(len(reduced)):
        for j in range(i + 1, len(reduced)):
            vi, vj = reduced[i][1], reduced[j][1]
            scale = max(1.0, float(np.max(np.abs(vi))))
            if np.max(np.abs(vi)) <= 1e-12 * scale:
                continue
            k = int(np.argmax(np.abs(vi)))
            if abs(vi[k]) <= 1e-12:
                continue
            lam = vj[k] / vi[k]
            if np.max(np.abs(vj - lam * vi)) <= 1e-9 * scale * max(1.0, abs(lam)):
                if reduced[i][0] == "strict" and reduced[j][0] == "strict" and lam < 0:
                    lines.append(
                        "on the admissible set, condition "
                        f"{j + 1} is a negative multiple (factor {lam:.6g}) of condition {i + 1}; "
                        "the two cannot be strictly positive at the same time"
                    )
                elif lam != 0 and (reduced[i][0] == "equal") != (reduced[j][0] == "equal"):
                    lines.append(
                        f"conditions {i + 1} and {j + 1} constrain proportional functionals "
                        f"(factor {lam:.6g}); an exact zero and a strict sign cannot hold together"
                    )
    if margin is not None:
        lines.append(f"maximum joint strict margin over the admissible set: {margin:.3e} (needs >= {STRICT_MARGIN:.0e})")
    return "\n".join(lines)


def feasibility(
    scenario: Scenario,
    pattern: Union[PreferencePattern, str],
    u: UtilityFunction = DEFAULT_UTILITY,
) -> FeasibilityResult:
    """Decide exactly whether a joint preference pattern is realizable classically.

    Each pattern entry constrains the affine functional W(first) -
    W(second) on the constraint polytope. One linear program maximizes
    the joint strict margin over the polytope's exact description; when
    the pattern has no strict entry, or its indifferences admit no point,
    each indifference becomes two opposite strict rows instead. The
    verdict is then proven in exact rational arithmetic: feasible by the
    program's point, rationalised onto the polytope, with every strict
    margin at least 1e-9 and every indifference within 1e-9; infeasible
    by the program's dual multipliers (see ``FeasibilityResult``). Raises
    :class:`CertificateError` when neither proof holds.
    """
    if isinstance(pattern, str):
        pattern = PreferencePattern.from_text(scenario, pattern)
    conditions = _signed_conditions(scenario, pattern, u)
    u_independent = all(
        _is_single_swap(scenario, a, b) for a, b in scenario.question_pairs
    )
    strict = [c for kind, c, _ in conditions if kind == "strict"]
    equal = [c for kind, c, _ in conditions if kind == "equal"]
    solved = _solve_lp(scenario, strict, equal) if strict else None
    if solved is not None:
        p, margin, strict_weights, equal_weights = solved
    else:
        # split each indifference c . p = 0 into c . p >= s and -c . p >= s;
        # the strict entries get weight zero in this program's certificate
        solved = _solve_lp(scenario, equal + [-c for c in equal], [])
        if solved is None:
            raise CertificateError(
                f"the linear program failed for pattern {pattern.describe(scenario)!r} "
                f"on scenario {scenario.name!r}"
            )
        p, _, split_weights, _ = solved
        margin = None
        strict_weights = np.zeros(len(strict))
        equal_weights = split_weights[: len(equal)] - split_weights[len(equal):]

    point = _exact_witness(scenario, conditions, p)
    if point is not None:
        certificate = "\n".join(desc for _, _, desc in conditions)
        if u_independent:
            certificate += (
                "\neach functional's sign depends only on the order of one payoff pair, "
                "so the analysis holds for every strictly increasing utility function"
            )
        witness = ClassicalProbability(scenario, tuple(float(v) for v in point))
        return FeasibilityResult(
            scenario_name=scenario.name,
            pattern=pattern,
            feasible=True,
            witness=witness,
            certificate=certificate,
            # as recomputed from the reported witness
            margin=min((float(np.dot(c, witness.as_array())) for c in strict), default=None),
            multipliers=None,
            u_independent=u_independent,
        )

    strict_iter, equal_iter = iter(strict_weights), iter(equal_weights)
    multipliers = tuple(
        Fraction(float(next(strict_iter if kind == "strict" else equal_iter)))
        for kind, _, _ in conditions
    )
    if not _certifies(scenario, conditions, multipliers):
        raise CertificateError(
            f"neither a witness nor the dual multipliers prove the verdict for pattern "
            f"{pattern.describe(scenario)!r} on scenario {scenario.name!r}"
        )
    certificate = _infeasibility_certificate(scenario, conditions, margin)
    if u_independent:
        certificate += (
            "\neach functional's sign depends only on the order of one payoff pair, "
            "so the impossibility holds for every strictly increasing utility function"
        )
    return FeasibilityResult(
        scenario_name=scenario.name,
        pattern=pattern,
        feasible=False,
        witness=None,
        certificate=certificate,
        margin=margin,
        multipliers=multipliers,
        u_independent=u_independent,
    )
