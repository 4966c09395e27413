"""Classical subjective expected utility over the constrained event simplex.

Expected utility W(f) = sum_i p_i u(x_i) for a single probability
assignment p, plus exact feasibility analysis of joint preference
patterns. Every W(f) - W(g) is affine in p, and on the admissible p, a
product of scaled simplices, v . p is at most h(v) = sum_G t_G max_{i in G}
v_i. So a pattern on two question pairs is decided by minimising h along a
line of functionals, convex and piecewise linear in one variable, in
rational arithmetic: the minimiser gives a witness point or the
multipliers that prove infeasibility. A sign-analysis text explains an
infeasibility, and notes when it does not depend on the utility values.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence, Union

from . import _value_class
from .scenarios import (
    DEFAULT_UTILITY,
    GROUP_SUM_TOL,
    Act,
    Scenario,
    ScenarioError,
    UtilityFunction,
    act_utilities,
    support,
    utility_differences,
)

FIRST_STRICT = "first-strict"
SECOND_STRICT = "second-strict"
INDIFFERENT = "indifferent"
RELATIONS = (FIRST_STRICT, SECOND_STRICT, INDIFFERENT)

# a strict preference only counts as witnessed when the utility gap
# clears this margin; separates open-region feasibility from boundary
# indifference
STRICT_MARGIN = 1e-9


class PatternError(ValueError):
    """Raised for preference patterns that cannot be parsed or do not fit the scenario."""


class CertificateError(RuntimeError):
    """Raised when the witness or the multipliers of a feasibility verdict fail their exact check.

    This is an internal fault of the decision procedure, not a property of
    the input: no unproven verdict is ever returned.
    """


@_value_class
class ClassicalProbability:
    """A probability per event, honoring the scenario's group constraints.

    Entries must lie in [0, 1] and each constraint group must sum to its
    exact rational total, both within ``GROUP_SUM_TOL``; the entries
    must sum to 1 within ``GROUP_SUM_TOL`` per group, so the Born
    marginal of every valid belief state passes.
    """

    scenario: Scenario
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        probs = tuple(float(x) for x in self.probs)
        n = self.scenario.n_events
        if len(probs) != n:
            raise ScenarioError(f"expected {n} probabilities (one per event), got {len(probs)}")
        for label, p in zip(self.scenario.events, probs):
            if not -GROUP_SUM_TOL <= p <= 1 + GROUP_SUM_TOL:
                raise ScenarioError(f"probability of event {label!r} is {p}, outside [0, 1]")
        total = sum(probs)
        if not abs(total - 1.0) <= len(self.scenario.constraints) * GROUP_SUM_TOL:
            raise ScenarioError(f"probabilities sum to {total!r}, not 1")
        for indices, t in self.scenario.groups():
            s = sum(probs[i] for i in indices)
            if not abs(s - float(t)) <= GROUP_SUM_TOL:
                labels = [self.scenario.events[i] for i in indices]
                raise ScenarioError(f"group {labels} sums to {s!r}, constraint requires {t} (= {float(t)!r})")
        object.__setattr__(self, "probs", probs)

    def to_dict(self) -> dict:
        return {label: p for label, p in zip(self.scenario.events, self.probs)}

    def __repr__(self) -> str:
        body = ", ".join(f"{e}={p:.6g}" for e, p in zip(self.scenario.events, self.probs))
        return f"ClassicalProbability({body})"


@_value_class
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


@_value_class
class FeasibilityResult:
    """Outcome of a pattern feasibility decision.

    ``witness`` is present exactly when feasible: a rational point on the
    polytope, in floats, with every strict margin at least 1e-9 and every
    indifference exactly zero. ``multipliers`` is present exactly when
    infeasible: one weight per question pair, on the condition oriented as
    the pattern requires, whose weighted sum of conditions has its largest
    value on the polytope below what the pattern needs. Two strict pairs
    get (w, 1 - w); otherwise a strict pair gets 1, the first of two
    indifferences +1 or -1 (its upper or lower bound misses zero), the last
    indifference a real weight, or +1 or -1 alone when it holds nowhere.
    ``margin`` is the least strict margin at the reported float witness,
    summed exactly and rounded once, else the largest joint one, or None
    (no strict entry, or an indifference holds nowhere).
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
    """Expected utility sum_i p_i u(x_i) of an act under probability p, exact and then rounded once."""
    return float(_exact_dot(act_utilities(p.scenario, act, u), p.probs))


def _exact_dot(a: Sequence, b: Sequence) -> Fraction:
    """sum_i a_i b_i in rational arithmetic, for floats or fractions."""
    return sum((Fraction(x) * Fraction(y) for x, y in zip(a, b)), Fraction(0))


def _is_single_swap(scenario: Scenario, first: Union[Act, str, int], second: Union[Act, str, int]) -> bool:
    # the sign structure is utility-independent when the two payoff rows
    # differ only by permuting one high/low payoff pair across events
    fa, fb = scenario.act(first), scenario.act(second)
    pairs = {frozenset({xa, xb}) for xa, xb in zip(fa.payoffs, fb.payoffs) if xa != xb}
    return len(pairs) <= 1


def _exact_gap(scenario: Scenario, pair: Sequence, u: UtilityFunction) -> tuple[Fraction, ...]:
    """The coefficients of W(pair[0]) - W(pair[1]) in p, each float utility gap as the exact rational it stores."""
    return tuple(map(Fraction, utility_differences(scenario, pair[0], pair[1], u)))


def _reduce(scenario: Scenario, coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Restrict a linear form c . p to the polytope's free coordinates: (coefficients..., constant).

    Each group's last event is determined by the others and the group total.
    """
    const = Fraction(0)
    reduced: list[Fraction] = []
    for indices, total in scenario.groups():
        determined = indices[-1]
        const += coeffs[determined] * total
        reduced += [coeffs[i] - coeffs[determined] for i in indices[:-1]]
    return (*reduced, const)


def _factor(v: Sequence[Fraction], w: Sequence[Fraction]) -> Optional[Fraction]:
    """The l with w = l v exactly, taken at v's first nonzero entry; None when v is zero or no such l exists."""
    lam = next((y / x for x, y in zip(v, w) if x), None)
    return lam if lam is not None and all(y == lam * x for x, y in zip(v, w)) else None


def _describe_functional(scenario: Scenario, coeffs: Sequence[Fraction], la: str, lb: str) -> str:
    terms = [
        f"{'+' if x > 0 else '-'} {abs(x):.6g} p({label})"
        for label, x in zip(scenario.events, map(float, coeffs)) if x
    ]
    return f"W({la}) - W({lb}) = {' '.join(terms) if terms else '0'}"


def biconditional_check(
    scenario: Scenario,
    pair_a: Sequence[Union[Act, str, int]],
    pair_b: Sequence[Union[Act, str, int]],
    u: UtilityFunction = DEFAULT_UTILITY,
) -> bool:
    """Whether sign(W difference of pair_a) = sign(W difference of pair_b) on the whole polytope.

    Decided exactly by comparing the two affine difference functionals
    restricted to the constraint polytope: they must be positive multiples
    of each other there, or both identically zero.
    """
    va, vb = (_reduce(scenario, _exact_gap(scenario, pair, u)) for pair in (pair_a, pair_b))
    lam = _factor(va, vb)
    return lam > 0 if lam is not None else not any(va) and not any(vb)


def _signed_conditions(
    scenario: Scenario, pattern: PreferencePattern, u: UtilityFunction
) -> list[tuple[str, tuple[Fraction, ...], str]]:
    """One (kind, oriented exact coefficients, description) triple per question pair.

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
        coeffs = _exact_gap(scenario, (a, b), u)
        desc = _describe_functional(scenario, coeffs, la, lb)
        if rel == FIRST_STRICT:
            out.append(("strict", coeffs, f"{desc}; require W({la}) > W({lb})"))
        elif rel == SECOND_STRICT:
            out.append(("strict", tuple(-x for x in coeffs), f"{desc}; require W({la}) < W({lb})"))
        else:
            out.append(("equal", coeffs, f"{desc}; require W({la}) = W({lb})"))
    return out


def _mix_to_zero(p: list[Fraction], sp: Fraction, q: list[Fraction], sq: Fraction) -> list[Fraction]:
    """The point of the segment [p, q] where an affine value, sp <= 0 at p and sq >= 0 at q, is zero."""
    theta = Fraction(1) if sp == sq else sq / (sq - sp)
    return [theta * x + (1 - theta) * y for x, y in zip(p, q)]


def _line_minimum(groups, a, b, ends: Optional[tuple[Fraction, Fraction]] = None):
    """(w, phi(w), point) for the least phi(w) = h(a + w b), w in ``ends`` or real (then h(+-b) >= 0).

    phi is convex and linear between crossings of two events of one group,
    so it is least at an end or a crossing; ties go to the smallest w. The
    point is on the face where (a + w b) . p = phi(w): per group, the tied
    events with the least and the greatest b_i give two vertices, mixed so
    that b . p = 0, or the nearer one alone.
    """
    candidates = set(ends or [Fraction(0)])
    for indices, _ in groups:
        candidates.update((a[j] - a[i]) / (b[i] - b[j]) for i in indices for j in indices if b[i] > b[j])
    if ends:
        candidates = {w for w in candidates if ends[0] <= w <= ends[1]}
    values = {w: support(groups, [x + w * y for x, y in zip(a, b)]) for w in candidates}
    w = min(sorted(values), key=values.__getitem__)
    lo, hi = [Fraction(0)] * len(a), [Fraction(0)] * len(a)
    for indices, total in groups:
        top = max(a[i] + w * b[i] for i in indices)
        tied = sorted((b[i], i) for i in indices if a[i] + w * b[i] == top)
        lo[tied[0][1]], hi[tied[-1][1]] = total, total
    s_lo, s_hi = (sum(x * y for x, y in zip(b, v)) for v in (lo, hi))
    return w, values[w], lo if s_lo > 0 else hi if s_hi < 0 else _mix_to_zero(lo, s_lo, hi, s_hi)


def _decide(scenario: Scenario, conditions):
    """(rational witness, None, None), or (None, multipliers, margin) as in ``FeasibilityResult``."""
    groups = scenario.groups()
    c = [coeffs for _, coeffs, _ in conditions]
    strict = [k for k, (kind, _, _) in enumerate(conditions) if kind == "strict"]
    equal = [k for k, (kind, _, _) in enumerate(conditions) if kind == "equal"]
    if len(strict) == 2:
        # max_p min(c1 . p, c2 . p) = min over w in [0, 1] of h(w c1 + (1 - w) c2)
        w, margin, point = _line_minimum(groups, c[1], [x - y for x, y in zip(*c)], (Fraction(0), Fraction(1)))
        return (point, None, None) if margin >= STRICT_MARGIN else (None, (w, 1 - w), margin)

    # else max {a . p : c_e . p = 0} = min over real l of h(a + l c_e) on the
    # slice of the last indifference e, unbounded below when the slice is empty
    weights = [Fraction(0)] * len(c)
    b = c[equal[-1]] if equal else [Fraction(0)] * scenario.n_events
    for sign in (1, -1):
        if support(groups, [sign * x for x in b]) < 0:
            weights[equal[-1]] = Fraction(sign)
            return None, tuple(weights), None
    # a is a strict entry, or the first of two indifferences from both sides, or 0
    runs = [(strict[0], 1)] if strict else [(equal[0], 1), (equal[0], -1)] if len(equal) == 2 else [(equal[0], 0)]
    found = []
    for k, sign in runs:
        l, value, point = _line_minimum(groups, [sign * x for x in c[k]], b)
        if value < (STRICT_MARGIN if strict else 0):
            weights[k] = Fraction(sign)
            if equal:
                weights[equal[-1]] = l
            return None, tuple(weights), value if strict else None
        found.append((point, sign * value))
    if len(found) == 2:
        # c1 . p is top >= 0 at the first point and bottom <= 0 at the second
        (upper, top), (lower, bottom) = found
        return _mix_to_zero(lower, bottom, upper, top), None, None
    return found[0][0], None, None


def _exact_witness(scenario: Scenario, conditions, point: Sequence[Fraction]) -> bool:
    """Whether a rational point is on the polytope, strict margins >= STRICT_MARGIN, indifferences exactly 0."""
    if any(x < 0 for x in point) or any(sum(point[i] for i in idx) != t for idx, t in scenario.groups()):
        return False
    values = [(kind, sum(x * y for x, y in zip(coeffs, point))) for kind, coeffs, _ in conditions]
    return all(v >= STRICT_MARGIN if kind == "strict" else v == 0 for kind, v in values)


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
            g[i] += w * c
    return support(scenario.groups(), g) < Fraction(STRICT_MARGIN) * strict_total


def _infeasibility_certificate(scenario: Scenario, conditions, margin: Optional[float]) -> str:
    lines = [desc for _, _, desc in conditions]
    reduced = [(kind, _reduce(scenario, c)) for kind, c, _ in conditions]
    # point out when two conditions pull on one functional in opposite directions
    for (i, (kind_i, vi)), (j, (kind_j, vj)) in combinations(enumerate(reduced, 1), 2):
        lam = _factor(vi, vj)
        if lam is not None and kind_i == kind_j == "strict" and lam < 0:
            lines.append(
                f"on the admissible set, condition {j} is a negative multiple (factor {float(lam):.6g}) "
                f"of condition {i}; the two cannot be strictly positive at the same time"
            )
        elif lam and kind_i != kind_j:
            lines.append(
                f"conditions {i} and {j} constrain proportional functionals "
                f"(factor {float(lam):.6g}); an exact zero and a strict sign cannot hold together"
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

    The decision is the one-variable minimisation of the module docstring,
    made in rational arithmetic. It is then proven: feasible by a point on
    the polytope with every strict margin at least 1e-9 and every
    indifference exactly zero, infeasible by the multipliers (see
    ``FeasibilityResult``). Raises :class:`CertificateError` when the proof
    fails.
    """
    if isinstance(pattern, str):
        pattern = PreferencePattern.from_text(scenario, pattern)
    conditions = _signed_conditions(scenario, pattern, u)
    u_independent = all(_is_single_swap(scenario, a, b) for a, b in scenario.question_pairs)
    point, multipliers, margin = _decide(scenario, conditions)
    feasible = point is not None
    if not (_exact_witness(scenario, conditions, point) if feasible
            else _certifies(scenario, conditions, multipliers)):
        raise CertificateError(
            f"the {'witness does' if feasible else 'multipliers do'} not prove the verdict for pattern "
            f"{pattern.describe(scenario)!r} on scenario {scenario.name!r}"
        )
    witness = ClassicalProbability(scenario, tuple(float(v) for v in point)) if feasible else None
    if feasible:
        # exact on the reported witness, then rounded once
        margin = min((_exact_dot(c, witness.probs) for kind, c, _ in conditions if kind == "strict"), default=None)
    margin = None if margin is None else float(margin)
    certificate = (
        "\n".join(desc for _, _, desc in conditions) if feasible
        else _infeasibility_certificate(scenario, conditions, margin)
    )
    if u_independent:
        certificate += (
            "\neach functional's sign depends only on the order of one payoff pair, "
            f"so the {'analysis' if feasible else 'impossibility'} holds for every strictly increasing utility function"
        )
    return FeasibilityResult(
        scenario_name=scenario.name,
        pattern=pattern,
        feasible=feasible,
        witness=witness,
        certificate=certificate,
        margin=margin,
        multipliers=multipliers,
        u_independent=u_independent,
    )
