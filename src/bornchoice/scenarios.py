"""Decision scenarios: events, acts, probability constraints, question pairs.

A scenario holds an ordered list of elementary events, a payoff table
(one act per row), fixed-probability constraints over groups of events
(stored as exact rationals so downstream feasibility analysis stays
exact), and the pairs of acts posed as binary questions. Scenarios load
from a JSON document whose schema is documented in
:func:`load_scenario`; the paper's four urns are such documents, bundled
under ``data/`` and read by :func:`builtin`.

The order inside a question pair is meaningful: the first-listed act is
the one whose preference fraction the experiment reports, and the first
act of each pair is the one a solve target's expectation difference is
anchored to.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence, Union

from . import _value_class

if TYPE_CHECKING:
    from .hilbert import HermitianOp


class ScenarioError(ValueError):
    """Raised for malformed scenarios, acts, constraints, or utility functions."""


# points, lowest to highest payoff inclusive, at which a non-table
# utility is checked to be strictly increasing
MONOTONICITY_GRID = 101

# a probability assignment, classical or Born, must give each constraint
# group its exact total within this
GROUP_SUM_TOL = 1e-12


@_value_class
class UtilityFunction:
    """Strictly increasing map from dollar payoffs to utility values.

    Kinds: ``sqrt`` (u(x) = sqrt(x)), ``power`` (u(x) = x**alpha with
    alpha > 0), ``linear`` and ``identity`` (u(x) = x), and ``table``
    (explicit payoff -> utility pairs). Monotonicity is checked on a
    sampled grid of the domain it is applied to, and applying the
    function outside its domain is an error naming the payoff.
    """

    kind: str
    alpha: float | None = None
    table: tuple[tuple[float, float], ...] | None = None

    _KINDS = ("sqrt", "power", "linear", "identity", "table")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ScenarioError(f"unknown utility kind {self.kind!r}; expected one of {self._KINDS}")
        if self.kind == "power":
            if self.alpha is None or not (math.isfinite(self.alpha) and self.alpha > 0):
                raise ScenarioError(f"power utility needs a finite alpha > 0, got {self.alpha!r}")
        if self.kind == "table":
            if not self.table:
                raise ScenarioError("table utility needs at least one (payoff, value) pair")
            pairs = sorted((float(x), float(u)) for x, u in self.table)
            if not all(math.isfinite(v) for pair in pairs for v in pair):
                raise ScenarioError(f"table utility needs finite payoffs and values, got {pairs}")
            for (x0, u0), (x1, u1) in zip(pairs, pairs[1:]):
                if x1 == x0:
                    raise ScenarioError(f"table utility defines payoff {x0} twice")
                if u1 <= u0:
                    raise ScenarioError(f"table utility is not strictly increasing between payoffs {x0} and {x1}")
            object.__setattr__(self, "table", tuple(pairs))

    @staticmethod
    def sqrt() -> "UtilityFunction":
        return UtilityFunction("sqrt")

    @staticmethod
    def linear() -> "UtilityFunction":
        return UtilityFunction("linear")

    @staticmethod
    def identity() -> "UtilityFunction":
        return UtilityFunction("identity")

    @staticmethod
    def power(alpha: float) -> "UtilityFunction":
        return UtilityFunction("power", alpha=float(alpha))

    @staticmethod
    def from_table(mapping: Mapping[float, float]) -> "UtilityFunction":
        return UtilityFunction("table", table=tuple(mapping.items()))

    @staticmethod
    def parse(spec: str) -> "UtilityFunction":
        """Parse a CLI-style utility spec: ``sqrt``, ``linear``, ``identity``, or ``power:ALPHA``."""
        spec = spec.strip()
        if spec in ("sqrt", "linear", "identity"):
            return UtilityFunction(spec)
        if spec.startswith("power:"):
            try:
                return UtilityFunction.power(float(spec.split(":", 1)[1]))
            except ValueError as exc:
                raise ScenarioError(f"bad power utility spec {spec!r}: {exc}") from None
        raise ScenarioError(f"unknown utility spec {spec!r}; expected sqrt, linear, identity, or power:ALPHA")

    def __call__(self, payoff: float) -> float:
        x = float(payoff)
        if self.kind == "sqrt":
            if x < 0:
                raise ScenarioError(f"sqrt utility is undefined at payoff {x}")
            return math.sqrt(x)
        if self.kind == "power":
            if x < 0:
                raise ScenarioError(f"power utility is undefined at payoff {x}")
            try:
                return x ** self.alpha
            except OverflowError:
                raise ScenarioError(f"power utility overflows at payoff {x}") from None
        if self.kind in ("linear", "identity"):
            return x
        for px, u in self.table:
            if px == x:
                return u
        raise ScenarioError(f"table utility is undefined at payoff {x}")

    def check_increasing_on(self, payoffs: Iterable[float]) -> None:
        """Verify strict monotonicity on the payoffs and on MONOTONICITY_GRID points spanning them.

        Raises
        ------
        ScenarioError
            If the function is undefined at some payoff or fails to
            strictly increase on the sampled points.
        """
        points = sorted(set(float(x) for x in payoffs))
        if not points:
            return
        values = [self(x) for x in points]  # raises if undefined at a payoff
        if self.kind != "table" and len(points) > 1:
            lo, hi = points[0], points[-1]
            grid = {lo + (hi - lo) * i / (MONOTONICITY_GRID - 1) for i in range(MONOTONICITY_GRID)}
            sampled = sorted(set(points) | grid)
            values = [self(x) for x in sampled]
            points = sampled
        for (x0, u0), (x1, u1) in zip(zip(points, values), zip(points[1:], values[1:])):
            if u1 <= u0:
                raise ScenarioError(
                    f"utility is not strictly increasing: u({x0}) = {u0} versus u({x1}) = {u1}"
                )

    def label(self) -> str:
        if self.kind == "power":
            return f"power:{self.alpha:g}"
        return self.kind


DEFAULT_UTILITY = UtilityFunction.sqrt()


@_value_class
class Act:
    """A named act: one finite dollar payoff per elementary event."""

    label: str
    payoffs: tuple[float, ...]

    def __post_init__(self) -> None:
        try:
            payoffs = tuple(float(x) for x in self.payoffs)
        except (TypeError, ValueError):
            raise ScenarioError(f"act {self.label!r}: payoffs must be numbers, got {list(self.payoffs)!r}") from None
        if not all(math.isfinite(x) for x in payoffs):
            raise ScenarioError(f"act {self.label!r}: payoffs must be finite, got {list(payoffs)}")
        object.__setattr__(self, "payoffs", payoffs)

    @property
    def n_events(self) -> int:
        return len(self.payoffs)


@_value_class
class ProbabilityConstraint:
    """Fixed total probability over events, stored exactly; a Scenario resolves labels to indices."""

    event_indices: frozenset[int]
    total: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.event_indices, frozenset):  # a set would merge True into 1
            object.__setattr__(self, "event_indices", tuple(self.event_indices))
        total = Fraction(self.total)
        if not 0 <= total <= 1:
            raise ScenarioError(f"constraint total {total} is outside [0, 1]")
        if not self.event_indices:
            raise ScenarioError("a probability constraint needs at least one event")
        object.__setattr__(self, "total", total)

    def sorted_indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.event_indices))


def _resolve(ref: Union[str, int], labels: Sequence[str], kind: str) -> int:
    """Position in ``labels`` of the act or event named by a label or a 0-based index, never a bool."""
    if isinstance(ref, str):
        if ref in labels:
            return labels.index(ref)
        raise ScenarioError(f"unknown {kind} {ref!r}; scenario has {list(labels)}")
    if isinstance(ref, int) and not isinstance(ref, bool):
        if 0 <= ref < len(labels):
            return ref
        raise ScenarioError(f"{kind} index {ref} out of range for {len(labels)} {kind}s")
    raise ScenarioError(f"bad {kind} reference {ref!r}; expected a label or a 0-based index")


@_value_class
class Scenario:
    """Events, acts, exact probability constraints, and question pairs.

    The constraints must partition the events (disjoint groups covering
    every event, totals summing to 1); that partition is what both the
    classical simplex and the quantum state space are built on. Constraint
    events and question-pair acts are named by label or 0-based index and
    stored as indices.
    """

    name: str
    events: tuple[str, ...]
    acts: tuple[Act, ...]
    constraints: tuple[ProbabilityConstraint, ...]
    question_pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(str(e) for e in self.events))
        object.__setattr__(self, "acts", tuple(self.acts))
        n = len(self.events)
        if n == 0:
            raise ScenarioError("a scenario needs at least one event")
        if len(set(self.events)) != n:
            raise ScenarioError(f"event labels must be unique, got {self.events}")
        labels = [a.label for a in self.acts]
        if len(set(labels)) != len(labels):
            raise ScenarioError(f"act labels must be unique, got {labels}")
        for act in self.acts:
            if act.n_events != n:
                raise ScenarioError(
                    f"act {act.label!r}: expected {n} payoffs (one per event), got {act.n_events}"
                )
        constraints, seen = [], set()
        for k, c in enumerate(self.constraints):
            try:
                indices = frozenset(map(self.event_index, c.event_indices))
            except ScenarioError as exc:
                raise ScenarioError(f"constraints[{k}]: {exc}") from None
            if seen & indices:
                raise ScenarioError(f"constraints overlap on event {self.events[min(seen & indices)]!r}")
            seen |= indices
            constraints.append(ProbabilityConstraint(indices, c.total))
        object.__setattr__(self, "constraints", tuple(constraints))
        if seen != set(range(n)):
            missing = [self.events[i] for i in sorted(set(range(n)) - seen)]
            raise ScenarioError(f"constraints do not cover events {missing}; groups must partition the events")
        total = sum((c.total for c in self.constraints), Fraction(0))
        if total != 1:
            raise ScenarioError(f"constraint totals must sum to 1, got {total} (partition violation)")
        if not 1 <= len(self.question_pairs) <= 2:
            raise ScenarioError(f"a scenario needs one or two question pairs, got {len(self.question_pairs)}")
        pairs = []
        for k, pair in enumerate(self.question_pairs):
            try:
                a, b = map(self.act_index, pair)
            except ScenarioError as exc:
                raise ScenarioError(f"question_pairs[{k}] references a missing act: {exc}") from None
            if a == b:
                raise ScenarioError(f"question pair ({a}, {b}) must reference two distinct acts")
            pairs.append((a, b))
        object.__setattr__(self, "question_pairs", tuple(pairs))

    @property
    def n_events(self) -> int:
        return len(self.events)

    def act(self, label_or_index: Union[str, int]) -> Act:
        """Look up an act by label or 0-based index."""
        return self.acts[self.act_index(label_or_index)]

    def act_index(self, label_or_index: Union[str, int]) -> int:
        return _resolve(label_or_index, [a.label for a in self.acts], "act")

    def event_index(self, label_or_index: Union[str, int]) -> int:
        return _resolve(label_or_index, self.events, "event")

    def groups(self) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
        """Constraint groups as (sorted event indices, exact total), in first-index order."""
        items = [(c.sorted_indices(), c.total) for c in self.constraints]
        return tuple(sorted(items, key=lambda it: it[0][0]))

    def to_document(self) -> dict:
        """Plain-dict form matching the JSON schema of :func:`load_scenario`."""
        return {
            "name": self.name,
            "events": list(self.events),
            "acts": [{"label": a.label, "payoffs": list(a.payoffs)} for a in self.acts],
            "constraints": [
                {"events": [self.events[i] for i in c.sorted_indices()], "total": str(c.total)}
                for c in self.constraints
            ],
            "question_pairs": [[self.acts[a].label, self.acts[b].label] for a, b in self.question_pairs],
        }

    def serialize(self) -> str:
        """JSON text that :func:`load_scenario` parses back to an equal scenario."""
        return json.dumps(self.to_document(), indent=2)


BUILTIN_NAMES = ("ellsberg3", "machina5051", "reflection_lower", "reflection_upper")

# the bundled files: one JSON definition per built-in and the experiment's
# cell table, one row per built-in in BUILTIN_NAMES order
DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def builtin(name: str) -> Scenario:
    """Load one of the built-in scenarios, ``data/<name>.json``, by name.

    Valid names: ``ellsberg3``, ``machina5051``, ``reflection_lower``,
    ``reflection_upper``.
    """
    if name not in BUILTIN_NAMES:
        raise ScenarioError(f"unknown scenario {name!r}; built-ins are {BUILTIN_NAMES}")
    return load_scenario_file(os.path.join(DATA_DIR, f"{name}.json"))


def _require(document: Mapping, key: str, kind: type, where: str):
    if key not in document:
        raise ScenarioError(f"{where}: missing field {key!r}")
    value = document[key]
    if not isinstance(value, kind):
        raise ScenarioError(f"{where}: field {key!r} must be a {kind.__name__}, got {type(value).__name__}")
    return value


def _parse_total(raw, where: str) -> Fraction:
    if isinstance(raw, bool):
        raise ScenarioError(f"{where}: total must be a rational given as an integer fraction string, got {raw!r}")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, str):
        try:
            return Fraction(raw.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ScenarioError(f"{where}: bad rational {raw!r} ({exc})") from None
    raise ScenarioError(
        f"{where}: total must be a rational given as an integer fraction string like \"50/101\", got {raw!r}"
    )


def load_scenario(document: Union[str, Mapping]) -> Scenario:
    """Parse a scenario from a JSON document (text or already-parsed mapping).

    Schema
    ------
    ::

        {
          "name": "my_urn",
          "events": ["R", "Y", "B"],
          "acts": [{"label": "f1", "payoffs": [100, 0, 0]}, ...],
          "constraints": [{"events": ["R"], "total": "1/3"}, ...],
          "question_pairs": [["f1", "f2"], ["f4", "f3"]]
        }

    Constraint totals are exact rationals written as integer fractions
    ("1/3", "50/101"); floats are rejected. Constraint ``events`` and
    ``question_pairs`` entries are labels or 0-based indices, never
    negative and never booleans. This function checks the document's
    shape and field types; :class:`Act`, :class:`ProbabilityConstraint`
    and :class:`Scenario` check counts, ranges and that the constraint
    groups partition the events. Validation failures name the offending
    field.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario document is not valid JSON: {exc}") from None
        except RecursionError:
            raise ScenarioError("scenario document is nested too deeply to parse") from None
    if not isinstance(document, Mapping):
        raise ScenarioError(f"scenario document must be a JSON object, got {type(document).__name__}")

    name = _require(document, "name", str, "scenario")
    events = tuple(str(e) for e in _require(document, "events", list, f"scenario {name!r}"))
    acts = []
    for k, entry in enumerate(_require(document, "acts", list, f"scenario {name!r}")):
        if not isinstance(entry, Mapping):
            raise ScenarioError(f"scenario {name!r}: acts[{k}] must be an object with label and payoffs")
        label = _require(entry, "label", str, f"acts[{k}]")
        acts.append(Act(label, _require(entry, "payoffs", list, f"act {label!r}")))

    constraints = []
    for k, entry in enumerate(_require(document, "constraints", list, f"scenario {name!r}")):
        where = f"constraints[{k}]"
        if not isinstance(entry, Mapping):
            raise ScenarioError(f"scenario {name!r}: {where} must be an object with events and total")
        refs = _require(entry, "events", list, where)
        constraints.append(ProbabilityConstraint(tuple(refs), _parse_total(entry.get("total"), where)))

    pairs = _require(document, "question_pairs", list, f"scenario {name!r}")
    for k, entry in enumerate(pairs):
        if not isinstance(entry, Sequence) or isinstance(entry, str) or len(entry) != 2:
            raise ScenarioError(f"question_pairs[{k}] must be a pair of act labels or indices")
    return Scenario(name, events, tuple(acts), tuple(constraints), tuple(pairs))


def read_text(path, what: str) -> str:
    """The text of a file, decoded as UTF-8 with an optional byte-order mark.

    Raises
    ------
    ScenarioError
        ``cannot read <what> <path>: <reason>`` if the file cannot be
        opened or is not UTF-8.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read {what} {path}: {exc}") from None


def load_scenario_file(path) -> Scenario:
    """Read and parse a scenario JSON file; a fault in it is reported after ``scenario file <path>:``."""
    text = read_text(path, "scenario file")
    try:
        return load_scenario(text)
    except ScenarioError as exc:
        raise ScenarioError(f"scenario file {path}: {exc}") from None


def resolve_scenario(name_or_path: str) -> Scenario:
    """Interpret a CLI-style scenario argument as a builtin name or a file path."""
    if name_or_path in BUILTIN_NAMES:
        return builtin(name_or_path)
    if os.path.exists(name_or_path):
        return load_scenario_file(name_or_path)
    raise ScenarioError(
        f"unknown scenario {name_or_path!r}: not a built-in ({', '.join(BUILTIN_NAMES)}) and not an existing file"
    )


def act_utilities(scenario: Scenario, act: Union[Act, str, int], u: UtilityFunction) -> tuple[float, ...]:
    """Per-event utilities u(x_i) for an act, after validating u on the scenario's payoffs."""
    if isinstance(act, Act):
        found = scenario.act(act.label)
        if found != act:
            raise ScenarioError(f"act {act.label!r} does not belong to scenario {scenario.name!r}")
        act = found
    else:
        act = scenario.act(act)
    all_payoffs = [x for a in scenario.acts for x in a.payoffs]
    u.check_increasing_on(all_payoffs)
    return tuple(u(x) for x in act.payoffs)


def utility_differences(
    scenario: Scenario, first: Union[Act, str, int], second: Union[Act, str, int], u: UtilityFunction
) -> tuple[float, ...]:
    """Per-event u(x_i) of ``first`` minus u(x_i) of ``second``: the coefficients of W(first) - W(second) in p."""
    return tuple(x - y for x, y in zip(act_utilities(scenario, first, u), act_utilities(scenario, second, u)))


def support(groups, v: Sequence) -> Fraction | float:
    """h(v) = sum_G t_G max_{i in G} v_i, the largest value of v . p on the polytope.

    ``groups`` pairs each group's event indices with its total, as
    :meth:`Scenario.groups` does. Exact totals and rational ``v`` give the
    exact value; float totals and float ``v`` give it in floats.
    """
    return sum(t * max(v[i] for i in indices) for indices, t in groups)


def act_operator(scenario: Scenario, act: Union[Act, str, int], u: UtilityFunction = DEFAULT_UTILITY) -> HermitianOp:
    """Hermitian act operator: diagonal, with eigenvalue u(x_i) on event i.

    Eigenvalues are :func:`act_utilities`, in event order; loads
    :mod:`bornchoice.hilbert`. Raises if the act does not belong to the
    scenario or u is undefined or non-increasing on the scenario's payoffs.
    """
    from .hilbert import HermitianOp

    values = act_utilities(scenario, act, u)
    return HermitianOp([[x if i == j else 0.0 for j in range(len(values))] for i, x in enumerate(values)])


@_value_class
class ExperimentCounts:
    """Cell counts of the four answer combinations of a two-question experiment.

    ``n_f1f4`` counts participants preferring the first act of pair 1
    and the act labeled f4; the four cells must sum to ``n_total``.
    """

    n_f1f4: int
    n_f1f3: int
    n_f2f3: int
    n_f2f4: int
    n_total: int | None = None

    def __post_init__(self) -> None:
        cells = (self.n_f1f4, self.n_f1f3, self.n_f2f3, self.n_f2f4)
        stated = () if self.n_total is None else (self.n_total,)
        for value in cells + stated:
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ScenarioError(f"cell counts and total must be non-negative integers, got {cells + stated}")
        total = sum(cells)
        if self.n_total is None:
            object.__setattr__(self, "n_total", total)
        elif self.n_total != total:
            raise ScenarioError(f"cell counts {cells} sum to {total}, not the stated total {self.n_total}")
        if self.n_total <= 0:
            raise ScenarioError("an experiment needs at least one participant")

    def cells(self) -> tuple[int, int, int, int]:
        return (self.n_f1f4, self.n_f1f3, self.n_f2f3, self.n_f2f4)

    def to_dict(self) -> dict:
        return {
            "n_f1f4": self.n_f1f4,
            "n_f1f3": self.n_f1f3,
            "n_f2f3": self.n_f2f3,
            "n_f2f4": self.n_f2f4,
            "n_total": self.n_total,
        }
