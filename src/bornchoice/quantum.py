"""Born-rule beliefs and state-dependent expected utility.

A decision-maker's beliefs are a unit vector over the event basis: the
squared modulus of each amplitude is the subjective probability of that
event, and the expected utility of an act in a state is the classical
sum of its utilities over those Born probabilities. The point of the
vector representation is that different questions may be evaluated in
different states, which is where classically impossible preference
patterns become representable.

States, their probabilities, expected utilities, preferences and
overlaps never load :mod:`bornchoice.hilbert`; only ``QuantumState.ket``
does, when called.
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING, Optional, Sequence, Union

from . import _value_class
from .scenarios import (
    DEFAULT_UTILITY,
    GROUP_SUM_TOL,
    Act,
    Scenario,
    ScenarioError,
    UtilityFunction,
)

if TYPE_CHECKING:
    from .classical import ClassicalProbability
    from .hilbert import Ket

# polar inputs are snapped onto the constraint surface when they are
# this close; printed 3-decimal vectors land well inside the band
SNAP_TOL = 5e-3

INDIFFERENCE_BAND = 1e-9


@_value_class
class QuantumState:
    """Belief vector in polar form over a scenario's event basis.

    ``moduli[i]`` squared is the subjective probability of event i and
    must satisfy the scenario's group constraints exactly (within
    ``GROUP_SUM_TOL``); phases are stored in radians and enter only
    through interference terms such as overlaps between states.
    Construct via :func:`state_from_polar` or :func:`initial_state`,
    which handle snapping measured vectors onto the constraint surface.
    """

    scenario: Scenario
    moduli: tuple[float, ...]
    phases: tuple[float, ...]

    def __post_init__(self) -> None:
        moduli = tuple(float(m) for m in self.moduli)
        phases = tuple(float(p) for p in self.phases)
        n = self.scenario.n_events
        if len(moduli) != n or len(phases) != n:
            raise ScenarioError(
                f"state needs {n} moduli and {n} phases, got {len(moduli)} and {len(phases)}"
            )
        if not all(math.isfinite(x) for x in moduli + phases):
            raise ScenarioError(f"moduli and phases must be finite, got moduli {moduli} and phases {phases} rad")
        for label, m in zip(self.scenario.events, moduli):
            if m < 0:
                raise ScenarioError(f"modulus of event {label!r} is negative ({m})")
        norm_sq = sum(m * m for m in moduli)
        if not abs(norm_sq - 1.0) <= 1e-6:
            raise ScenarioError(f"squared moduli sum to {norm_sq!r}, state is not a unit vector")
        for indices, total in self.scenario.groups():
            s = sum(moduli[i] ** 2 for i in indices)
            if not abs(s - float(total)) <= GROUP_SUM_TOL:
                labels = [self.scenario.events[i] for i in indices]
                raise ScenarioError(
                    f"squared moduli of group {labels} sum to {s!r}, constraint requires {float(total)!r}; "
                    "build states with state_from_polar so they are projected onto the constraints"
                )
        object.__setattr__(self, "moduli", moduli)
        object.__setattr__(self, "phases", phases)

    @property
    def phases_deg(self) -> tuple[float, ...]:
        return tuple(math.degrees(p) for p in self.phases)

    def ket(self) -> Ket:
        """The state as a :class:`~bornchoice.hilbert.Ket`; loads :mod:`bornchoice.hilbert`."""
        from . import hilbert

        amps = [m * cmath.exp(1j * p) for m, p in zip(self.moduli, self.phases)]
        return hilbert.ket(amps)

    def probabilities(self) -> tuple[float, ...]:
        return tuple(m * m for m in self.moduli)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario.name,
            "events": list(self.scenario.events),
            "moduli": list(self.moduli),
            "phases_deg": list(self.phases_deg),
            "probabilities": list(self.probabilities()),
        }

    def __repr__(self) -> str:
        body = ", ".join(
            f"{e}: {m:.6g}@{d:.6g}deg"
            for e, m, d in zip(self.scenario.events, self.moduli, self.phases_deg)
        )
        return f"QuantumState({self.scenario.name}; {body})"


def state_from_polar(
    scenario: Scenario,
    moduli: Sequence[float],
    phases_deg: Optional[Sequence[float]] = None,
    snap_tol: float = SNAP_TOL,
) -> QuantumState:
    """Build a state from moduli and phases in degrees, snapping onto the constraints.

    Rounded vectors (for instance three-decimal printouts) rarely sit on
    the constraint surface exactly; each group's moduli are rescaled by
    a common factor so the squared group sums match the exact rational
    totals. Inputs whose group sums are off by more than ``snap_tol``
    are rejected rather than silently repaired. Negative moduli are
    folded into the phase (modulus made positive, phase shifted by half
    a turn).
    """
    n = scenario.n_events
    mods = [float(m) for m in moduli]
    if len(mods) != n:
        raise ScenarioError(f"expected {n} moduli, got {len(mods)}")
    if phases_deg is None:
        phs = [0.0] * n
    else:
        phs = [math.radians(float(d)) for d in phases_deg]
        if len(phs) != n:
            raise ScenarioError(f"expected {n} phases, got {len(phs)}")
    if not all(math.isfinite(x) for x in mods + phs):
        raise ScenarioError(f"moduli and phases must be finite, got moduli {mods} and phases {phs} rad")
    phs = [p + math.pi if m < 0 else p for m, p in zip(mods, phs)]
    mods = [abs(m) for m in mods]

    norm_sq = sum(m * m for m in mods)
    if not abs(norm_sq - 1.0) <= snap_tol:
        raise ScenarioError(
            f"squared moduli sum to {norm_sq:.6g}; off from 1 by more than snap tolerance {snap_tol:g}"
        )
    for indices, total in scenario.groups():
        s = sum(mods[i] * mods[i] for i in indices)
        t = float(total)
        if not abs(s - t) <= snap_tol:
            labels = [scenario.events[i] for i in indices]
            raise ScenarioError(
                f"squared moduli of group {labels} sum to {s:.6g}, constraint requires {t:.6g}; "
                f"gap exceeds snap tolerance {snap_tol:g}"
            )
        if s <= 0:
            raise ScenarioError(
                f"group {[scenario.events[i] for i in indices]} has zero total amplitude; cannot rescale"
            )
        factor = math.sqrt(t / s)
        for i in indices:
            mods[i] *= factor
    return QuantumState(scenario, tuple(mods), tuple(phs))


def initial_state(scenario: Scenario) -> QuantumState:
    """Uninformed state: each group's probability spread evenly over its events, zero phases."""
    n = scenario.n_events
    mods = [0.0] * n
    for indices, total in scenario.groups():
        share = float(total) / len(indices)
        for i in indices:
            mods[i] = math.sqrt(share)
    return QuantumState(scenario, tuple(mods), (0.0,) * n)


def subjective_probabilities(state: QuantumState) -> ClassicalProbability:
    """The squared-modulus probability of each event, as a classical assignment."""
    from .classical import ClassicalProbability

    return ClassicalProbability(state.scenario, state.probabilities())


def expected_utility(
    state: QuantumState, act: Union[Act, str, int], u: UtilityFunction = DEFAULT_UTILITY
) -> float:
    """Expected utility of an act in a belief state: sum_i |psi_i|^2 u(x_i).

    The classical expected utility under the state's Born marginal (see
    :func:`subjective_probabilities`), which validates ``u`` on the
    scenario's payoffs. It equals the quadratic form <psi|A|psi> of the
    act's diagonal operator :func:`~bornchoice.scenarios.act_operator`.
    """
    from . import classical

    return classical.expected_utility(subjective_probabilities(state), act, u)


def preference(
    state: QuantumState,
    first: Union[Act, str, int],
    second: Union[Act, str, int],
    u: UtilityFunction = DEFAULT_UTILITY,
    tol: float = INDIFFERENCE_BAND,
) -> str:
    """Compare two acts in one state: '>', '<', or '=' within an indifference band."""
    gap = expected_utility(state, first, u) - expected_utility(state, second, u)
    if gap > tol:
        return ">"
    if gap < -tol:
        return "<"
    return "="


def expected_ball_counts(
    state: QuantumState, event_labels: Sequence[str], total_balls: float
) -> dict[str, float]:
    """Expected composition of an urn's unknown portion implied by the beliefs.

    ``event_labels`` must be exactly the events of one constraint group
    (the draw outcomes whose joint chance is fixed but whose split is
    not); each event's share of ``total_balls`` is its probability
    divided by the group total.
    """
    scenario = state.scenario
    if not 0 < total_balls < math.inf:
        raise ScenarioError(f"total ball count must be finite and positive, got {total_balls}")
    indices = tuple(sorted(scenario.event_index(lab) for lab in event_labels))
    for group, total in scenario.groups():
        if group == indices:
            group_total = float(total)
            break
    else:
        raise ScenarioError(
            f"events {list(event_labels)} do not form a constraint group of scenario {scenario.name!r}"
        )
    probs = state.probabilities()
    return {
        scenario.events[i]: total_balls * probs[i] / group_total for i in indices
    }


def overlap(a: QuantumState, b: QuantumState) -> complex:
    """Inner product <a|b> = sum of m_a m_b e^{i(phi_b - phi_a)} between two states over one scenario."""
    if a.scenario.name != b.scenario.name or a.scenario.events != b.scenario.events:
        raise ScenarioError("states belong to different scenarios")
    return sum(
        (cmath.rect(ma * mb, pb - pa) for ma, pa, mb, pb in zip(a.moduli, a.phases, b.moduli, b.phases)),
        0j,
    )
