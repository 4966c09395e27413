"""The numpy-free state-pair check against numpy references kept here.

``verification._named_residuals`` and ``quantum.overlap`` sum in plain
Python; the references are ``np.dot`` of the probabilities and the gap
vectors and ``np.vdot`` of the kets. The summation order differs, so the
two agree within a few ulp of the largest term, not bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from bornchoice import quantum, verification
from bornchoice.scenarios import BUILTIN_NAMES, DEFAULT_UTILITY, builtin, utility_differences, utility_values
from bornchoice.solver import ResidualSystem

# a 3- or 4-term float sum, reordered: within 2 ulp of the largest term;
# subtracting the target gap then rounds once more, at the result's ulp
TARGET_ULPS = 2
# the phase difference is rounded once before the rotation, up to half
# an ulp of 2*pi (4.4e-16 rad), ~4 ulp of the term's size; the sums add
# a few more
OVERLAP_ULPS = 8


def numpy_state_from_polar(scenario, moduli, phases_deg):
    """The array version of ``quantum.state_from_polar``'s snap, as moduli and phases."""
    mods = np.array([float(m) for m in moduli], dtype=float)
    phs = np.array([math.radians(float(d)) for d in phases_deg], dtype=float)
    negative = mods < 0
    mods = np.abs(mods)
    phs = np.where(negative, phs + math.pi, phs)
    for indices, total in scenario.groups():
        idx = list(indices)
        s = float(np.sum(mods[idx] ** 2))
        mods[idx] *= math.sqrt(float(total) / s)
    return tuple(mods.tolist()), tuple(phs.tolist())


def reference_target(scenario, state, pair, d):
    gap = utility_values(scenario, pair[0], DEFAULT_UTILITY) - utility_values(scenario, pair[1], DEFAULT_UTILITY)
    p = np.array(state.probabilities())
    return float(np.dot(p, gap)) - d, float(np.max(np.abs(p * gap)))


def assert_matches_numpy(scenario, w1, w2, target):
    gaps = (utility_differences(scenario, *pair, DEFAULT_UTILITY) for pair in (target.pair_1, target.pair_2))
    named = verification._named_residuals(scenario, w1, w2, target, *gaps)
    for key, state, pair, d in (("target_1", w1, target.pair_1, target.d1), ("target_2", w2, target.pair_2, target.d2)):
        expected, largest = reference_target(scenario, state, pair, d)
        assert abs(named[key] - expected) <= TARGET_ULPS * math.ulp(largest) + math.ulp(expected), key
    z = complex(np.vdot(w1.ket().amplitudes, w2.ket().amplitudes))
    largest = max(a * b for a, b in zip(w1.moduli, w2.moduli))
    overlap = quantum.overlap(w1, w2)
    assert abs(overlap.real - z.real) <= OVERLAP_ULPS * math.ulp(largest)
    assert abs(overlap.imag - z.imag) <= OVERLAP_ULPS * math.ulp(largest)
    # one overlap formula: the residual lines are quantum.overlap's parts
    assert (named["overlap_re"], named["overlap_im"]) == (overlap.real, overlap.imag)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_published_pairs_match_the_numpy_reference(name):
    solution = verification.paper_solutions(name)
    assert_matches_numpy(solution.w1.scenario, solution.w1, solution.w2, solution.target)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_random_pairs_match_the_numpy_reference(name):
    scenario = builtin(name)
    target = verification.SolveTarget.for_scenario(scenario)
    system = ResidualSystem(scenario, target)
    rng = np.random.default_rng(11)
    for _ in range(200):
        w1, w2 = system.states(rng.uniform(-10.0, 10.0, system.n_params))
        assert_matches_numpy(scenario, w1, w2, target)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_state_from_polar_equals_the_array_snap_exactly(name):
    scenario = builtin(name)
    entry = verification._PUBLISHED[name]
    for moduli, phases in ((entry["moduli_1"], entry["phases_1"]), (entry["moduli_2"], entry["phases_2"])):
        state = quantum.state_from_polar(scenario, moduli, phases)
        assert (state.moduli, state.phases) == numpy_state_from_polar(scenario, moduli, phases)
