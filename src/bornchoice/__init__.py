"""Decision-making under ambiguity with Born-rule subjective probabilities.

Finite-dimensional Hilbert-space machinery (kets, Hermitian operators,
projectors, spectral families), urn-style decision scenarios with exact
rational probability constraints, classical subjective expected utility
with exact feasibility analysis of joint preference patterns, belief
states whose squared amplitudes are the subjective probabilities, a
least-squares solver for orthogonal state pairs hitting target utility
gaps, and the statistics of a paired-choice experiment.

Each public name loads its submodule on first access, so ``import
bornchoice`` loads no submodule and no numpy. ``classical``, ``stats``,
``scenarios``, ``quantum``, ``report`` and ``verification`` run on the
standard library (``utility_values``, ``act_operator``,
``QuantumState.ket``, ``quantum.expected_utility`` and
``quantum.preference`` load numpy when called); ``hilbert`` and
``solver`` load numpy.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "classical": (
        "CertificateError", "ClassicalProbability", "FeasibilityResult", "PatternError",
        "PreferencePattern", "biconditional_check", "expected_utility", "feasibility",
    ),
    "hilbert": (
        "HermitianOp", "HilbertError", "Ket", "Projector", "SpectralFamily", "born_probability",
        "collapse", "expectation", "inner_product",
    ),
    "quantum": (
        "QuantumState", "expected_ball_counts", "initial_state", "overlap", "preference",
        "state_from_polar", "subjective_probabilities",
    ),
    "report": ("ValidationReport",),
    "scenarios": (
        "BUILTIN_NAMES", "DEFAULT_UTILITY", "Act", "ExperimentCounts", "Scenario", "ScenarioError",
        "UtilityFunction", "act_operator", "builtin", "load_scenario", "load_scenario_file",
        "resolve_scenario", "utility_values",
    ),
    "solver": ("ResidualSystem", "SolveResult", "SolverConfig", "explore_solution_family", "solve"),
    "stats": (
        "StatsReport", "analyze", "binomial_z_test", "exact_binomial_test", "inversion_rate",
        "load_counts_csv", "mcnemar_tests", "preference_weights",
    ),
    "verification": ("PaperSolution", "SolveTarget", "paper_solutions", "verify"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_ORIGIN)]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
