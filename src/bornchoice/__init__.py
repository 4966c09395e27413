"""Decision-making under ambiguity with Born-rule subjective probabilities.

Finite-dimensional Hilbert-space machinery (kets, Hermitian operators,
projectors, spectral families), urn-style decision scenarios with exact
rational probability constraints, classical subjective expected utility
with exact feasibility analysis of joint preference patterns, belief
states whose squared amplitudes are the subjective probabilities, a
least-squares solver for orthogonal state pairs hitting target utility
gaps, and the statistics of a paired-choice experiment.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .classical import (
    CertificateError,
    ClassicalProbability,
    FeasibilityResult,
    PatternError,
    PreferencePattern,
    biconditional_check,
    expected_utility,
    feasibility,
)
from .hilbert import (
    HermitianOp,
    HilbertError,
    Ket,
    Projector,
    SpectralFamily,
    ValidationReport,
    born_probability,
    collapse,
    expectation,
    inner_product,
)
from .quantum import (
    QuantumState,
    expected_ball_counts,
    initial_state,
    overlap,
    preference,
    state_from_polar,
    subjective_probabilities,
)
from .scenarios import (
    BUILTIN_NAMES,
    DEFAULT_UTILITY,
    Act,
    ExperimentCounts,
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
from .solver import (
    PaperSolution,
    ResidualSystem,
    SolveResult,
    SolveTarget,
    SolverConfig,
    explore_solution_family,
    paper_solutions,
    solve,
    verify,
)
from .stats import (
    StatsReport,
    analyze,
    binomial_z_test,
    exact_binomial_test,
    inversion_rate,
    load_counts_csv,
    mcnemar_tests,
    preference_weights,
)

__all__ = [
    "__version__",
    "Act",
    "BUILTIN_NAMES",
    "CertificateError",
    "ClassicalProbability",
    "DEFAULT_UTILITY",
    "ExperimentCounts",
    "FeasibilityResult",
    "HermitianOp",
    "HilbertError",
    "Ket",
    "PaperSolution",
    "PatternError",
    "PreferencePattern",
    "Projector",
    "QuantumState",
    "ResidualSystem",
    "Scenario",
    "ScenarioError",
    "SolveResult",
    "SolveTarget",
    "SolverConfig",
    "SpectralFamily",
    "StatsReport",
    "UtilityFunction",
    "ValidationReport",
    "act_operator",
    "analyze",
    "biconditional_check",
    "binomial_z_test",
    "born_probability",
    "builtin",
    "collapse",
    "exact_binomial_test",
    "expectation",
    "expected_ball_counts",
    "expected_utility",
    "explore_solution_family",
    "feasibility",
    "initial_state",
    "inner_product",
    "inversion_rate",
    "load_counts_csv",
    "load_scenario",
    "load_scenario_file",
    "mcnemar_tests",
    "overlap",
    "paper_solutions",
    "preference",
    "preference_weights",
    "resolve_scenario",
    "solve",
    "state_from_polar",
    "subjective_probabilities",
    "utility_values",
    "verify",
]
