"""Decision-making under ambiguity with Born-rule subjective probabilities.

Finite-dimensional Hilbert-space machinery (kets, Hermitian operators,
projectors, spectral families), urn-style decision scenarios with exact
rational probability constraints, classical subjective expected utility
with exact feasibility analysis of joint preference patterns, belief
states whose squared amplitudes are the subjective probabilities, a
least-squares solver for orthogonal state pairs hitting target utility
gaps, and the statistics of a paired-choice experiment.

Each public name loads its submodule on first access, so ``import
bornchoice`` loads no submodule. Every submodule runs on the standard
library; the package has no runtime dependency.
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
        "resolve_scenario",
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


# -- immutable value classes ---------------------------------------------------
#
# Every result and input record of the package is a value class: its fields
# are the names annotated in its body (after its parent's), bound in order by
# one shared __init__ that then calls __post_init__ if the class has one.
# The methods below are written once and installed on each class, so no
# code is generated per class. Fields are read-only: __post_init__
# normalises a field with object.__setattr__.

_MISSING = object()


class _Field:
    """A field's name and default, in the form the standard library's data-class
    ``replace`` reads, so that function still copies a value object with some
    fields changed."""

    __slots__ = ("name", "default")
    init = compare = True
    _field_type = None

    def __init__(self, name: str, default) -> None:
        self.name = name
        self.default = default


def _field_values(obj) -> tuple:
    return tuple(getattr(obj, name) for name in obj.__dataclass_fields__)


def _value_init(self, *args, **kwargs) -> None:
    cls = type(self)
    fields = cls.__dataclass_fields__
    if len(args) > len(fields):
        raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments but {len(args)} were given")
    for index, (name, field) in enumerate(fields.items()):
        if index < len(args):
            if name in kwargs:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            value = args[index]
        else:
            value = kwargs.pop(name, field.default)
            if value is _MISSING:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
        object.__setattr__(self, name, value)
    if kwargs:
        raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {next(iter(kwargs))!r}")
    post_init = getattr(cls, "__post_init__", None)
    if post_init is not None:
        post_init(self)


def _value_repr(self) -> str:
    body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__dataclass_fields__)
    return f"{type(self).__name__}({body})"


def _value_eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _field_values(self) == _field_values(other)


def _value_hash(self) -> int:
    return hash(_field_values(self))


def _value_setattr(self, name: str, value) -> None:
    raise AttributeError(f"{type(self).__name__} is read-only: cannot assign {name!r}")


def _value_delattr(self, name: str) -> None:
    raise AttributeError(f"{type(self).__name__} is read-only: cannot delete {name!r}")


def _value_class(cls=None, *, eq: bool = True):
    """Make ``cls`` an immutable value class; ``@_value_class`` or ``@_value_class(eq=False)``.

    Installs ``__init__``, a repr with the instance's own class name, and
    read-only fields; with ``eq``, equality and hash by field, else the
    identity ones inherited from ``object``. A method the class defines
    itself is kept.
    """
    if cls is None:
        return lambda cls: _value_class(cls, eq=eq)
    fields = dict(getattr(cls, "__dataclass_fields__", {}))
    for name in cls.__dict__.get("__annotations__", {}):
        fields[name] = _Field(name, cls.__dict__.get(name, _MISSING))
    cls.__dataclass_fields__ = fields
    methods = {
        "__init__": _value_init,
        "__repr__": _value_repr,
        "__setattr__": _value_setattr,
        "__delattr__": _value_delattr,
    }
    if eq:
        methods.update(__eq__=_value_eq, __hash__=_value_hash)
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls
