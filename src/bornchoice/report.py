"""Validation reports: named deviations checked against tolerances.

Immutable value classes on the standard library, shared by the
Hilbert-space structural checks and the state-pair verification.
"""

from __future__ import annotations

from . import _value_class


@_value_class
class CheckLine:
    """One named deviation with its tolerance verdict."""

    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance

    def to_dict(self) -> dict:
        return {"name": self.name, "deviation": self.deviation, "tolerance": self.tolerance, "passed": self.passed}


@_value_class
class ValidationReport:
    """Outcome of a structural validation, one line per checked property."""

    subject: str
    checks: tuple[CheckLine, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckLine:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {"subject": self.subject, "passed": self.passed, "checks": [c.to_dict() for c in self.checks]}

    def summary(self) -> str:
        lines = [f"{self.subject}: {'pass' if self.passed else 'FAIL'}"]
        for c in self.checks:
            verdict = "pass" if c.passed else "FAIL"
            lines.append(f"  {verdict}  {c.name}: max deviation {c.deviation:.3e} (tol {c.tolerance:.0e})")
        return "\n".join(lines)
