"""Output checks made apart from bornchoice.

Each checker recomputes what an output claims from the benchmark's own
inputs (scenario documents, bundled cells) with its own arithmetic, and
raises CheckFailed on the first claim that does not hold. They read the
program's results only through public fields.
"""

from __future__ import annotations

import math

import numpy as np

import inputs

GROUP_TOL = 1e-12  # a group's Born probabilities against its exact total
TARGET_TOL = 1e-8  # realised gap against the target gap
OVERLAP_TOL = 1e-8  # |<w1|w2>|
STRICT_MARGIN = 1e-9  # a witnessed strict preference clears this margin
REL_TOL = 1e-9


class CheckFailed(AssertionError):
    """An output that does not meet the independent check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _on_polytope(doc: dict, p: np.ndarray, what: str) -> None:
    require(bool(np.all(p >= -GROUP_TOL)), f"{what}: negative probability {p.min()!r}")
    for idx, total in inputs.groups(doc):
        s = float(p[idx].sum())
        require(abs(s - float(total)) <= GROUP_TOL, f"{what}: group {idx} sums to {s!r}, not {total}")


def _state(state) -> tuple[np.ndarray, np.ndarray]:
    return np.asarray(state.moduli, dtype=float), np.asarray(state.phases, dtype=float)


def _overlap(m1, ph1, m2, ph2) -> complex:
    return complex(np.sum(m1 * m2 * np.exp(1j * (ph2 - ph1))))


def check_reachable(case: dict, result) -> None:
    """A converged pair on the polytope, hitting both targets, orthogonal."""
    doc = case["doc"]
    require(result.converged is True, "solve did not report convergence on a reachable target")
    (m1, ph1), (m2, ph2) = _state(result.w1), _state(result.w2)
    for tag, m in (("w1", m1), ("w2", m2)):
        _on_polytope(doc, m * m, tag)
    for k, (m, gap, target) in enumerate(zip((m1, m2), inputs.gaps(doc), case["targets"]), start=1):
        realised = float(np.dot(m * m, gap))
        require(abs(realised - target) <= TARGET_TOL, f"target {k}: realised {realised!r}, wanted {target!r}")
    z = _overlap(m1, ph1, m2, ph2)
    require(abs(z) <= OVERLAP_TOL, f"|<w1|w2>| = {abs(z)!r}")


def check_unreachable(case: dict, result) -> None:
    """Not converged, and each target's residual at least its distance to the attainable interval."""
    doc = case["doc"]
    require(result.converged is False, "solve reported convergence on an unreachable target")
    (m1, _), (m2, _) = _state(result.w1), _state(result.w2)
    for tag, m in (("w1", m1), ("w2", m2)):
        _on_polytope(doc, m * m, tag)
    for k, (m, gap, target) in enumerate(zip((m1, m2), inputs.gaps(doc), case["targets"]), start=1):
        lo, hi = inputs.attainable(doc, gap)
        distance = max(lo - target, target - hi, 0.0)
        realised = float(np.dot(m * m, gap)) - target
        reported = float(result.residuals[f"target_{k}"])
        require(abs(reported - realised) <= REL_TOL * max(1.0, abs(realised)),
                f"target {k}: reported residual {reported!r}, recomputed {realised!r}")
        require(abs(reported) >= distance * (1 - REL_TOL),
                f"target {k}: residual {reported!r} is below the distance {distance!r} to [{lo!r}, {hi!r}]")


def check_feasibility(case: dict, feasible: bool, witness, verdict: bool) -> None:
    """Verdict equals the exact one; a witness lies on the polytope and meets every relation.

    ``witness`` maps event labels to probabilities, or is None.
    """
    doc = case["doc"]
    require(feasible is verdict, f"{doc['name']} {case['pattern']}: reported feasible={feasible}, exact {verdict}")
    if not feasible:
        require(witness is None, "an infeasible verdict carries a witness")
        return
    require(witness is not None, "a feasible verdict has no witness")
    p = np.array([float(witness[e]) for e in doc["events"]])
    _on_polytope(doc, p, "witness")
    for term, gap in zip(case["pattern"].split(","), inputs.gaps(doc)):
        value = float(np.dot(p, gap))
        if ">" in term:
            require(value >= STRICT_MARGIN, f"witness margin {value!r} for {term}")
        elif "<" in term:
            require(-value >= STRICT_MARGIN, f"witness margin {-value!r} for {term}")
        else:
            require(abs(value) <= STRICT_MARGIN, f"witness gap {value!r} for {term}")


def check_verify_paper(payload: dict) -> None:
    names = [entry["scenario"] for entry in payload["scenarios"]]
    require(names == list(inputs.BUILTINS), f"verify-paper covered {names}")
    failed = [entry["scenario"] for entry in payload["scenarios"] if entry["passed"] is not True]
    require(not failed and payload["passed"] is True, f"verify-paper failed on {failed}")


def z_test_p(k: int, n: int) -> float:
    """Two-sided normal p-value of z = (k - n/2) / sqrt(n/4)."""
    z = (k - n / 2) / math.sqrt(n / 4)
    return math.erfc(abs(z) / math.sqrt(2))


def check_analyze(payload: dict) -> None:
    """Per bundled row (one per built-in, in order): question counts and z-test p-values."""
    reports = payload["reports"]
    rows = inputs.bundled_cells()
    require(len(reports) == len(rows) == len(inputs.BUILTINS), f"analyze gave {len(reports)} reports")
    for report, (f1f4, f1f3, f2f3, f2f4), name in zip(reports, rows, inputs.BUILTINS):
        n = f1f4 + f1f3 + f2f3 + f2f4
        first_q2 = inputs.builtin_doc(name)["question_pairs"][1][0]
        k1 = f1f4 + f1f3
        k2 = f1f4 + f2f4 if first_q2 == "f4" else f1f3 + f2f3
        for q, k in (("q1", k1), ("q2", k2)):
            require(report[f"k_{q}"] == k, f"{name} {q}: count {report[f'k_{q}']}, cells give {k}")
            want = z_test_p(k, n)
            for got in (report[f"p_{q}"], report["question_variants"][q]["z_test"]):
                require(math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-300),
                        f"{name} {q}: z-test p {got!r}, cells give {want!r}")
