"""Exact feasibility decisions in rational arithmetic, made apart from bornchoice.

A preference pattern asks for p on the constraint polytope with
g_k . p > 0 for strict entries and g_e . p = 0 for indifferent ones,
where g is a pair's per-event utility gap. Each float gap is taken as
the exact rational it stores. On the polytope's free coordinates y
(every event of a group but its last), the strict entries are lifted
with a joint margin s, and max s is found by enumerating the vertices
of the lifted polytope in Fraction arithmetic. The benchmark keeps the
free coordinates few, so the enumeration stays small.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional

import inputs

# a feasible strict pattern on a generated scenario keeps at least this
# joint margin, so its region is many grid cells wide
WIDE = Fraction(1, 20)


def _reduce(groups, coeffs: list[Fraction]) -> tuple[list[Fraction], Fraction]:
    """coeffs . p as a . y + b on the free coordinates."""
    a: list[Fraction] = []
    b = Fraction(0)
    for idx, total in groups:
        last = idx[-1]
        b += coeffs[last] * total
        a.extend(coeffs[i] - coeffs[last] for i in idx[:-1])
    return a, b


def _solve(rows: list[list[Fraction]], rhs: list[Fraction]) -> Optional[list[Fraction]]:
    """Unique solution of a square system by Gaussian elimination, or None if singular."""
    n = len(rows)
    m = [row[:] + [r] for row, r in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col] * inv
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[r][n] / m[r][r] for r in range(n)]


def _independent(rows: list[tuple[list[Fraction], Fraction]]) -> Optional[list[tuple[list[Fraction], Fraction]]]:
    """A maximal independent subset of the equations row . x = rhs; None if they are inconsistent."""
    kept: list[tuple[list[Fraction], Fraction]] = []
    reduced: list[tuple[list[Fraction], Fraction, int]] = []
    for row, rhs in rows:
        r, c = row[:], rhs
        for prow, prhs, pcol in reduced:
            if r[pcol] != 0:
                f = r[pcol] / prow[pcol]
                r = [x - f * y for x, y in zip(r, prow)]
                c -= f * prhs
        lead = next((j for j, x in enumerate(r) if x != 0), None)
        if lead is None:
            if c != 0:
                return None
            continue
        reduced.append((r, c, lead))
        kept.append((row, rhs))
    return kept


def max_margin(doc: dict, pattern: str) -> Optional[Fraction]:
    """Largest joint strict margin of a pattern over the polytope.

    Returns None when the indifferences cannot hold anywhere on the
    polytope, and 0 for a feasible pattern with no strict entry.
    """
    groups = inputs.groups(doc)
    strict, equal = [], []
    for term, gap in zip(pattern.split(","), inputs.gaps(doc)):
        coeffs = [Fraction(g) for g in gap]
        if ">" in term:
            strict.append(coeffs)
        elif "<" in term:
            strict.append([-c for c in coeffs])
        else:
            equal.append(coeffs)
    d = sum(len(idx) - 1 for idx, _ in groups)
    lifted = bool(strict)
    dim = d + (1 if lifted else 0)

    # inequalities row . x + const >= 0 and equalities row . x + const = 0, x = (y, s)
    ineq: list[tuple[list[Fraction], Fraction]] = []
    pos = 0
    for idx, total in groups:
        free = len(idx) - 1
        for j in range(free):
            row = [Fraction(0)] * dim
            row[pos + j] = Fraction(1)
            ineq.append((row, Fraction(0)))
        if free:
            row = [Fraction(0)] * dim
            for j in range(free):
                row[pos + j] = Fraction(-1)
            ineq.append((row, total))
        pos += free
    for coeffs in strict:
        a, b = _reduce(groups, coeffs)
        ineq.append((a + [Fraction(-1)], b))
    eq = []
    for coeffs in equal:
        a, b = _reduce(groups, coeffs)
        eq.append((a + ([Fraction(0)] if lifted else []), -b))
    basis = _independent(eq)
    if basis is None:
        return None

    def admissible(x: list[Fraction]) -> bool:
        return all(sum(r * v for r, v in zip(row, x)) + c >= 0 for row, c in ineq) and all(
            sum(r * v for r, v in zip(row, x)) == rhs for row, rhs in eq
        )

    if dim == 0:
        return Fraction(0) if admissible([]) else None
    best: Optional[Fraction] = None
    for active in itertools.combinations(ineq, dim - len(basis)):
        rows = [row for row, _ in basis] + [row for row, _ in active]
        rhs = [r for _, r in basis] + [-c for _, c in active]
        x = _solve(rows, rhs)
        if x is None or not admissible(x):
            continue
        value = x[-1] if lifted else Fraction(0)
        if best is None or value > best:
            best = value
    return best


def feasible(doc: dict, pattern: str) -> bool:
    """Exact verdict: the indifferences hold somewhere with every strict entry positive."""
    m = max_margin(doc, pattern)
    if m is None:
        return False
    has_strict = any(op in pattern for op in "<>")
    return m > 0 or not has_strict


def is_wide(doc: dict, pattern: str) -> bool:
    """Infeasible, or feasible with a joint margin of at least WIDE."""
    m = max_margin(doc, pattern)
    return m is None or m <= 0 or m >= WIDE
