"""Seeded inputs for the benchmark workloads, as plain data.

Everything here is standard library only: scenarios are JSON documents,
targets are floats, patterns are text. The same seed always gives the
same inputs. Nothing here imports bornchoice, so the set-up probe can
time the package import on its own.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "bornchoice" / "data"

BUILTINS = ("ellsberg3", "machina5051", "reflection_lower", "reflection_upper")

# payoffs of generated scenarios are perfect squares, so sqrt utilities
# are integers and the exact checks run on small rationals
SQUARES = (0, 1, 4, 9, 16, 25, 36, 49, 64, 81, 100)

RELATIONS = (">", "<", "=")
STRICT_RELATIONS = (">", "<")

# ellsberg3's events and constraints with acts whose feasible region for
# f1>f2,f4>f3 is p(B) in (0.3329, 0.3333): thinner than one grid cell
THIN_ACTS = (
    ("f1", (100, 0, 0)),
    ("f2", (0, 0, 100)),
    ("f3", (99.76, 0, 0)),
    ("f4", (0, 0, 100)),
)
THIN_PATTERN = "f1>f2,f4>f3"


def builtin_doc(name: str) -> dict:
    """A built-in scenario's published definition, read from the bundled JSON."""
    return json.loads((DATA / f"{name}.json").read_text(encoding="utf-8"))


def thin_doc() -> dict:
    doc = builtin_doc("ellsberg3")
    doc["name"] = "ellsberg3_thin"
    doc["acts"] = [{"label": label, "payoffs": list(payoffs)} for label, payoffs in THIN_ACTS]
    doc["question_pairs"] = [["f1", "f2"], ["f4", "f3"]]
    return doc


def bundled_cells() -> list[tuple[int, int, int, int]]:
    """Rows of the bundled experiment table, in file order."""
    with open(DATA / "table5.csv", newline="", encoding="utf-8") as fh:
        return [
            (int(r["n_f1f4"]), int(r["n_f1f3"]), int(r["n_f2f3"]), int(r["n_f2f4"]))
            for r in csv.DictReader(fh)
        ]


# -- reading a scenario document ---------------------------------------------

def groups(doc: dict) -> list[tuple[list[int], Fraction]]:
    """Constraint groups as (sorted event indices, exact total)."""
    events = doc["events"]
    out = []
    for c in doc["constraints"]:
        idx = sorted(e if isinstance(e, int) else events.index(e) for e in c["events"])
        out.append((idx, Fraction(c["total"])))
    return sorted(out, key=lambda g: g[0][0])


def utilities(doc: dict, label: str) -> list[float]:
    """Square-root utility of an act's payoffs, per event."""
    for act in doc["acts"]:
        if act["label"] == label:
            return [math.sqrt(float(x)) for x in act["payoffs"]]
    raise KeyError(label)


def gaps(doc: dict) -> list[list[float]]:
    """Per question pair, the utility difference first act minus second act, per event."""
    out = []
    for a, b in doc["question_pairs"]:
        ua, ub = utilities(doc, a), utilities(doc, b)
        out.append([x - y for x, y in zip(ua, ub)])
    return out


def attainable(doc: dict, gap: list[float]) -> tuple[float, float]:
    """Closed-form range of p . gap over the constraint polytope."""
    lo = hi = 0.0
    for idx, total in groups(doc):
        lo += float(total) * min(gap[i] for i in idx)
        hi += float(total) * max(gap[i] for i in idx)
    return lo, hi


def patterns(doc: dict, relations=RELATIONS) -> list[str]:
    (a1, b1), (a2, b2) = doc["question_pairs"]
    return [f"{a1}{r1}{b1},{a2}{r2}{b2}" for r1, r2 in itertools.product(relations, relations)]


# -- generated scenarios -----------------------------------------------------

def generated_doc(rng: random.Random, name: str, sizes: tuple[int, ...], totals: tuple[Fraction, ...]) -> dict:
    """A scenario with the given group sizes and totals and random square payoffs.

    Payoffs are drawn again until each question pair's gap ranges over
    more than one utility unit on the polytope.
    """
    n = sum(sizes)
    events = [f"E{i}" for i in range(n)]
    constraints = []
    pos = 0
    for size, total in zip(sizes, totals):
        constraints.append({"events": events[pos:pos + size], "total": str(total)})
        pos += size
    while True:
        acts = [{"label": f"f{k + 1}", "payoffs": [rng.choice(SQUARES) for _ in range(n)]} for k in range(4)]
        doc = {
            "name": name,
            "events": events,
            "acts": acts,
            "constraints": constraints,
            "question_pairs": [["f1", "f2"], ["f4", "f3"]],
        }
        if all(hi - lo > 1.0 for lo, hi in (attainable(doc, gap) for gap in gaps(doc))):
            return doc


def random_point(rng: random.Random, doc: dict) -> list[float]:
    """A point of the polytope away from its faces: each group's share split at random."""
    p = [0.0] * len(doc["events"])
    for idx, total in groups(doc):
        weights = [0.5 + rng.random() for _ in idx]
        s = sum(weights)
        for i, w in zip(idx, weights):
            p[i] = float(total) * w / s
    return p


def reachable_targets(rng: random.Random, doc: dict) -> tuple[float, float]:
    """Gaps realised by two random polytope points that admit orthogonal states.

    Orthogonal states with probabilities p1, p2 exist when the largest
    sqrt(p1_i p2_i) is at most the sum of the others (a closed polygon);
    the points are drawn with a wide margin on that inequality.
    """
    g1, g2 = gaps(doc)
    while True:
        p1, p2 = random_point(rng, doc), random_point(rng, doc)
        m = [math.sqrt(x * y) for x, y in zip(p1, p2)]
        if max(m) <= 0.7 * (sum(m) - max(m)):
            return sum(p * g for p, g in zip(p1, g1)), sum(p * g for p, g in zip(p2, g2))


def unreachable_targets(rng: random.Random, doc: dict) -> tuple[float, float]:
    """One gap well outside its attainable interval, the other inside its own."""
    g = gaps(doc)
    out = []
    for gap in g:
        lo, hi = attainable(doc, gap)
        out.append(lo + (hi - lo) * (0.25 + 0.5 * rng.random()))
    which = rng.randrange(2)
    lo, hi = attainable(doc, g[which])
    offset = 1.0 + 2.0 * rng.random()
    out[which] = hi + offset if rng.random() < 0.5 else lo - offset
    return out[0], out[1]


# -- per-workload input sets --------------------------------------------------

def solve_reachable(seed: int) -> list[dict]:
    """The four built-ins, then a 6-event and a 7-event generated scenario."""
    rng = random.Random(f"solve_reachable/{seed}")
    docs = [builtin_doc(name) for name in BUILTINS]
    docs.append(generated_doc(rng, "gen6", (3, 3), _split(rng, 2)))
    docs.append(generated_doc(rng, "gen7", (2, 3, 2), _split(rng, 3)))
    return [{"doc": doc, "targets": reachable_targets(rng, doc)} for doc in docs]


def solve_unreachable(seed: int) -> list[dict]:
    """ellsberg3 with one target gap outside its attainable interval.

    On ellsberg3 every restart of such a solve runs to the iteration
    limit, whichever gap is out and on which side, so the cost of an
    operation does not depend on the seed. On the four-event built-ins
    some restarts stop early and the cost varies threefold with the
    target.
    """
    rng = random.Random(f"solve_unreachable/{seed}")
    doc = builtin_doc("ellsberg3")
    return [{"doc": doc, "targets": unreachable_targets(rng, doc)}]


# generated feasibility scenarios of each kind, and how often each of
# their cases runs in one round
GENERATED_SCENARIOS = 12
GENERATED_REPEATS = 6


def feasibility_mix(seed: int) -> list[dict]:
    """Every relation pattern on the built-ins, strict patterns on generated scenarios, the thin case.

    Twelve generated scenarios have one free coordinate (three events in
    groups 1+2 or 2+1: the grid cross-check runs on a small mesh). Twelve
    have five (seven events in groups 4+3 or 5+2: only the LP runs). None
    has three free coordinates, where the grid allocates a mesh of up to
    1e9 points. Each generated case runs GENERATED_REPEATS times a round,
    so the 27 built-in cases with two free coordinates (a 250 000-point
    mesh whose page faults cost 1.5 times more in some stretches than in
    others on a virtual machine) take about a fifth of the round's time.

    A one-free-coordinate scenario is drawn again until every strict
    pattern is either infeasible or feasible with a joint margin of at
    least ``exact.WIDE``, so the one region thinner than a grid cell is
    the thin case. Generated scenarios carry no indifference: a seeded
    indifference can touch the edge of a strict region, where the grid
    cross-check raises.
    """
    import exact

    rng = random.Random(f"feasibility_mix/{seed}")
    cases = [{"doc": builtin_doc(name), "pattern": p} for name in BUILTINS for p in patterns(builtin_doc(name))]
    generated = []
    for k in range(GENERATED_SCENARIOS):
        while True:
            doc = generated_doc(rng, f"grid{k}", rng.choice(((1, 2), (2, 1))), _split(rng, 2))
            strict = patterns(doc, STRICT_RELATIONS)
            if all(exact.is_wide(doc, p) for p in strict):
                break
        generated.extend({"doc": doc, "pattern": p} for p in strict)
    for k in range(GENERATED_SCENARIOS):
        doc = generated_doc(rng, f"lp{k}", rng.choice(((4, 3), (5, 2))), _split(rng, 2))
        generated.extend({"doc": doc, "pattern": p} for p in patterns(doc, STRICT_RELATIONS))
    cases.extend(generated * GENERATED_REPEATS)
    cases.append({"doc": thin_doc(), "pattern": THIN_PATTERN})
    return cases


def cli_cold(seed: int) -> list[dict]:
    """verify-paper, analyze on the bundled table, the modal Ellsberg pattern, one seeded pattern.

    The seeded pattern is on a four-event built-in, whose two free
    coordinates give every seed the same grid and so the same peak memory.
    It has a strict entry: with indifference on both pairs the command
    fails while printing a feasible result (its margin is None).
    """
    rng = random.Random(f"cli_cold/{seed}")
    name = rng.choice(BUILTINS[1:])
    doc = builtin_doc(name)
    pattern = rng.choice([p for p in patterns(doc) if "<" in p or ">" in p])
    return [
        {"argv": ["verify-paper"]},
        {"argv": ["analyze"]},
        {"argv": ["feasibility", "f1>f2,f4>f3", "--scenario", "ellsberg3"], "doc": builtin_doc("ellsberg3"),
         "pattern": "f1>f2,f4>f3"},
        {"argv": ["feasibility", pattern, "--scenario", name], "doc": doc, "pattern": pattern},
    ]


def _split(rng: random.Random, k: int) -> tuple[Fraction, ...]:
    """k positive totals summing to 1, with denominator 12."""
    cuts = sorted(rng.sample(range(1, 12), k - 1))
    bounds = [0, *cuts, 12]
    return tuple(Fraction(b - a, 12) for a, b in zip(bounds, bounds[1:]))


GENERATORS = {
    "solve_reachable": solve_reachable,
    "solve_unreachable": solve_unreachable,
    "feasibility_mix": feasibility_mix,
    "cli_cold": cli_cold,
}
