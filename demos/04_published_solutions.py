"""Recheck the registered published state pairs: each scenario ships with
two orthogonal states whose Born probabilities reproduce the reported
utility gaps at the printed three-decimal precision.

    python3 demos/04_published_solutions.py
"""

from bornchoice import quantum, solver
from bornchoice.scenarios import BUILTIN_NAMES

for name in BUILTIN_NAMES:
    solution = solver.paper_solutions(name)
    target = solution.target
    report = solution.verify(tol=5e-3)
    print(f"{name}: verified = {report.passed}")
    print(f"  targets: W({target.pair_1[0]}) - W({target.pair_1[1]}) = {target.d1}, "
          f"W({target.pair_2[0]}) - W({target.pair_2[1]}) = {target.d2}")
    print(f"  printed moduli w1 = {solution.printed_moduli_1}")
    print(f"  printed moduli w2 = {solution.printed_moduli_2}")
    print(f"  |<w1|w2>| = {abs(quantum.overlap(solution.w1, solution.w2)):.2e}")
    worst = max(report.checks, key=lambda line: line.deviation / line.tolerance)
    print(f"  worst check: {worst.name} (deviation {worst.deviation:.2e})")

# The registry states are the printed vectors snapped back onto the exact
# probability constraints, so their event probabilities are admissible to
# machine precision rather than to three decimals.
solution = solver.paper_solutions("ellsberg3")
print("\nellsberg3 w1 probabilities:", [round(p, 6) for p in solution.w1.probabilities()])
print("group totals:", solution.w1.probabilities()[0],
      solution.w1.probabilities()[1] + solution.w1.probabilities()[2])

# In the 60-unknown-balls reading, the first state says the urn looks
# Y-rich when choosing between f1 and f2, and B-rich between f4 and f3.
for tag, state in (("w1", solution.w1), ("w2", solution.w2)):
    counts = quantum.expected_ball_counts(state, ("Y", "B"), 60)
    print(f"expected counts under {tag}:", {k: round(v, 1) for k, v in counts.items()})
