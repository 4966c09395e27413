"""Classical expected utility on the built-in urn scenarios, and why the
observed modal choice pattern has no classical probability that supports it.

    python3 demos/02_classical_feasibility.py
"""

from bornchoice import classical
from bornchoice.scenarios import BUILTIN_NAMES, DEFAULT_UTILITY, act_utilities, builtin

# Each scenario is a small ambiguous-urn decision problem: events with
# partially constrained probabilities, and four payoff acts asked as two
# binary questions.
for name in BUILTIN_NAMES:
    s = builtin(name)
    constraints = ", ".join(
        f"p({'+'.join(s.events[i] for i in sorted(c.event_indices))}) = {c.total}"
        for c in s.constraints
    )
    print(f"{name}: events {s.events}, {constraints}")
print()

s = builtin("ellsberg3")

# Expected utility of each act at the uniform-within-groups probability.
p = classical.ClassicalProbability(s, (1 / 3, 1 / 3, 1 / 3))
for act in s.acts:
    print(f"W({act.label}) at uniform p = {classical.expected_utility(p, act):.4f}")
print("utilities of f1's payoffs:", act_utilities(s, s.act(0), DEFAULT_UTILITY))
print()

# The modal experimental answers are f1 over f2 and f4 over f3. Jointly
# those strict preferences are infeasible for every admissible classical
# probability, and the certificate shows why: the second utility gap is an
# exact negative multiple of the first.
result = classical.feasibility(s, "f1>f2,f4>f3")
print(result.summary())
print()

# Flip the second question and a witness appears immediately.
print(classical.feasibility(s, "f1>f2,f3>f4").summary())
print()

# The same machinery decides the two-urn reflection examples, where the
# joint pattern is instead forced to align: the sign of W(f1) - W(f2)
# always equals the sign of W(f3) - W(f4).
for name in ("machina5051", "reflection_lower", "reflection_upper"):
    aligned = classical.biconditional_check(builtin(name), ("f1", "f2"), ("f3", "f4"))
    print(f"{name}: sign(W(f1)-W(f2)) == sign(W(f3)-W(f4)) for all admissible p: {aligned}")
