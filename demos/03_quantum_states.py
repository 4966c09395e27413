"""Quantum decision states: complex amplitudes over events, Born-rule
subjective probabilities, and state-dependent expected utility.

    python3 demos/03_quantum_states.py
"""

import math

from bornchoice import classical, quantum
from bornchoice.scenarios import builtin

s = builtin("ellsberg3")

# The ambiguity-free state spreads each constrained group uniformly, so
# its Born probabilities are the uniform classical ones. In any one state
# an act's value is the classical expected utility under the state's Born
# probabilities, so the two columns agree.
v0 = quantum.initial_state(s)
print("initial state moduli:", [round(m, 4) for m in v0.moduli])
print("Born probabilities:", [round(p, 4) for p in v0.probabilities()])
for act in s.acts:
    eu_q = quantum.expected_utility(v0, act)
    eu_c = classical.expected_utility(quantum.subjective_probabilities(v0), act)
    print(f"  W({act.label}) quantum {eu_q:.4f} classical {eu_c:.4f}")

# A decision maker's state need not be ambiguity free. This one shifts
# weight inside the (Y, B) group while keeping the group total at 2/3,
# so it is still admissible, and it reverses both modal preferences.
w = quantum.state_from_polar(s, (math.sqrt(1 / 3), math.sqrt(0.5), math.sqrt(1 / 6)))
print("\nshifted state probabilities:", [round(p, 4) for p in w.probabilities()])
print("f1 vs f2:", quantum.preference(w, "f1", "f2"))
print("f4 vs f3:", quantum.preference(w, "f4", "f3"))

# Phases never move Born probabilities; they only matter through state
# overlaps (hence for the orthogonality of a two-question state pair).
w_phased = quantum.state_from_polar(s, w.moduli, (0.0, 120.0, 240.0))
print("\nphases changed, probabilities unchanged:",
      all(abs(p - q) <= 1e-12 for p, q in zip(w.probabilities(), w_phased.probabilities())))
print("overlap <w|w_phased> =", abs(quantum.overlap(w, w_phased)))

# A state's probabilities convert directly to expected ball counts in the
# 60-ball urn reading of the scenario.
counts = quantum.expected_ball_counts(w, ("Y", "B"), 60)
print("\nexpected ball counts in the shifted state:",
      {k: round(v, 2) for k, v in counts.items()})
