"""Walk through the Hilbert-space layer: kets, projectors, Born probabilities.

Run from the repository root after installing the package:

    python3 demos/01_hilbert_basics.py
"""

import math

from bornchoice import hilbert


def show(amplitudes):
    return "[" + ", ".join(f"{z:.4f}" for z in amplitudes) + "]"


# A state is a complex amplitude vector. Unit norm is only enforced where
# probabilities are computed, so intermediate algebra is unconstrained.
v = hilbert.ket([1 / math.sqrt(3), 1j / math.sqrt(3), -1 / math.sqrt(3)])
print("state amplitudes:", show(v.amplitudes))
print("norm:", round(v.norm(), 12))

# The canonical family projects onto the coordinate axes: one projector per
# elementary outcome, mutually orthogonal, summing to the identity.
family = hilbert.canonical_family(3)
report = hilbert.validate_spectral_family(family)
print("\nspectral family checks:")
for line in report.checks:
    print(f"  {line.name}: deviation {line.deviation:.3g} (tol {line.tolerance:g})")

# Born rule: the probability of an outcome is the squared length of the
# projection of the state onto that outcome's subspace.
print("\nBorn probabilities of the three outcomes:")
probs = [hilbert.born_probability(p, v) for p in family.projectors]
for k, p in enumerate(probs):
    print(f"  outcome {k}: {p:.6f}")
print("  total:", round(sum(probs), 12))

# check_generalized_measure packages exactly that invariant: the outcome
# probabilities of a unit state form a probability distribution.
measure = hilbert.check_generalized_measure(v, family)
print("generalized measure valid:", measure.passed)

# Projectors need not be rank one. A coarse event {1, 2} gets the sum of
# the axis projectors, and its probability is additive.
coarse = hilbert.basis_projector(3, [1, 2])
print(f"\nP({{1,2}}) = {hilbert.born_probability(coarse, v):.12f} = p1 + p2 = {probs[1] + probs[2]:.12f}")

# Observing the coarse event collapses the state onto its subspace and
# renormalizes; a second collapse then changes nothing.
after = hilbert.collapse(coarse, v)
print("collapsed amplitudes:", show(after.amplitudes))
print("collapse is idempotent:",
      all(abs(x - y) <= 1e-12 for x, y in zip(hilbert.collapse(coarse, after).amplitudes, after.amplitudes)))

# Expectation values work for any Hermitian operator, here a diagonal
# payoff observable.
payoff = hilbert.HermitianOp([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 4.0]])
print(f"\nexpected payoff in v: {hilbert.expectation(payoff, v):.12f}")
