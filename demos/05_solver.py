"""Search for orthogonal state pairs hitting prescribed utility gaps, and
map out how pinned-down (or not) the solutions are.

    python3 demos/05_solver.py
"""

import numpy as np

from bornchoice import solver
from bornchoice.scenarios import builtin

s = builtin("ellsberg3")

# Default targets come from the published analysis: the two observed
# preference weights, read as utility gaps under the square-root utility.
target = solver.SolveTarget.for_scenario(s)
print(f"targets: gap({target.pair_1}) = {target.d1}, gap({target.pair_2}) = {target.d2}")

config = solver.SolverConfig(restarts=64, seed=0, residual_tolerance=1e-8)
result = solver.solve(s, target, config=config)
print(result.summary())
print("w1 moduli:", np.round(result.w1.moduli, 4))
print("w2 moduli:", np.round(result.w2.moduli, 4))
print("w2 phases (deg):", np.round(result.w2.phases_deg, 2))

# The residual system is fully differentiable; the solver uses its
# analytic Jacobian. Spot-check it against central differences.
system = solver.ResidualSystem(s, target)
x0 = system.initial_points(np.random.default_rng(0), 1)[0]
step = 1e-6
numeric = np.empty((system.n_residuals, system.n_params))
for j in range(system.n_params):
    up, down = list(x0), list(x0)
    up[j] += step
    down[j] -= step
    numeric[:, j] = np.subtract(system.residuals(up), system.residuals(down)) / (2 * step)
print("max Jacobian deviation at a random point:",
      f"{np.max(np.abs(numeric - system.jacobian(x0))):.2e}")

# How unique is the answer? Clustering the converged solves of successive
# seeds by their moduli shows the targets pin the ellsberg pair down to a
# single family, while the reflection scenarios keep genuinely distinct
# solutions.
seeds = 4
for name in ("ellsberg3", "reflection_lower"):
    sc = builtin(name)
    family = solver.explore_solution_family(
        sc, solver.SolveTarget.for_scenario(sc),
        config=solver.SolverConfig(restarts=16, seed=3), count=seeds,
    )
    print(f"\n{name}: {len(family)} distinct solution class(es) over {seeds} seeds")
    for member in family:
        print("  w1 moduli:", np.round(member.w1.moduli, 4))

# Asking for an unreachable gap reports failure rather than a near miss.
bad = solver.solve(s, solver.SolveTarget.for_scenario(s, d1=50.0),
                   config=solver.SolverConfig(restarts=4, seed=0))
print("\nunreachable target converged:", bad.converged, f"(cost {bad.cost:.3g})")
