"""Search for orthogonal state pairs hitting prescribed utility gaps, and
map out how pinned-down (or not) the solutions are.

    python3 demos/05_solver.py
"""

import random

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
print("w1 moduli:", [round(m, 4) for m in result.w1.moduli])
print("w2 moduli:", [round(m, 4) for m in result.w2.moduli])
print("w2 phases (deg):", [round(d, 2) for d in result.w2.phases_deg])

# The residual system is fully differentiable; the solver uses its
# analytic Jacobian. Spot-check it against central differences.
system = solver.ResidualSystem(s, target)
x0 = system.initial_points(random.Random(0), 1)[0]
analytic = system.jacobian(x0)
step = 1e-6
worst = 0.0
for j in range(system.n_params):
    up, down = list(x0), list(x0)
    up[j] += step
    down[j] -= step
    for row, r_up, r_down in zip(analytic, system.residuals(up), system.residuals(down)):
        worst = max(worst, abs((r_up - r_down) / (2 * step) - row[j]))
print("max Jacobian deviation at a random point:", f"{worst:.2e}")

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
        print("  w1 moduli:", [round(m, 4) for m in member.w1.moduli])

# Asking for an unreachable gap reports failure rather than a near miss.
bad = solver.solve(s, solver.SolveTarget.for_scenario(s, d1=50.0),
                   config=solver.SolverConfig(restarts=4, seed=0))
print("\nunreachable target converged:", bad.converged, f"(cost {bad.cost:.3g})")
