#!/usr/bin/env python
"""Overlap tuning on a nearly-singular system (the Figure 3 scenario).

The paper's fourth experiment: when the Jacobi spectral radius is close
to 1, plain band multisplitting converges slowly; annexing an overlap to
every band cuts the iteration count, but enlarges the sub-systems and so
the one-off factorization cost.  Somewhere in between lies the optimum
("in our case, the best overlapping size is 2500" of n=100000).

This example sweeps the overlap on the gen-overlap workload (dominance
1.012 -> rho(J) ~ 0.99), prints the trade-off table, and reports the
best size, next to the overlap the sequential facade chooses by itself
(``overlap=None``).  It also shows the weighting families side by side: the
restricted (ownership) combination versus the O'Leary-White average.

Run:  python examples/overlap_tuning.py
"""

from repro.core import MultisplittingSolver
from repro.grid import cluster3
from repro.matrices import jacobi_spectral_radius, load_workload

A, b, _ = load_workload("gen-overlap", scale=0.35)
n = A.shape[0]
rho = jacobi_spectral_radius(A)
print(f"n={n}, rho(|J|)={rho:.4f}  (close to 1 => slow plain convergence)")

print(f"\n{'overlap':>8} | {'iterations':>10} | {'factor s':>9} | {'total s':>8}")
print("-" * 46)
best = None
for frac in (0.0, 0.005, 0.01, 0.02, 0.035, 0.05):
    overlap = int(round(frac * n))
    solver = MultisplittingSolver(
        mode="synchronous", overlap=overlap, max_iterations=5000
    )
    res = solver.solve(A, b, cluster=cluster3(10))
    assert res.converged, f"overlap={overlap} did not converge"
    print(
        f"{overlap:8d} | {res.iterations:10d} | "
        f"{res.factorization_time:9.4f} | {res.simulated_time:8.4f}"
    )
    if best is None or res.simulated_time < best[1]:
        best = (overlap, res.simulated_time)

print(f"\nbest overlap: {best[0]} ({best[0] / n:.1%} of n) at {best[1]:.4f} s")

# In sequential mode overlap=None asks the facade to choose: it probes a
# few rounds of the homogeneous iteration and prices each candidate as
# factor flops plus predicted rounds x solve flops (no trial solves).
rule = MultisplittingSolver(10, mode="sequential", max_iterations=5000)
res = rule.solve(A, b)
chosen = rule.chosen_overlap(A)
zero = MultisplittingSolver(10, mode="sequential", overlap=0, max_iterations=5000)
print(
    f"sequential mode, overlap=None: the rule chose {chosen} ({chosen / n:.1%} of n), "
    f"{res.iterations} iterations against {zero.solve(A, b).iterations} at overlap 0"
)

print("\nweighting families at the best overlap:")
for weighting in ("ownership", "averaging", "schwarz"):
    solver = MultisplittingSolver(
        mode="synchronous", overlap=best[0], weighting=weighting, max_iterations=5000
    )
    res = solver.solve(A, b, cluster=cluster3(10))
    print(
        f"  {weighting:10s}: {res.iterations:5d} iterations, "
        f"{res.simulated_time:.4f} s, residual {res.residual:.2e}"
    )
