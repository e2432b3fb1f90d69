"""Calibrated placement vs uniform bands on an imbalanced worker set.

The scenario the paper's heterogeneous clusters create -- and that a
real deployment creates whenever workers are nice-d, share cores, or
simply differ in hardware: equal bands make every synchronous round
wait for the slowest worker.  This benchmark builds a *deliberately*
imbalanced three-worker set (worker ``w`` repeats every solve
``HANDICAPS[w]`` times -- a deterministic stand-in for a 4x / 16x
slower machine), then drives the same Poisson system through a fixed
number of outer iterations twice:

* **uniform**: equal bands, one per worker -- the round time is pinned
  to the 9x worker chewing a full-size band;
* **calibrated**: :func:`repro.schedule.measure_worker_speeds` probes
  the workers through the public Executor contract, and the cost-model
  planner shrinks the slow workers' bands until estimated per-round
  times are equal.

The win is architectural, not scheduling luck: with handicaps
``(1, 4, 16)`` uniform bands cost ``(1+4+16) * s`` units of total
handicapped work per round while the balanced plan costs ``~3x`` less
-- a gap that survives even a single-core host (where the threads
serialise), so the assertion is safe on CI.
"""

from __future__ import annotations

import time

import numpy as np

from bench_output import emit
from conftest import run_once

from repro.core import make_weighting, multisplitting_iterate
from repro.core.stopping import StoppingCriterion
from repro.direct import get_solver
from repro.matrices import poisson_2d, rhs_for_solution
from repro.runtime import ThreadExecutor
from repro.schedule import calibrated_placement, uniform_placement

#: Deterministic slow-down factor per worker (solve repeated that many times).
HANDICAPS = (1, 4, 16)
OUTER_ITERATIONS = 24
GRID = 90  # 8100 unknowns


class NicedThreadExecutor(ThreadExecutor):
    """Thread backend whose worker slot ``w`` is ``HANDICAPS[w]``x slower.

    The handicap repeats the genuine block solve, so the slow-down
    scales exactly with the work assigned -- precisely what an
    under-clocked or nice-d machine does to a band.
    """

    def _timed_solve(self, l, z):
        worker = self._placement.assignment[l] if self._placement else l
        total = 0.0
        for _ in range(HANDICAPS[worker]):
            piece, dt = super()._timed_solve(l, z)
            total += dt
        return piece, total


def placement_experiment():
    L = len(HANDICAPS)
    A = poisson_2d(GRID)
    n = A.shape[0]
    b, _ = rhs_for_solution(A, seed=1)
    # The banded kernel's factor/solve costs are linear in band size,
    # matching the planner's default linear cost model; fill-heavy
    # kernels (SuperLU) would need iteration_cost_model's estimate.
    solver = get_solver("banded")
    stopping = StoppingCriterion(tolerance=1e-300, max_iterations=OUTER_ITERATIONS)
    ex = NicedThreadExecutor(max_workers=L)
    try:
        plans = {}
        t0 = time.perf_counter()
        plans["calibrated"] = calibrated_placement(ex, n, L, repeats=4)
        calibration_seconds = time.perf_counter() - t0
        speeds = [w.speed for w in plans["calibrated"].workers]
        plans["uniform"] = uniform_placement(n, L)
        rows = {}
        for name in ("uniform", "calibrated"):
            plan = plans[name]
            part = plan.partition().to_general()
            scheme = make_weighting("ownership", part)
            t0 = time.perf_counter()
            result = multisplitting_iterate(
                A, b, part, scheme, solver,
                stopping=stopping, executor=ex, placement=plan,
            )
            rows[name] = {
                "seconds": time.perf_counter() - t0,
                "sizes": plan.sizes,
                "result": result,
            }
    finally:
        ex.close()
    return {
        "rows": rows,
        "speeds": speeds,
        "calibration_seconds": calibration_seconds,
        "n": n,
    }


def test_calibrated_beats_uniform_on_imbalanced_workers(benchmark):
    data = run_once(benchmark, placement_experiment)
    rows, speeds = data["rows"], data["speeds"]
    print()
    print(
        f"n={data['n']}, workers handicapped {HANDICAPS}, "
        f"{OUTER_ITERATIONS} outer iterations"
    )
    print(
        "measured relative speeds: "
        + ", ".join(f"{s:.2f}" for s in speeds)
        + f"  (calibration took {data['calibration_seconds']:.2f} s)"
    )
    for name, row in rows.items():
        print(
            f"  {name:10s}: {row['seconds']:7.3f} s  sizes={list(row['sizes'])}"
        )
    speedup = rows["uniform"]["seconds"] / rows["calibrated"]["seconds"]
    print(f"calibrated vs uniform speedup: {speedup:.2f}x")

    # Calibration must rank the workers by their actual handicap.
    assert speeds[0] > speeds[1] > speeds[2]
    # The planner must shift rows from slow workers to the fast one.
    cal_sizes = rows["calibrated"]["sizes"]
    assert cal_sizes[0] > cal_sizes[1] > cal_sizes[2]
    # Both runs did identical outer-iteration counts of real work.
    for row in rows.values():
        assert row["result"].iterations == OUTER_ITERATIONS
        assert np.isfinite(row["result"].residual)
    # The architectural win: >= 2x less total work per round gives a
    # wall-clock margin that holds even when threads serialise on one
    # core; assert a conservative slice of it.
    assert speedup >= 1.4, (
        f"calibrated placement should beat uniform bands by >= 1.4x on a "
        f"{HANDICAPS} worker set, got {speedup:.2f}x"
    )

    emit("placement", [
        ("uniform_seconds", rows["uniform"]["seconds"], "s"),
        ("calibrated_seconds", rows["calibrated"]["seconds"], "s"),
        ("speedup", speedup, "x"),
        ("calibration_seconds", data["calibration_seconds"], "s"),
    ])
