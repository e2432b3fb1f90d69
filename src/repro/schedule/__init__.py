"""``repro.schedule`` -- topology-aware placement and scheduling plans.

One :class:`Placement` object answers, for a whole run, the questions
the paper's Section 6 experiments turn on: how big is each band, which
worker (host) owns it, and which workers sit close enough for cheap
exchanges.  The *same* plan configures both worlds:

* the grid **simulator** maps rank ``l`` onto the plan's worker's host
  (``run_synchronous(..., placement=plan)``);
* the real **runtime** fleets (processes, sockets) pin block ``l`` to
  worker ``assignment[l]`` (``executor.attach(..., placement=plan)``);
  the in-process backends validate the plan and ignore it.

Plans are built from a cluster preset (:func:`cluster_placement`), from
explicit speeds (:func:`uniform_placement`,
:func:`proportional_placement`, :func:`cost_model_placement`), or from
live micro-benchmarks of the actual workers
(:func:`measure_worker_speeds` / :func:`calibrated_placement`).
"""

from __future__ import annotations

from repro.schedule.calibrate import calibrated_placement, measure_worker_speeds
from repro.schedule.elastic import ElasticController, balanced_assignment
from repro.schedule.pattern import (
    message_bytes_matrix,
    partition_placement,
    pattern_comm_costs,
)
from repro.schedule.plan import (
    Placement,
    WorkerSlot,
    band_comm_costs,
    cluster_placement,
    cost_model_placement,
    iteration_cost_model,
    proportional_placement,
    uniform_placement,
)

__all__ = [
    "ElasticController",
    "Placement",
    "WorkerSlot",
    "balanced_assignment",
    "band_comm_costs",
    "calibrated_placement",
    "cluster_placement",
    "cost_model_placement",
    "iteration_cost_model",
    "measure_worker_speeds",
    "message_bytes_matrix",
    "partition_placement",
    "pattern_comm_costs",
    "proportional_placement",
    "uniform_placement",
]
