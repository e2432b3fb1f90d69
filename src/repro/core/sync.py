"""Synchronous multisplitting-direct solver on the grid simulator.

This is Algorithm 1 in its MPI form: per outer iteration every processor

1. updates its local right-hand side and solves its factored band system
   (compute, charged at ``rhs_flops + solve_flops``);
2. sends ``XSub`` to every processor that depends on it;
3. receives the pieces it depends on (blocking -- this is the
   synchronisation the paper sets out to make coarse-grained);
4. folds them into its local copy with the weighting family and
   participates in an exact convergence vote
   (:func:`repro.detection.synchronous.sync_converged`).

Communication happens **once per outer iteration** -- the paper's central
claim is that this coarse grain is what makes direct methods viable on
grids, in contrast to the per-panel traffic of distributed SuperLU
(:mod:`repro.distbaseline`).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.core.distributed import SimRank, simulate
from repro.core.partition import GeneralPartition
from repro.core.result import SolveResult
from repro.core.stopping import StoppingCriterion
from repro.core.weighting import WeightingScheme
from repro.detection.synchronous import sync_converged
from repro.direct.base import DirectSolver
from repro.direct.cache import FactorizationCache
from repro.grid.topology import Cluster

__all__ = ["run_synchronous"]


def _sync_proc(ctx, rank: SimRank, stopping: StoppingCriterion, detection: str):
    """One processor of Algorithm 1 (a simulator coroutine)."""
    system, k_width = rank.system, rank.k_width
    z, piece = yield from rank.start(ctx)
    state = stopping.new_state()
    it = 0
    globally_done = False
    use_residual = stopping.metric == "residual"
    while it < stopping.max_iterations and not globally_done:
        it += 1
        yield ctx.compute(system.iteration_flops * k_width)
        new_piece = rank.solve(z)
        local_flag = not use_residual and state.observe_diff(
            new_piece[rank.core_mask], piece[rank.core_mask]
        )
        piece = new_piece
        yield from rank.send_piece(ctx, piece, piece, tag=("xsub", rank.l, it))
        if rank.needed.size:
            z[rank.needed] = 0.0
        for k in rank.terms:
            msg = yield ctx.recv(source=k, tag=("xsub", k, it))
            rank.fold(z, k, msg.payload)
        if use_residual:
            # true residual of the fresh global iterate on J_l rows
            # (the coupling block never reads z on J_l, so piece and
            # z together describe the current global iterate here)
            yield ctx.compute(system.residual_flops * k_width)
            r = system.local_residual(piece, z)
            local_flag = state.observe(float(np.max(np.abs(r))) if r.size else 0.0)
        globally_done = yield from sync_converged(ctx, local_flag, method=detection)
    return rank.outcome(ctx, it, piece, globally_done)


def run_synchronous(
    A,
    b: np.ndarray,
    partition: GeneralPartition,
    weighting: WeightingScheme,
    solver: DirectSolver,
    cluster: Cluster,
    *,
    stopping: StoppingCriterion | None = None,
    detection: str = "centralized",
    x0: np.ndarray | None = None,
    cache: FactorizationCache | None = None,
    executor=None,
    placement=None,
) -> SolveResult:
    """Run the synchronous algorithm; returns a :class:`SolveResult`.

    The ``detection`` string selects the vote schedule (``"centralized"``
    or ``"decentralized"``); both are exact in synchronous mode and differ
    only in communication cost.  ``cache`` enables factorization reuse
    across runs (the per-run reuse counters land on ``cache_stats``).

    ``b`` may be one right-hand side ``(n,)`` or a batch ``(n, k)``: each
    simulated exchange then carries an ``(m, k)`` block whose charged
    bytes scale with ``k`` while the per-message latency is paid once,
    and the returned ``x`` has shape ``(n, k)``.

    ``executor`` (:mod:`repro.runtime`) parallelises the *real* setup
    factorization across blocks (thread backends); simulated times are
    unaffected.  Its name and the per-block solve wall-clock land on
    the result's ``backend`` / ``block_seconds``.

    ``placement`` (:class:`repro.schedule.Placement`) maps each rank
    onto the plan's worker's host -- the same plan object that sized the
    partition and that pins the real executors; its summary (with the
    actual ``hosts``) lands on the result's ``placement``.
    """
    proc = partial(
        _sync_proc, stopping=stopping or StoppingCriterion(), detection=detection
    )
    return simulate(
        A, b, partition, weighting, solver, cluster, proc, mode="synchronous",
        x0=x0, cache=cache, executor=executor, placement=placement,
    )
