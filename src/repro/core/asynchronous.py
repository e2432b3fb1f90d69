"""Asynchronous multisplitting-direct solver on the grid simulator.

The paper's second implementation (Corba-based in the original): iterations
and communications are **not** synchronised.  Per local iteration a
processor

1. solves its band system against whatever dependency values it currently
   holds (possibly stale -- the asynchronous iterations model of
   Bertsekas & Tsitsiklis);
2. sends its fresh ``XSub`` to its dependents (fire-and-forget);
3. drains its mailbox, keeping only the *newest* piece per source
   (messages can overtake each other on the shared links);
4. advances the asynchronous convergence-detection protocol
   (:mod:`repro.detection`), which eventually floods a STOP decision.

Because nobody ever blocks, slow links and perturbed bandwidth delay the
*quality* of the data (more iterations) instead of stalling processors --
precisely the robustness Table 4 demonstrates: under heavy background
traffic the asynchronous version degrades far more gracefully than the
synchronous one.

Convergence is guaranteed under Theorem 1's stronger condition
``rho(|M_l^{-1} N_l|) < 1``; the solver itself guards with a local
``consecutive`` streak requirement plus the verification round of the
detectors.

Batched right-hand sides ``(n, k)`` are accounted **per column**: each
column keeps its own diff-streak tracker and the local flag requires
all of them, so a column that settled early can never vouch for one
still moving -- the asynchronous analog of ``run_synchronous``'s
worst-column monitor.

"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.core.distributed import SimRank, simulate
from repro.core.partition import GeneralPartition
from repro.core.result import SolveResult
from repro.core.stopping import StoppingCriterion
from repro.core.weighting import WeightingScheme
from repro.detection import make_async_detector
from repro.direct.base import DirectSolver
from repro.direct.cache import FactorizationCache
from repro.grid.engine import ANY
from repro.grid.topology import Cluster

__all__ = ["run_asynchronous"]


def _async_proc(ctx, rank: SimRank, stopping: StoppingCriterion, detection: str, sets):
    """One free-running processor (a simulator coroutine)."""
    system, k_width, core_mask = rank.system, rank.k_width, rank.core_mask
    z, piece = yield from rank.start(ctx)
    detector = make_async_detector(detection, ctx)
    # newest known piece per dependency (seeded from x0)
    latest: dict[int, tuple[int, np.ndarray]] = {
        k: (0, rank.z_init[sets[k]]) for k in rank.terms
    }
    # One convergence tracker per right-hand-side column: the
    # local flag requires EVERY column's streak, so a settled
    # column can never vouch for one still moving.
    states = [stopping.new_state() for _ in range(k_width)]
    it = 0
    stopped = False
    local_flag = False
    deps_set = set(rank.terms)
    # Soundness of the local flag: a diff streak driven only by a
    # *fast* neighbour says nothing about a rarely-refreshing WAN
    # dependency.  The flag therefore additionally requires that a
    # fresh piece from EVERY dependency has been absorbed without
    # moving the iterate since the last above-tolerance diff.
    absorbed_quietly: set[int] = set()
    pending_fresh: set[int] = set()
    # Re-solving against unchanged dependency data reproduces the
    # same piece bit-for-bit (a direct solve is deterministic), so
    # the free-running loop skips those no-op solves and polls the
    # mailbox instead.  Identical iterates, bounded event count.
    z_dirty = True
    iter_time = rank.host.compute_time(system.iteration_flops * k_width)
    poll_floor = max(iter_time, 1e-5)
    poll = poll_floor
    idle_polls = 0
    # Liveness guard: if peers died at max_iterations the STOP wave
    # never comes; bound the total solve+poll passes.
    passes = 0
    max_passes = max(10_000, 50 * stopping.max_iterations)
    while it < stopping.max_iterations and not stopped and passes < max_passes:
        passes += 1
        if z_dirty:
            it += 1
            poll = poll_floor
            idle_polls = 0
            yield ctx.compute(system.iteration_flops * k_width)
            new_piece = rank.solve(z)
            if core_mask.any():
                diff = np.abs(new_piece[core_mask] - piece[core_mask])
                col_max = diff.max(axis=0) if z.ndim == 2 else [diff.max()]
            else:
                col_max = [0.0] * k_width
            quiet = all(
                [states[j].observe(float(col_max[j])) for j in range(k_width)]
            )
            if any(s.streak == 0 for s in states):
                absorbed_quietly.clear()
            else:
                absorbed_quietly |= pending_fresh
            pending_fresh = set()
            local_flag = quiet and absorbed_quietly >= deps_set
            piece = new_piece
            z_dirty = False
            advertise = True
        else:
            yield ctx.sleep(poll)
            poll = min(poll * 2.0, 5e-3)  # capped exponential backoff
            idle_polls += 1
            # Heartbeat: an exactly-converged processor stops
            # producing new pieces; re-advertising the current
            # one keeps neighbours' dependency coverage alive.
            advertise = idle_polls % 25 == 0
        if advertise:
            yield from rank.send_piece(
                ctx, piece, (it, piece), tag="axsub", coalesce=True
            )
        # drain everything pending; keep only the freshest per source
        fresh = False
        while True:
            msg = yield ctx.try_recv(source=ANY, tag="axsub")
            if msg is None:
                break
            their_it, their_piece = msg.payload
            if their_it >= latest[msg.source][0]:
                latest[msg.source] = (their_it, their_piece)
                pending_fresh.add(msg.source)
                fresh = True
        if fresh:
            if rank.needed.size:
                z[rank.needed] = 0.0
            for k, (_, p) in latest.items():
                rank.fold(z, k, p)
            z_dirty = True
        stopped = yield from detector.update(local_flag)
    return rank.outcome(ctx, it, piece, stopped, detector.messages_sent)


def run_asynchronous(
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
    """Run the asynchronous algorithm; returns a :class:`SolveResult`.

    ``stopping.consecutive`` defaults to 3 here (a single small local diff
    against stale data is not evidence of convergence).  ``cache`` enables
    factorization reuse across runs (counters land on ``cache_stats``).
    ``executor`` (:mod:`repro.runtime`) parallelises the real setup
    factorization across blocks; the backend name and per-block solve
    wall-clock land on the result's ``backend`` / ``block_seconds``.
    ``placement`` (:class:`repro.schedule.Placement`) maps each rank onto
    the plan's worker's host; its summary (with the actual ``hosts``)
    lands on the result's ``placement``.

    ``b`` may be one right-hand side ``(n,)`` or a batch ``(n, k)``,
    matching :func:`repro.core.sync.run_synchronous`: every exchange
    then carries an ``(m, k)`` block (bytes scale with ``k``, one
    header per message) and convergence is accounted **per column** --
    the local flag requires every column's diff streak to hold, so one
    settled column can never mask another still moving.
    """
    proc = partial(
        _async_proc,
        stopping=stopping or StoppingCriterion(consecutive=3),
        detection=detection,
        sets=partition.sets,
    )
    return simulate(
        A, b, partition, weighting, solver, cluster, proc, mode="asynchronous",
        x0=x0, cache=cache, executor=executor, placement=placement,
    )
