"""In-process reference implementation of the multisplitting iteration.

This module runs the *mathematics* of the method without the grid
simulator: a driver loop over the extended fixed-point mapping (2)-(3).
It serves three purposes:

* ground truth for the distributed solvers (same iterates, no timing);
* a fast path for users who want the numerical method on one machine;
* the *chaotic* variant (:func:`chaotic_iterate`) emulates asynchronous
  executions with bounded delays and partial updates, letting property
  tests exercise Theorem 1's asynchronous branch deterministically.

Both drivers accept a :class:`repro.direct.cache.FactorizationCache` so
each sub-block is factored exactly once per (matrix, splitting) and the
factors are reused across every outer iteration -- and, when the cache is
shared, across repeated runs and Newton steps.  ``b`` may also be a batch
``(n, k)`` of right-hand sides: every processor then solves all its local
RHS columns in one vectorized multi-RHS call instead of the driver being
re-run column by column.

Both drivers also accept an ``executor`` (:mod:`repro.runtime`): the
per-iteration block solves run wherever the backend puts them -- the
calling thread (inline, the default), a thread pool, or worker processes
exchanging vectors through shared memory.  The iterates are the same
either way: a block solve is a pure function of ``(block, z)`` and the
executor contract returns results in request order, so the synchronous
driver is bit-identical across backends and the chaotic driver keeps its
seeded schedule.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

import numpy as np

from repro.core.partition import GeneralPartition
from repro.core.result import SolveResult
from repro.core.session import RunSession
from repro.core.stopping import StoppingCriterion
from repro.core.weighting import WeightingScheme
from repro.direct.base import DirectSolver
from repro.direct.cache import FactorizationCache
from repro.linalg.norms import residual_norm

__all__ = ["multisplitting_iterate", "chaotic_iterate"]


def _barrier_rounds(run: RunSession) -> SolveResult:
    """The paper's synchronous mode verbatim: every round waits for all blocks."""
    Z = [run.z0] * run.nblocks
    for it in range(1, run.stopping.max_iterations + 1):
        pieces = run.round(it, run.ex.solve_round, Z)
        Z = run.fold_round(pieces)
        if run.observe(it, pieces):
            return run.result(True)
        if run.controller is not None:
            # Quiescent boundary: every piece of this round is folded
            # and nothing is in flight, so membership changes
            # (grow/shrink from the callback, a chaos injection, a
            # recovery) are safe to act on now.
            run.controller.maybe_replan(it)
    return run.result(False)


def multisplitting_iterate(
    A,
    b: np.ndarray,
    partition: GeneralPartition,
    weighting: WeightingScheme,
    solver: DirectSolver,
    *,
    stopping: StoppingCriterion | None = None,
    x0: np.ndarray | None = None,
    callback: Callable[[int, np.ndarray], None] | None = None,
    cache: FactorizationCache | None = None,
    executor=None,
    placement=None,
    fault_policy=None,
    trace=None,
    elastic=None,
) -> SolveResult:
    """Run the synchronous multisplitting-direct iteration in-process.

    Implements exactly the mapping (2)-(3): every processor ``l`` keeps a
    local copy ``z^l``, solves its band system, and the copies are
    recombined with the weighting family.  Convergence is monitored on the
    combined core estimate.

    Parameters
    ----------
    b:
        One right-hand side ``(n,)`` or a batch ``(n, k)`` solved
        simultaneously (all columns share the factored sub-blocks and
        the stopping rule monitors the worst column).
    callback:
        Optional observer ``callback(iteration, x_estimate)``.
    cache:
        Optional factorization cache; sub-blocks already present are not
        re-factored, and reuse is counted in the returned ``cache_stats``.
    executor:
        Optional :class:`repro.runtime.Executor` running the per-block
        solves (default: serial inline).  A caller-supplied executor is
        attached/detached but not closed, so its workers are reusable.
    placement:
        Optional :class:`repro.schedule.Placement` pinning blocks to the
        fleet's workers (processes, sockets; the in-process backends
        validate it and ignore it); the plan summary lands on the
        result.  The partition should normally be the plan's own
        (``placement.partition().to_general()``).
    fault_policy:
        Optional :class:`repro.runtime.resilience.FaultPolicy` arming
        mid-solve worker recovery on backends with real workers: a
        worker that dies (or breaches the policy's reply deadline) has
        its blocks requeued onto survivors or a respawned replacement,
        and the run continues bit-identically.  Counters land on
        ``fault_stats``.
    trace:
        ``True`` (record into a fresh :class:`repro.observe.Tracer`) or
        an existing tracer.  Rounds, block solves, factorizations, wire
        transfers, and barrier waits land on one merged timeline
        (worker-side spans included on the distributed backends), and
        the tracer is returned on ``result.trace`` for export.  Tracing
        is observational only: iterates are bit-identical either way.
    elastic:
        ``True`` or a pre-built
        :class:`repro.schedule.ElasticController`: arm the elastic
        re-planning loop.  Once per round, at the quiescent barrier,
        the controller reacts to fleet membership changes (the fleet's
        ``grow`` / ``shrink``, a recovery) by re-balancing the
        block-to-worker assignment and migrating only the moved blocks.
        Partition sizes never change, so iterates stay bit-identical to
        the undisturbed run.  An executor with no fleet (inline,
        threads) runs the plain barrier.  Migration counters
        land on ``fault_stats`` (``grow_events`` / ``shrink_events`` /
        ``blocks_migrated`` / ``migration_seconds``).
    """
    with RunSession(
        A, b, partition, weighting, solver,
        stopping=stopping or StoppingCriterion(), x0=x0, callback=callback,
        cache=cache, executor=executor, placement=placement,
        fault_policy=fault_policy, trace=trace, elastic=elastic,
    ) as run:
        return _barrier_rounds(run)


def chaotic_iterate(
    A,
    b: np.ndarray,
    partition: GeneralPartition,
    weighting: WeightingScheme,
    solver: DirectSolver,
    *,
    stopping: StoppingCriterion | None = None,
    max_delay: int = 3,
    update_probability: float = 0.7,
    seed: int = 0,
    x0: np.ndarray | None = None,
    cache: FactorizationCache | None = None,
    executor=None,
    placement=None,
    fault_policy=None,
    trace=None,
    elastic=None,
) -> SolveResult:
    """Emulate an asynchronous execution with bounded delays.

    Per global step, each processor updates with probability
    ``update_probability`` (skipped processors keep their old piece --
    "each processor freely iterates"), and reads dependency values that are
    up to ``max_delay`` steps stale.  Under Theorem 1's asynchronous
    condition (``rho(|M_l^{-1} N_l|) < 1``) every such schedule converges;
    tests sweep seeds to exercise many interleavings.

    The schedule keeps the totality assumption of asynchronous iteration
    theory: every processor updates infinitely often (at least once every
    ``ceil(1/update_probability) * 4`` steps, enforced explicitly).

    The diff monitor alone is unsound under stale reads: a processor that
    re-solves against *unchanged* stale data reproduces its piece
    bit-for-bit, so a streak of tiny (even exactly zero) diffs can occur
    while the true error is orders of magnitude above the tolerance.
    Because this in-process emulation has ``A`` and ``b`` at hand, every
    candidate stop is therefore *verified* against the true residual,
    ``||b - A x||_inf <= tolerance * max(1, ||A||_inf)``, before
    ``converged`` is reported -- scale-invariant (near the fixed point
    ``||r|| <= ||A|| ||x - x*||``), so the flag means what the tolerance
    says regardless of how ``A`` is scaled.  (The distributed solvers
    achieve the same soundness through their detection protocols'
    verification rounds.)

    ``executor`` parallelises each step's *selected* block solves (the
    seeded schedule itself stays in the driver, so the emulation remains
    deterministic for a given seed on every backend).  The grid
    simulator's :func:`repro.core.asynchronous.run_asynchronous` is the
    timed counterpart, where asynchrony hides communication latency.

    ``elastic`` arms the same per-step elastic re-planning loop as
    :func:`multisplitting_iterate`: each global step is a quiescent
    point (the selected solves are a closed barrier batch), so
    membership changes migrate blocks between steps without touching
    the seeded schedule or the iterates.
    """
    if not (0.0 < update_probability <= 1.0):
        raise ValueError("update_probability must lie in (0, 1]")
    if max_delay < 0:
        raise ValueError("max_delay must be non-negative")
    rng = np.random.default_rng(seed)
    # The monitor is always the iterate diff here; the residual enters
    # as the verification of candidate stops.
    stopping = replace(stopping or StoppingCriterion(consecutive=3), metric="diff")
    with RunSession(
        A, b, partition, weighting, solver, stopping=stopping, x0=x0,
        cache=cache, executor=executor, placement=placement,
        fault_policy=fault_policy, trace=trace, elastic=elastic,
    ) as run:
        L = run.nblocks
        # Ring of the last ``max_delay + 1`` steps' pieces for stale
        # reads.  Pieces are copied on arrival (a backend may recycle
        # the buffer it returned) and never written afterwards.
        pieces = [run.z0[J] for J in partition.sets]
        ring = [pieces]
        starve_guard = max(1, int(np.ceil(1 / update_probability))) * 4
        since_update = [0] * L
        # Soundness guard: a small global diff on a step where few processors
        # updated says little.  Convergence additionally requires that *every*
        # processor has updated since the last above-tolerance diff.
        updated_since_bad: set[int] = set()
        residual_tolerance = run.residual_threshold()

        def stale(k: int, reader: int) -> np.ndarray:
            """Block ``k``'s piece at a seeded lag (a block's own: current)."""
            lag = int(rng.integers(0, max_delay + 1)) if k != reader else 0
            return ring[-1 - min(lag, len(ring) - 1)][k]

        for it in range(1, stopping.max_iterations + 1):
            tasks: list[tuple[int, np.ndarray]] = []
            for l in range(L):
                since_update[l] += 1
                if rng.random() > update_probability and since_update[l] < starve_guard:
                    continue
                since_update[l] = 0
                tasks.append((l, run.fold(l, lambda k: stale(k, l))))
            solved = run.round(it, run.ex.solve_blocks, tasks, updated=len(tasks))
            pieces = list(pieces)
            for (l, _), piece in zip(tasks, solved):
                pieces[l] = piece.copy()
            ring.append(pieces)
            if len(ring) > max_delay + 1:
                ring.pop(0)
            quiet = run.observe(it, pieces)
            if run.state.streak == 0:
                updated_since_bad.clear()
            else:
                updated_since_bad.update(l for l, _ in tasks)
            if quiet and len(updated_since_bad) == L:
                # Candidate stop: verify against the true residual so stale
                # no-op re-solves can never fake convergence.
                if residual_norm(A, run.x, run.b) <= residual_tolerance:
                    return run.result(True)
                run.state.reset()
                updated_since_bad.clear()
            if run.controller is not None:
                # Each step's batch is closed before the next begins, so
                # the step boundary is quiescent for migration purposes.
                run.controller.maybe_replan(it)
        return run.result(False)
