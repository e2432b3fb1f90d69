"""Genuinely asynchronous multisplitting on worker threads.

Where :func:`repro.core.sequential.chaotic_iterate` *emulates* an
asynchronous execution (deterministic schedule, seeded delays) and
:func:`repro.core.asynchronous.run_asynchronous` *simulates* one on the
grid event engine, this driver actually runs one: each block gets a
free-running worker thread that

1. reads its dependencies' latest published pieces from
   :class:`~repro.runtime.seqlock.VersionedVector` slots -- wait-free,
   possibly stale, never torn;
2. re-solves its factored band system whenever anything it read has
   changed since its last solve (an unchanged input would reproduce the
   piece bit-for-bit -- a direct solve is deterministic -- so those
   no-op solves are skipped, mirroring the chaotic driver's reasoning);
3. publishes the new piece iff it differs from the previous one, which
   is what lets the whole system go quiet at the fixed point.

Nobody ever blocks on anybody -- the Bertsekas & Tsitsiklis model with
staleness bounded by thread-scheduling latency rather than by a seeded
ring buffer.  Convergence is monitored from the outside: the driver
thread periodically assembles the core iterate and stops everyone once
the **true residual** satisfies ``||b - A x||_inf <= tol * max(1,
||A||_inf)`` -- the same scale-invariant soundness rule the chaotic
driver uses, so a quiet-but-wrong state can never report convergence.

The fold, the core-iterate assembly, the residual threshold and the
result come from the same :class:`~repro.core.session.RunSession` the
round-based schedules run on; only the thread supervisor is this
driver's own.  The result's ``history`` holds the sampled residuals.  Iterate *paths* are
scheduling-dependent (that is the point), but every run under Theorem
1's asynchronous condition converges to the same solution; the
regression tests assert cross-backend agreement within tolerance.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.core.partition import GeneralPartition
from repro.core.result import SolveResult
from repro.core.session import RunSession
from repro.core.stopping import StoppingCriterion
from repro.core.weighting import WeightingScheme
from repro.direct.base import DirectSolver
from repro.direct.cache import FactorizationCache
from repro.linalg.norms import residual_norm
from repro.runtime.inline import InlineExecutor
from repro.runtime.resilience import FaultStats
from repro.runtime.seqlock import VersionedVector

__all__ = ["async_iterate"]

#: Consecutive failures (no successful solve in between) after which a
#: block is declared permanently broken and the run aborts with the
#: original error -- otherwise a deterministic kernel fault (e.g. a
#: singular sub-block) would respawn-and-fail in a tight loop forever.
_MAX_CONSECUTIVE_FAILURES = 3


def async_iterate(
    A,
    b: np.ndarray,
    partition: GeneralPartition,
    weighting: WeightingScheme,
    solver: DirectSolver,
    *,
    stopping: StoppingCriterion | None = None,
    x0: np.ndarray | None = None,
    cache: FactorizationCache | None = None,
    poll_interval: float = 1e-4,
    monitor_interval: float = 1e-3,
    quiescence_timeout: float = 0.5,
    fault_policy=None,
    trace=None,
) -> SolveResult:
    """Solve ``A x = b`` with one free-running thread per block.

    Parameters
    ----------
    stopping:
        ``tolerance`` bounds the final true residual (scaled by
        ``max(1, ||A||_inf)``); ``max_iterations`` caps each thread's
        local solve count.  Defaults to the asynchronous default
        (``consecutive=3`` is irrelevant here -- the monitor checks the
        true residual directly).
    poll_interval:
        Sleep between dependency polls once a thread's inputs are quiet.
    monitor_interval:
        Sleep between the driver's residual samples.
    quiescence_timeout:
        Backstop for an *unreachable* tolerance: when no thread has
        solved or published anything for this many seconds (the system
        reached a bitwise fixed point whose residual still exceeds the
        threshold), the driver stops with ``converged=False`` instead of
        idling forever.
    cache:
        Shared (thread-safe) factorization cache; blocks factor once and
        concurrently during setup.
    fault_policy:
        Optional :class:`repro.runtime.resilience.FaultPolicy`.  Without
        one, a block thread dying (kernel failure, injected fault)
        aborts the whole run; with one, the dead thread is *respawned*
        and resumes from the latest published pieces -- exactly the
        slack the asynchronous model guarantees (a restarted processor
        is indistinguishable from a very stale one).  Each death counts
        on the result's ``fault_stats`` (``workers_lost``; the respawn
        as ``respawns``), and ``max_worker_losses`` bounds the total
        before the run aborts with the original error.  A block that
        fails repeatedly with *no successful solve in between* is a
        permanent fault, not a transient: after 3 consecutive failures
        the run aborts regardless of the budget (respawning into the
        same wall forever would otherwise hang the run).
    trace:
        ``True`` or a :class:`repro.observe.Tracer` records the run's
        timeline: per-block ``solve`` spans and ``publish`` events on
        ``block-N`` lanes, monitor residual samples, and respawn fault
        events.  Purely observational -- the iterate path is whatever
        the scheduler produced either way.
    """
    stopping = stopping or StoppingCriterion(consecutive=3)
    if np.ndim(b) != 1:
        raise ValueError(
            "async_iterate solves one right-hand side; use "
            "multisplitting_iterate for batched (n, k) blocks"
        )
    # The block threads solve straight off an inline binding's systems:
    # the session factors them (through ``cache``) at attach.
    with RunSession(
        A, b, partition, weighting, solver, stopping=stopping, x0=x0,
        cache=cache, executor=InlineExecutor(), trace=trace,
    ) as run:
        return _free_run(
            run, poll_interval, monitor_interval, quiescence_timeout, fault_policy
        )


def _free_run(
    run: RunSession, poll_interval, monitor_interval, quiescence_timeout, fault_policy
) -> SolveResult:
    """One free-running thread per block, monitored from this thread."""
    A, b, tracer, stopping = run.A, run.b, run.tracer, run.stopping
    L = run.nblocks
    systems = run.ex.systems
    slots = [VersionedVector(run.z0[J]) for J in run.partition.sets]
    stop_event = threading.Event()
    counts = [0] * L
    solving = [False] * L
    errors: list[BaseException] = []
    fault = FaultStats()
    fault_lock = threading.Lock()
    residual_tolerance = run.residual_threshold()

    def worker(l: int) -> None:
        it = 0
        consecutive_failures = 0
        seen: dict[int, int] = {}  # version of each piece the last fold read

        def latest(k: int) -> np.ndarray:
            piece_k, seen[k] = slots[k].read()
            return piece_k

        while True:  # supervisor: one lap per (re)spawned incarnation
            last_seen: dict[int, int] = {}
            prev_piece: np.ndarray | None = None
            try:
                while not stop_event.is_set() and it < stopping.max_iterations:
                    z = run.fold(l, latest)
                    if seen == last_seen and prev_piece is not None:
                        # Identical inputs reproduce the piece bit-for-bit;
                        # skip the no-op solve and poll again.
                        time.sleep(poll_interval)
                        continue
                    last_seen = dict(seen)
                    solving[l] = True
                    t0 = time.perf_counter()
                    try:
                        piece = systems[l].solve_with(z)
                    finally:
                        solving[l] = False
                    if tracer is not None:
                        tracer.add(
                            "solve", "compute", t0,
                            time.perf_counter() - t0,
                            lane=f"block-{l}", block=l, local_it=it,
                        )
                    consecutive_failures = 0
                    it += 1
                    counts[l] = it
                    if prev_piece is None or not np.array_equal(piece, prev_piece):
                        slots[l].write(piece)
                        if tracer is not None:
                            tracer.event(
                                "publish", lane=f"block-{l}",
                                block=l, version=slots[l].version,
                            )
                        prev_piece = piece
                    # An unchanged piece is not re-published: at the fixed
                    # point every thread stops publishing and the system
                    # goes globally quiet.
                counts[l] = it
                return
            except BaseException as exc:
                counts[l] = it
                consecutive_failures += 1
                with fault_lock:
                    fault.workers_lost += 1
                    losses = fault.workers_lost
                if tracer is not None:
                    tracer.event(
                        "worker.lost", cat="fault", lane=f"block-{l}", block=l,
                    )
                if fault_policy is None or (
                    fault_policy.max_worker_losses is not None
                    and losses > fault_policy.max_worker_losses
                ) or consecutive_failures >= _MAX_CONSECUTIVE_FAILURES:
                    # No recovery contract, budget exhausted, or a
                    # *permanent* fault (it fails every time, with no
                    # successful solve in between): surface the error
                    # instead of respawning into the same wall.
                    errors.append(exc)
                    stop_event.set()
                    return
                # Respawn: restart the block from the latest *published*
                # pieces.  A restarted processor is indistinguishable
                # from a very stale one, which is exactly the slack the
                # asynchronous convergence theory grants.  The short
                # sleep keeps a fast-failing block from spinning a core.
                with fault_lock:
                    fault.respawns += 1
                    fault.blocks_requeued += 1
                if tracer is not None:
                    tracer.event(
                        "respawn", cat="fault", lane=f"block-{l}", block=l,
                    )
                time.sleep(poll_interval)
                continue

    def published() -> np.ndarray:
        return run.assemble([slot.read()[0] for slot in slots])

    threads = [
        threading.Thread(target=worker, args=(l,), name=f"repro-async-{l}")
        for l in range(L)
    ]
    for t in threads:
        t.start()

    history = run.history
    converged = False
    quiet_state: tuple | None = None
    quiet_since = 0.0
    try:
        while True:
            value = residual_norm(A, published(), b)
            history.append(value)
            if tracer is not None:
                tracer.event(
                    "monitor.sample", cat="round", lane="driver",
                    sample=len(history) - 1, residual=value,
                )
            if value <= residual_tolerance:
                converged = True
                break
            if errors or all(not t.is_alive() for t in threads):
                break
            # Quiescence backstop: every thread idle (no new solves, no
            # new publications) means the system sits at a bitwise fixed
            # point the tolerance cannot certify -- stop rather than
            # idle-poll forever.  A solve in progress always bumps
            # counts[l] on completion, which resets the timer.
            state = (tuple(s.version for s in slots), tuple(counts))
            now = time.monotonic()
            if state != quiet_state or any(solving):
                quiet_state = state
                quiet_since = now
            elif now - quiet_since >= quiescence_timeout:
                break
            time.sleep(monitor_interval)
    finally:
        stop_event.set()
        for t in threads:
            t.join()
    if errors:
        raise errors[0]
    return run.result(
        converged,
        x=published(),
        iterations=max(counts) if counts else 0,
        fault_stats=fault if (fault_policy is not None or fault.any_faults) else None,
        backend="threads",
        block_seconds={},
    )
