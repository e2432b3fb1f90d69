"""Fault tolerance: the chaos harness and the recovery policy objects.

The paper's whole premise is running direct-method multisplitting on
*grid* environments -- volatile, heterogeneous nodes where workers slow
down, drop messages, or die mid-computation -- and its asynchronous
variant exists precisely because lost or late updates must not stall
convergence.  The structural slack that makes this cheap is the same one
the runtime exploits everywhere else: per outer iteration every block
solve is an independent pure function of ``(block, z)``, so a lost solve
can simply be *re-run somewhere else* and the iterates cannot tell the
difference.

This module provides the pieces that turn that observation into a tested
subsystem:

* :class:`FaultPolicy` -- the recovery contract a binding is attached
  with (``executor.attach(..., fault_policy=...)``, or ``fault_policy=``
  on the drivers and :class:`~repro.core.solver.MultisplittingSolver`):
  per-block reply deadlines, heartbeat cadence, automatic requeue of a
  dead worker's blocks onto survivors, and optional respawn of owned
  workers.  The real recovery machinery lives in
  :class:`~repro.runtime.ProcessExecutor` and
  :class:`~repro.runtime.SocketExecutor`.
* :class:`FaultStats` -- observable counters (``workers_lost``,
  ``blocks_requeued``, ``respawns``, ``refactor_seconds``, ...) surfaced
  on the run's ``SolveResult.fault_stats`` exactly like the
  factor-cache counters.
* :class:`FaultInjector` / :class:`ChaosExecutor` -- a deterministic
  (seeded) fault-injection wrapper that conforms to the
  :class:`~repro.runtime.api.Executor` contract.  Delays and dropped
  replies are real on any backend.  Crashes and membership churn need
  workers, which only the fleets (processes, sockets) have: their
  workers are actually killed, spawned or retired, and recover through
  the fleet's own machinery.  Over inline or threads the wrapper
  refuses such a schedule at attach.
* :class:`FlakySolver` -- a kernel wrapper that fails scheduled solves,
  for injecting faults below the executor layer (a kernel error on a
  fleet worker, the error seams of the drivers and the gateway).

Determinism: a seeded injector replayed against the same binding
produces the same fault schedule, hence the same ``workers_lost`` /
``blocks_requeued`` / ``replies_dropped`` counters -- and, because a
block solve is deterministic, *synchronous iterates stay bit-identical
to the fault-free run* (asserted by the conformance suite).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.direct.base import DirectSolver, Factorization
from repro.runtime.api import Executor

__all__ = [
    "ChaosExecutor",
    "CrashOnceSolver",
    "FaultEvent",
    "FaultInjector",
    "FaultPolicy",
    "FaultStats",
    "FlakySolver",
    "InjectedFault",
    "StallOnceSolver",
    "StragglerSolver",
]


class InjectedFault(RuntimeError):
    """Raised by the chaos harness where a real fault would surface."""


@dataclass
class FaultStats:
    """Observable fault-tolerance counters of one binding.

    Attributes
    ----------
    workers_lost:
        Workers declared dead (crashed, hung past the deadline, or
        injected).
    blocks_requeued:
        Block ownerships reassigned because their worker was lost.  This
        counts *reassignments*, not retried messages, so it is
        deterministic under a seeded fault schedule regardless of how
        far the dead worker got.
    respawns:
        Replacement workers started under ``FaultPolicy(respawn=True)``.
    refactor_seconds:
        Wall-clock spent re-factoring orphaned blocks on their new
        owners (measured where the refactor ran, worker-side).
    delays_injected / replies_dropped:
        Chaos-harness counters: artificial stalls and solve replies
        discarded (and re-requested) by :class:`ChaosExecutor`.
    grow_events / shrink_events:
        Planned membership changes (:meth:`~repro.runtime.fleet.FleetExecutor.grow`
        / :meth:`~repro.runtime.fleet.FleetExecutor.shrink`).  Elastic by
        design, **not** faults: they never flip :attr:`any_faults`.
    blocks_migrated:
        Block ownerships moved by planned migration (shrink re-homing or
        an elastic re-plan's :meth:`~repro.runtime.fleet.FleetExecutor.migrate`)
        -- distinct from ``blocks_requeued``, which counts *fault*
        recovery.
    migration_seconds:
        Wall-clock spent re-factoring migrated blocks on their new
        owners (measured where the refactor ran, worker-side).
    """

    workers_lost: int = 0
    blocks_requeued: int = 0
    respawns: int = 0
    refactor_seconds: float = 0.0
    delays_injected: int = 0
    replies_dropped: int = 0
    grow_events: int = 0
    shrink_events: int = 0
    blocks_migrated: int = 0
    migration_seconds: float = 0.0

    def merge_in(self, delta: "FaultStats | None") -> None:
        """Accumulate another counter set into this one (in place)."""
        if delta is None:
            return
        self.workers_lost += delta.workers_lost
        self.blocks_requeued += delta.blocks_requeued
        self.respawns += delta.respawns
        self.refactor_seconds += delta.refactor_seconds
        self.delays_injected += delta.delays_injected
        self.replies_dropped += delta.replies_dropped
        self.grow_events += delta.grow_events
        self.shrink_events += delta.shrink_events
        self.blocks_migrated += delta.blocks_migrated
        self.migration_seconds += delta.migration_seconds

    def snapshot(self) -> "FaultStats":
        """An independent copy of the current counters."""
        return replace(self)

    @property
    def any_faults(self) -> bool:
        """Whether anything at all went *wrong* (or was injected).

        Planned elasticity (grow/shrink/migration counters) is excluded:
        an elastic re-plan is scheduling, not a fault.
        """
        return bool(
            self.workers_lost
            or self.blocks_requeued
            or self.respawns
            or self.delays_injected
            or self.replies_dropped
        )


@dataclass(frozen=True)
class FaultPolicy:
    """How a binding reacts to worker failure.

    Passing a policy (``attach(..., fault_policy=...)`` or
    ``fault_policy=`` on the drivers / facade) switches the process and
    socket backends from fail-fast (a dead worker raises) to recovery:
    orphaned block solves are requeued onto surviving workers (their
    factors re-derived there, through the worker's cache) and the run
    continues with bit-identical iterates.

    Attributes
    ----------
    deadline:
        Reply deadline in seconds, *per block*.  A fleet round is one
        solve frame and one reply per worker, so a reply proves life
        once per batch: a worker owing ``m`` blocks is declared lost
        (killed if owned) once ``m x deadline`` has passed since its
        last proof of life -- its dispatch or its latest reply -- and
        its whole batch is requeued (processes: the reply loop's sweep;
        sockets: the absolute receive deadline of the batch's reply).
        This is what turns a *hung or silently dropped* reply into a
        recoverable fault rather than a stall.  ``None`` keeps the
        backend's long protocol timeout (dead workers are still
        detected via the heartbeat/connection check, just not slow
        ones).
    heartbeat_interval:
        Cadence of the driver's liveness polls while waiting on replies
        (process backend; the socket backend's TCP errors are
        immediate).
    respawn:
        Spawn a replacement for each lost *owned* worker (worker
        processes the executor started itself) instead of packing its
        blocks onto the survivors.  External socket fleets
        (``addresses=``) cannot be respawned and always fall back to
        requeue-on-survivors.
    max_worker_losses:
        Abort (raise) once this many workers have been lost in one
        binding; ``None`` tolerates any number while at least one
        worker survives.
    """

    deadline: float | None = None
    heartbeat_interval: float = 0.2
    respawn: bool = False
    max_worker_losses: int | None = None

    def __post_init__(self) -> None:
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive (or None)")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.max_worker_losses is not None and self.max_worker_losses < 0:
            raise ValueError("max_worker_losses must be non-negative")


def reassign_orphans(
    orphans: Sequence[int],
    owner: dict[int, int],
    live: Sequence[int],
    *,
    candidates_for: Callable[[int], Sequence[int]] | None = None,
) -> dict[int, int]:
    """The requeue rule every backend shares: least-loaded, lowest rank.

    Returns the new owner for each orphaned block, assigning in block
    order against a running load count (so a burst of orphans spreads
    over the survivors instead of piling onto one).  ``candidates_for``
    narrows the candidate ranks per block (the fleet backends prefer
    the dead worker's co-location group).  This single definition is
    what makes the recovery counters -- and the conformance suite's
    exact cross-backend asserts -- deterministic: crash recovery and
    planned shrinks route through the same rule.
    """
    live = list(live)
    if not live:
        raise RuntimeError("no live workers left; nothing to requeue onto")
    load = {w: 0 for w in live}
    for w in owner.values():
        if w in load:
            load[w] += 1
    out: dict[int, int] = {}
    for l in orphans:
        candidates = candidates_for(l) if candidates_for is not None else live
        w = min(candidates, key=lambda r: (load[r], r))
        out[l] = w
        load[w] += 1
    return out


# ---------------------------------------------------------------------------
# deterministic fault schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault or churn event (also the injector's log record)."""

    kind: str  #: ``"crash"`` | ``"delay"`` | ``"drop"`` | ``"grow"`` | ``"shrink"``
    round: int
    worker: int | None = None
    block: int | None = None
    seconds: float = 0.0


class FaultInjector:
    """Seeded, replayable schedule of crashes, delays, and drops.

    Faults fire per solve round, either on an explicit round list
    (``crash_rounds=(2,)``: kill one worker when round 2 is dispatched)
    or stochastically (``crash_rate=0.05``: 5% of rounds).  Victim
    workers and blocks are drawn from the seeded generator, so the same
    seed against the same binding replays the same schedule --
    :meth:`reset` (called by :class:`ChaosExecutor` at every attach)
    rewinds the generator, and :attr:`log` records every event actually
    injected for tests to assert against.

    A crash is never scheduled against the *last* live worker: without a
    survivor (or a respawn policy, which the injector cannot see) the
    binding would be unrecoverable by construction rather than by bad
    luck.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        crash_rounds: Sequence[int] = (),
        delay_rounds: Sequence[int] = (),
        drop_rounds: Sequence[int] = (),
        grow_rounds: Sequence[int] = (),
        shrink_rounds: Sequence[int] = (),
        crash_rate: float = 0.0,
        delay_rate: float = 0.0,
        drop_rate: float = 0.0,
        delay_seconds: float = 0.005,
        max_crashes: int = 1,
    ):
        for name, rate in (
            ("crash_rate", crash_rate),
            ("delay_rate", delay_rate),
            ("drop_rate", drop_rate),
        ):
            if not (0.0 <= rate <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1]")
        if delay_seconds < 0:
            raise ValueError("delay_seconds must be non-negative")
        if max_crashes < 0:
            raise ValueError("max_crashes must be non-negative")
        self.seed = seed
        self.crash_rounds = frozenset(int(r) for r in crash_rounds)
        self.delay_rounds = frozenset(int(r) for r in delay_rounds)
        self.drop_rounds = frozenset(int(r) for r in drop_rounds)
        self.grow_rounds = frozenset(int(r) for r in grow_rounds)
        self.shrink_rounds = frozenset(int(r) for r in shrink_rounds)
        self.crash_rate = crash_rate
        self.delay_rate = delay_rate
        self.drop_rate = drop_rate
        self.delay_seconds = delay_seconds
        self.max_crashes = max_crashes
        self.log: list[FaultEvent] = []
        self.reset()

    def reset(self) -> None:
        """Rewind the schedule (fresh generator, empty log)."""
        self._rng = np.random.default_rng(self.seed)
        self._crashes = 0
        self.log = []

    def crashes_injected(self) -> int:
        """Crash events injected since the last :meth:`reset`."""
        return self._crashes

    def changes_membership(self) -> bool:
        """Whether the schedule can crash, add or retire a worker.

        Such a schedule needs a fleet; delays and drops do not.
        """
        crashes = bool(self.crash_rounds or self.crash_rate) and self.max_crashes > 0
        return crashes or bool(self.grow_rounds or self.shrink_rounds)

    def events_for(
        self, round_index: int, live_workers: Sequence[int], blocks: Sequence[int]
    ) -> list[FaultEvent]:
        """Faults to inject while dispatching this solve round.

        ``live_workers`` are the ranks a crash may target;
        ``blocks`` the round's block ids a delay/drop may target.
        """
        events: list[FaultEvent] = []
        if (
            (round_index in self.crash_rounds
             or (self.crash_rate and self._rng.random() < self.crash_rate))
            and self._crashes < self.max_crashes
            and len(live_workers) > 1
        ):
            victim = live_workers[int(self._rng.integers(len(live_workers)))]
            events.append(FaultEvent("crash", round_index, worker=victim))
            self._crashes += 1
        if blocks and (
            round_index in self.delay_rounds
            or (self.delay_rate and self._rng.random() < self.delay_rate)
        ):
            block = blocks[int(self._rng.integers(len(blocks)))]
            events.append(
                FaultEvent(
                    "delay", round_index, block=block, seconds=self.delay_seconds
                )
            )
        if blocks and (
            round_index in self.drop_rounds
            or (self.drop_rate and self._rng.random() < self.drop_rate)
        ):
            block = blocks[int(self._rng.integers(len(blocks)))]
            events.append(FaultEvent("drop", round_index, block=block))
        # Membership churn (explicit rounds only: churn is a scenario
        # shape, not a stochastic background).  A shrink never targets
        # the last live worker -- the fleet must stay solvable.
        if round_index in self.grow_rounds:
            events.append(FaultEvent("grow", round_index))
        if round_index in self.shrink_rounds and len(live_workers) > 1:
            victim = live_workers[int(self._rng.integers(len(live_workers)))]
            events.append(FaultEvent("shrink", round_index, worker=victim))
        self.log.extend(events)
        return events


# ---------------------------------------------------------------------------
# the chaos wrapper
# ---------------------------------------------------------------------------


def has_fleet(executor) -> bool:
    """Whether ``executor`` runs its blocks on a fleet's workers.

    True for the fleets (processes, sockets) and a :class:`ChaosExecutor`
    over one; False for inline, threads and any other wrapper.  Worker
    membership -- crash and churn injection, elastic re-planning -- is a
    fleet's alone.
    """
    from repro.runtime.fleet import FleetExecutor  # fleet imports this module

    if isinstance(executor, ChaosExecutor):
        executor = executor.inner
    return isinstance(executor, FleetExecutor)


class ChaosExecutor(Executor):
    """Inject a :class:`FaultInjector` schedule into any backend.

    Conforms to the full :class:`~repro.runtime.api.Executor` contract,
    so it drops into ``executor=`` anywhere an executor goes.  Per solve
    round it asks the injector which faults fire:

    * **crash** -- the victim worker is actually killed before the round
      is dispatched, and the fleet's own :class:`FaultPolicy` recovery
      requeues its blocks;
    * **grow** / **shrink** -- the fleet spawns a worker or retires the
      victim: planned churn, counted as such and never as a fault;
    * **delay** -- a bounded artificial stall before dispatch;
    * **drop** -- one block's reply is discarded and re-requested, the
      "lost message" of the paper's asynchronous setting.

    Crashes and churn need workers, which only the fleets (processes,
    sockets) have: over any other backend :meth:`attach` raises
    ``ValueError`` for a schedule that can crash, grow or shrink, before
    anything is factored.  Delays and drops run on every backend.  The
    counters are a function of the seeded schedule alone.  An attach
    without a ``fault_policy`` gets a plain :class:`FaultPolicy`.

    ``fault_stats()`` merges the wrapper's own counters with the inner
    backend's, so the drivers see one coherent record.  The membership
    verbs forward to the fleet.  ``close()`` closes the wrapped backend
    (the wrapper owns the handle it is given).
    """

    def __init__(self, inner: Executor, injector: FaultInjector | None = None):
        self.inner = inner
        self.injector = injector if injector is not None else FaultInjector()
        self.name = f"chaos:{inner.name}"
        self._round = 0
        self._fault = FaultStats()
        self._fleet = has_fleet(inner)

    # -- binding ---------------------------------------------------------
    def attach(
        self, A, b, sets, solver, *, cache=None, placement=None, fault_policy=None
    ) -> None:
        if self.injector.changes_membership() and not self._fleet:
            raise ValueError(
                f"the {self.inner.name!r} backend has no workers to crash, grow "
                "or shrink: those faults need a fleet (processes, sockets); "
                "delays and drops run on any backend"
            )
        # Injecting faults without a recovery contract would just crash
        # the run; default to plain requeue-on-survivors.
        policy = fault_policy if fault_policy is not None else FaultPolicy()
        self.inner.attach(
            A, b, sets, solver, cache=cache, placement=placement, fault_policy=policy
        )
        self._round = 0
        self._fault = FaultStats()
        self.injector.reset()

    def detach(self) -> None:
        self.inner.detach()

    # -- fault application ----------------------------------------------
    def solve_blocks(
        self, tasks: Sequence[tuple[int, np.ndarray]]
    ) -> list[np.ndarray]:
        self._round += 1
        blocks = [l for l, _ in tasks]
        live = self.inner.alive_workers() if self._fleet else []
        events = self.injector.events_for(self._round, live, blocks)
        tracer = self._tracer
        for ev in events:
            if ev.kind == "delay":
                if tracer is not None:
                    tracer.add(
                        "chaos.delay", "fault", tracer.now(), ev.seconds,
                        lane="driver", round=self._round, block=ev.block,
                    )
                time.sleep(ev.seconds)
                self._fault.delays_injected += 1
        for ev in events:
            if ev.kind == "crash":
                if tracer is not None:
                    tracer.event(
                        "chaos.crash", cat="fault", lane="driver",
                        round=self._round, worker=ev.worker,
                    )
                self.inner.kill_worker(ev.worker)
            elif ev.kind == "grow":
                if tracer is not None:
                    tracer.event(
                        "chaos.grow", cat="elastic", lane="driver",
                        round=self._round,
                    )
                self.grow(1)
            elif ev.kind == "shrink":
                if tracer is not None:
                    tracer.event(
                        "chaos.shrink", cat="elastic", lane="driver",
                        round=self._round, worker=ev.worker,
                    )
                self.shrink([ev.worker])
        pieces = list(self.inner.solve_blocks(tasks))
        index_of = {l: i for i, (l, _) in enumerate(tasks)}
        for ev in events:
            if ev.kind == "drop" and ev.block in index_of:
                if tracer is not None:
                    tracer.event(
                        "chaos.drop", cat="fault", lane="driver",
                        round=self._round, block=ev.block,
                    )
                i = index_of[ev.block]
                pieces[i] = self.inner.solve_blocks([tasks[i]])[0]
                self._fault.replies_dropped += 1
        return pieces

    def map(self, fn: Callable, items: Iterable) -> list:
        return self.inner.map(fn, items)

    # -- observability ---------------------------------------------------
    def set_tracer(self, tracer) -> None:
        # The wrapper records its injection events; the real spans come
        # from the wrapped backend, so the tracer is shared with it.
        self._tracer = tracer
        self.inner.set_tracer(tracer)

    def wire_stats(self) -> dict:
        return self.inner.wire_stats()

    def block_seconds(self) -> dict[int, float]:
        return self.inner.block_seconds()

    def run_cache_stats(self):
        return self.inner.run_cache_stats()

    def fault_stats(self) -> FaultStats:
        merged = self._fault.snapshot()
        merged.merge_in(self.inner.fault_stats())
        return merged

    # -- worker membership (a fleet's; see has_fleet) ---------------------
    def membership_version(self) -> int:
        return self.inner.membership_version()

    def grow(self, workers=1) -> list[int]:
        return self.inner.grow(workers)

    def shrink(self, workers) -> list[int]:
        return self.inner.shrink(workers)

    def migrate(self, assignment: dict) -> int:
        return self.inner.migrate(assignment)

    def alive_workers(self) -> list[int]:
        return self.inner.alive_workers()

    def owner_map(self) -> dict:
        return self.inner.owner_map()

    @property
    def nblocks(self) -> int:
        return self.inner.nblocks

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        self.inner.close()


# ---------------------------------------------------------------------------
# sub-executor fault injection: a kernel that fails on schedule
# ---------------------------------------------------------------------------


class _HookedFactorization(Factorization):
    """A kernel's factors with ``hook()`` called before every solve.

    Everything else is delegated, ``stats`` included: it reads through
    on request, so wrapping a factor never computes its statistics
    (those of a SciPy factor pull ``L`` and ``U``, holding it twice).
    """

    def __init__(self, inner: Factorization, hook: Callable[[], None]):
        self._inner = inner
        self._hook = hook

    @property
    def stats(self):
        return self._inner.stats

    def solve(self, b: np.ndarray) -> np.ndarray:
        self._hook()
        return self._inner.solve(b)

    def solve_many(self, B: np.ndarray) -> np.ndarray:
        self._hook()
        return self._inner.solve_many(B)


class FlakySolver(DirectSolver):
    """Wrap a kernel so chosen solve calls raise :class:`InjectedFault`.

    Injects faults *below* the executor layer -- where a numerical
    library error would strike -- which is how a kernel fault on a fleet
    worker (one error frame, never a worker loss) and the error seams of
    the drivers and the gateway are exercised.  ``fail_solves`` names
    the 1-based global solve-call numbers that fail (counted across all
    factors of this wrapper, under a lock).
    """

    name = "flaky"

    def __init__(self, inner: DirectSolver, *, fail_solves: Sequence[int] = ()):
        self.inner = inner
        self.fail_solves = frozenset(int(s) for s in fail_solves)
        self._lock = threading.Lock()
        self._calls = 0

    def __getstate__(self):
        # Shippable to worker processes: the lock is process-local state.
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def _maybe_fail(self) -> None:
        with self._lock:
            self._calls += 1
            call = self._calls
        if call in self.fail_solves:
            raise InjectedFault(f"injected kernel failure on solve call {call}")

    def factor(self, A) -> Factorization:
        return _HookedFactorization(self.inner.factor(A), self._maybe_fail)


class CrashOnceSolver(DirectSolver):
    """Wrap a kernel so one ``factor`` call hard-kills its hosting process.

    The *attach-phase* chaos knob: SIGKILL-grade loss (``os._exit``, no
    goodbye frame, no cleanup) landing exactly while a worker factors
    its binding -- the window the transactional-attach recovery must
    cover.  Exactly one process across the fleet dies: the first
    eligible ``factor`` call claims an atomic sentinel file
    (``O_CREAT | O_EXCL``) and exits; every later call -- the respawned
    replacement or the adopting survivor re-factoring the orphaned
    block -- sees the sentinel and proceeds normally, so the recovered
    run completes.

    The constructing process's pid is recorded and never killed, so
    driver-side factorization paths (inline and thread backends,
    reference runs) are immune.
    """

    name = "crash-once"

    def __init__(self, inner: DirectSolver, sentinel_path):
        self.inner = inner
        self.sentinel_path = str(sentinel_path)
        self._owner_pid = os.getpid()

    def factor(self, A) -> Factorization:
        if os.getpid() != self._owner_pid:
            try:
                fd = os.open(
                    self.sentinel_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
            except FileExistsError:
                pass  # somebody already died here; factor normally
            else:
                os.close(fd)
                os._exit(1)
        return self.inner.factor(A)


class StallOnceSolver(DirectSolver):
    """Wrap a kernel so exactly one solve call fleet-wide stalls.

    The hung-not-dead knob for *recovery* tests: unlike
    :class:`StragglerSolver` (whose call counter is per process, so an
    adopting survivor re-solving the orphaned block hits call 1 again
    and stalls in cascade), the stall is claimed through an atomic
    sentinel file (``O_CREAT | O_EXCL``, the :class:`CrashOnceSolver`
    idiom) -- the first eligible solve anywhere sleeps ``seconds``,
    every later one (the re-dispatched solve on the adopter included)
    runs normally, so the recovered run completes.  Wrap just one
    block's solver to hang exactly that block.

    The constructing process's pid is recorded and never stalled,
    keeping driver-side reference solves immune.
    """

    name = "stall-once"

    def __init__(self, inner: DirectSolver, sentinel_path, *, seconds: float = 5.0):
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        self.inner = inner
        self.sentinel_path = str(sentinel_path)
        self.seconds = seconds
        self._owner_pid = os.getpid()

    def _maybe_stall(self) -> None:
        if os.getpid() == self._owner_pid:
            return
        try:
            fd = os.open(self.sentinel_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return  # somebody already hung here; solve normally
        os.close(fd)
        time.sleep(self.seconds)

    def factor(self, A) -> Factorization:
        return _HookedFactorization(self.inner.factor(A), self._maybe_stall)


class StragglerSolver(DirectSolver):
    """Wrap a kernel so chosen solve calls *stall* for ``seconds``.

    The hung-not-dead failure mode: the worker process stays alive but a
    solve takes pathologically long (swap storm, overheated node, a
    BLAS call wedged on a NUMA migration).  Only a
    :class:`FaultPolicy` ``deadline`` can turn this into a recoverable
    fault -- which is exactly what the deadline tests use it for.  Calls
    are counted per process (each runtime worker counts its own), and
    the 1-based numbers in ``slow_calls`` sleep ``seconds`` before
    solving.
    """

    name = "straggler"

    def __init__(
        self,
        inner: DirectSolver,
        *,
        seconds: float = 1.0,
        slow_calls: Sequence[int] = (),
    ):
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        self.inner = inner
        self.seconds = seconds
        self.slow_calls = frozenset(int(s) for s in slow_calls)
        self._lock = threading.Lock()
        self._calls = 0

    def _maybe_stall(self) -> None:
        with self._lock:
            self._calls += 1
            stall = self._calls in self.slow_calls
        if stall:
            time.sleep(self.seconds)

    def __getstate__(self):
        # Shippable to worker processes: the lock is process-local state.
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def factor(self, A) -> Factorization:
        return _HookedFactorization(self.inner.factor(A), self._maybe_stall)
