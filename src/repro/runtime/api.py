"""The :class:`Executor` contract: where sub-block solves actually run.

The multisplitting method is embarrassingly coarse-grained: per outer
iteration every processor solves its own factored band system against its
own local copy of the iterate, and the only coupling is the exchange of
sub-solution pieces.  The drivers in :mod:`repro.core` therefore never
need to know *where* those solves execute -- they describe the work
(block ``l``, local copy ``z``) and an :class:`Executor` runs it:

* :class:`repro.runtime.InlineExecutor` -- current thread, serial.  The
  bit-identical baseline every other backend is measured against.
* :class:`repro.runtime.ThreadExecutor` -- one task per block on a
  persistent thread pool.  The dense/banded/sparse/SciPy kernels spend
  their time inside GIL-releasing BLAS/LAPACK/SuperLU calls, so the
  solves overlap on real cores.
* :class:`repro.runtime.ProcessExecutor` -- worker processes that receive
  the matrices **once** (at :meth:`Executor.attach`) and afterwards
  exchange only vectors through ``multiprocessing.shared_memory`` --
  no per-iteration pickling of matrices, no GIL at all.

The contract is deliberately phase-structured rather than a bare task
pool: ``attach`` binds the per-block systems (this is where a process
backend ships the matrices), ``solve_blocks`` runs any subset of block
solves against fresh local copies, and ``detach`` releases the binding.
Synchronous drivers are **bit-identical** across backends because each
block solve is a deterministic pure function of ``(block, z)`` and
results are always returned in request order.
"""

from __future__ import annotations

import abc
import time
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.local import LocalSystem, build_local_systems
from repro.direct.cache import CacheStats, FactorizationCache

__all__ = ["Executor", "InProcessExecutor", "owned_rows_spec"]


def owned_rows_spec(bands, halos, b, sets, solvers, owned, use_cache: bool) -> dict:
    """One worker's owned-rows slice of a binding (the attach payload).

    The single definition of what the distributed backends ship: each
    worker gets only its blocks' ``A[J_l, :]`` / ``b[J_l]`` slices
    (arbitrary index sets, not just contiguous bands) plus the index
    sets and kernels needed to rebuild the systems worker-side via
    :func:`repro.core.local.build_local_system` -- never the full
    matrix -- and each block's *halo*, the columns of the iterate its
    solve reads (:func:`repro.core.local.halo_columns`), which is all a
    round then moves.  ``bands[l]`` is ``A[J_l, :]``, sliced once per
    binding by :mod:`repro.runtime.fleet`, which pickles the spec once
    per owned set and ships the bytes in every binding frame.
    """
    return {
        "bands": {l: bands[l] for l in owned},
        "halos": {l: halos[l] for l in owned},
        "b_subs": {l: b[sets[l]] for l in owned},
        "sets": {l: sets[l] for l in owned},
        "solvers": {l: solvers[l] for l in owned},
        "owned": owned,
        "use_cache": use_cache,
    }


class Executor(abc.ABC):
    """Pluggable execution backend for per-block direct solves.

    Lifecycle::

        ex = get_executor("threads")
        ex.attach(A, b, sets, solver, cache=cache)   # factor the blocks
        pieces = ex.solve_round(Z)                   # one outer iteration
        some = ex.solve_blocks([(2, z2), (0, z0)])   # any subset, any order
        stats = ex.run_cache_stats()                 # factor-reuse counters
        ex.detach()                                  # release the binding
        ex.close()                                   # tear down workers

    An executor is reusable: ``attach`` may be called again after
    ``detach`` (worker pools persist across bindings, which is what makes
    a long-lived :class:`~repro.core.solver.MultisplittingSolver` with a
    process backend pay the spawn cost once).  Executors are context
    managers; ``with`` closes them.

    The contract has no worker membership.  Only the fleets
    (:class:`~repro.runtime.fleet.FleetExecutor`: processes, sockets)
    have workers to lose, add or retire, so ``alive_workers``,
    ``kill_worker``, ``grow``, ``shrink``, ``migrate``, ``owner_map``
    and ``membership_version`` are defined there and nowhere else.
    """

    #: Registry/display name of the backend ("inline", "threads", ...).
    name: str = "abstract"

    #: Installed :class:`repro.observe.Tracer` (None = tracing off).
    _tracer = None

    # -- tracing ---------------------------------------------------------
    def set_tracer(self, tracer) -> None:
        """Install a :class:`repro.observe.Tracer` for subsequent bindings.

        ``None`` (the default state) disables tracing; the hot paths
        guard with a single ``is None`` check, so an untraced run pays
        nothing.  Distributed backends forward the flag to their
        workers at :meth:`attach` and merge the workers' span batches
        back (clock-offset corrected) at :meth:`detach`.
        """
        self._tracer = tracer

    @property
    def tracer(self):
        """The installed tracer (None when tracing is off)."""
        return self._tracer

    # -- binding ---------------------------------------------------------
    @abc.abstractmethod
    def attach(
        self,
        A,
        b: np.ndarray,
        sets: Sequence[np.ndarray],
        solver,
        *,
        cache: FactorizationCache | None = None,
        placement=None,
        fault_policy=None,
    ) -> None:
        """Bind the per-block systems for subsequent :meth:`solve_blocks`.

        Slices ``A``/``b`` into one band system per entry of ``sets`` and
        factors each block (through ``cache`` when given).  A process
        backend ships ``(A, b, sets, solver)`` to its workers here --
        exactly once per binding.

        ``placement`` (a :class:`repro.schedule.Placement`) pins blocks
        to workers: the fleets (processes, sockets) attach block ``l``
        to worker ``assignment[l]``, so that worker's factor cache stays
        hot across rounds.  The in-process backends (inline, threads)
        validate the plan and ignore it.  Iterates never depend on the
        placement: a block solve is a pure function of ``(block, z)``
        wherever it runs.

        ``fault_policy`` (a :class:`repro.runtime.resilience.FaultPolicy`)
        arms mid-solve recovery on backends with real workers: a worker
        that dies (or misses the policy's reply deadline) has its blocks
        requeued onto survivors -- or a respawned replacement -- instead
        of failing the run.  Backends without separate workers accept
        and ignore it (there is nothing to lose).
        """

    @staticmethod
    def _check_placement(placement, nblocks: int) -> None:
        """Validate a plan against the binding (shared by the backends)."""
        if placement is None:
            return
        if len(placement.assignment) != nblocks:
            raise ValueError(
                f"placement schedules {len(placement.assignment)} blocks "
                f"but the binding has {nblocks}"
            )

    @abc.abstractmethod
    def detach(self) -> None:
        """Release the current binding (idempotent).  Workers survive."""

    # -- solving ---------------------------------------------------------
    @abc.abstractmethod
    def solve_blocks(
        self, tasks: Sequence[tuple[int, np.ndarray]]
    ) -> list[np.ndarray]:
        """Solve ``XSub_l`` for every ``(l, z_l)`` request.

        ``z_l`` is block ``l``'s full-length local copy (shape ``(n,)`` or
        ``(n, k)`` for batched right-hand sides, matching the ``b`` the
        binding was attached with).  It is only ever *read*: the drivers
        hand read-only arrays, and the same one to several blocks, when
        the weighting gives them equal local copies.  Returns the
        solution pieces over each block's extended index set, **in
        request order** -- this ordering guarantee is what makes the
        synchronous drivers bit-identical across backends.
        """

    def solve_round(self, Z: Sequence[np.ndarray]) -> list[np.ndarray]:
        """One synchronous outer iteration: solve every block ``l`` on ``Z[l]``.

        The local copies are read-only to the executor and may alias
        one another (see :meth:`solve_blocks`).
        """
        return self.solve_blocks(list(enumerate(Z)))

    @abc.abstractmethod
    def map(self, fn: Callable, items: Iterable) -> list:
        """Generic ordered parallel map used for setup-phase work.

        Thread backends run ``fn`` over ``items`` concurrently; backends
        whose workers cannot execute arbitrary closures (processes) fall
        back to inline execution.  Results keep the order of ``items``.
        """

    # -- observability ---------------------------------------------------
    @abc.abstractmethod
    def block_seconds(self) -> dict[int, float]:
        """Cumulative wall-clock seconds spent solving each block since attach."""

    def run_cache_stats(self) -> CacheStats | None:
        """Factorization-cache counter delta since :meth:`attach`.

        ``None`` when the binding runs uncached.  For the process backend
        this aggregates the *per-worker* caches, which is the only place
        the counters exist.
        """
        return None

    def fault_stats(self):
        """Fault-tolerance counters since :meth:`attach`.

        A :class:`repro.runtime.resilience.FaultStats` for backends that
        track worker loss and recovery (processes, sockets, the chaos
        wrapper); ``None`` for backends with nothing to lose.
        """
        return None

    def wire_stats(self) -> dict:
        """Byte counters of the current binding's data movement.

        Distributed backends report ``attach_payload_bytes`` (per-worker
        serialized binding size), the per-round vector traffic
        (``vector_bytes_sent`` / ``vector_bytes_received``, measured at
        the driver) and the frames that carried it
        (``solve_frames_sent`` / ``solve_frames_received``: one each way
        per active worker per barrier round).  In-process backends move
        nothing and return ``{}``.
        """
        return {}

    @property
    def nblocks(self) -> int:
        """Number of blocks in the current binding (0 when detached)."""
        return 0

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Tear down any worker pool.  Implies :meth:`detach`."""
        self.detach()

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(blocks={self.nblocks})"


class InProcessExecutor(Executor):
    """Shared machinery of the backends whose systems live in this process.

    Both the inline and the thread backend hold the
    :class:`~repro.core.local.LocalSystem` list in the driver process and
    share the caller's :class:`~repro.direct.cache.FactorizationCache`;
    they differ only in *where* ``solve_blocks`` runs each task.
    """

    def __init__(self) -> None:
        self._systems: list[LocalSystem] | None = None
        self._cache: FactorizationCache | None = None
        self._cache_before: CacheStats | None = None
        self._block_seconds: dict[int, float] = {}
        self._handed = (None, None, None)

    def hand_over(self, A, sets, slices) -> None:
        """Give the next :meth:`attach` of ``(A, sets)`` its bands, sliced.

        ``slices`` are ``A``'s :class:`~repro.core.local.BandSlice` per
        entry of ``sets``.  One shot: the next ``attach`` consumes the
        hand-over, and binds the slices only when it is called with the
        very same ``A`` and ``sets`` objects -- anything else slices as
        usual.  This is how a caller that re-solves one matrix (the
        serving pool) skips the slicing without ``attach`` growing a
        keyword every executor and wrapper would have to carry.
        """
        self._handed = (A, sets, slices)

    def handed(self, A, sets):
        """The slices a pending :meth:`hand_over` holds for ``(A, sets)``, else ``None``."""
        of_A, of_sets, slices = self._handed
        return slices if of_A is A and of_sets is sets else None

    def attach(
        self, A, b, sets, solver, *, cache=None, placement=None, fault_policy=None
    ) -> None:
        self.detach()
        slices, self._handed = self.handed(A, sets), (None, None, None)
        self._check_placement(placement, len(sets))
        self._cache = cache
        self._cache_before = cache.stats.snapshot() if cache is not None else None
        tracer = self._tracer
        if cache is not None and tracer is not None:
            cache.set_tracer(tracer)
        build = partial(
            build_local_systems, A, b, sets, solver,
            cache=cache, executor=self._setup_executor(), slices=slices,
        )
        if tracer is None:
            self._systems = build()
        else:
            with tracer.span("attach", "compute", lane="driver", blocks=len(sets)):
                self._systems = build()
        self._block_seconds = {l: 0.0 for l in range(len(self._systems))}

    def _setup_executor(self):
        """Executor forwarded to :func:`build_local_systems` (None = serial)."""
        return None

    def detach(self) -> None:
        self._systems = None
        self._cache = None
        self._cache_before = None

    @property
    def systems(self) -> list[LocalSystem]:
        """The bound per-block systems (raises when detached)."""
        if self._systems is None:
            raise RuntimeError(f"{type(self).__name__} is not attached")
        return self._systems

    @property
    def nblocks(self) -> int:
        return len(self._systems) if self._systems is not None else 0

    def _timed_solve(self, l: int, z: np.ndarray) -> tuple[np.ndarray, float]:
        """Solve one block, returning ``(piece, seconds)``.

        The caller accumulates the timing in the driver thread, so the
        ``block_seconds`` table is never mutated concurrently.
        """
        t0 = time.perf_counter()
        piece = self.systems[l].solve_with(z)
        return piece, time.perf_counter() - t0

    def _traced_solve(self, l: int, z: np.ndarray) -> tuple[np.ndarray, float]:
        """:meth:`_timed_solve` plus a ``solve`` span on lane ``block-l``.

        Safe from worker threads: the tracer is internally locked, and
        the span is strictly observational (the piece is untouched), so
        traced and untraced runs stay bit-identical.
        """
        tracer = self._tracer
        if tracer is None:
            return self._timed_solve(l, z)
        t0 = tracer.now()
        piece, seconds = self._timed_solve(l, z)
        tracer.add("solve", "compute", t0, seconds, lane=f"block-{l}", block=l)
        return piece, seconds

    def _account(self, l: int, seconds: float) -> None:
        self._block_seconds[l] = self._block_seconds.get(l, 0.0) + seconds

    def block_seconds(self) -> dict[int, float]:
        return dict(self._block_seconds)

    def run_cache_stats(self) -> CacheStats | None:
        if self._cache is None or self._cache_before is None:
            return None
        return self._cache.stats.since(self._cache_before)
