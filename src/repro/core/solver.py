"""High-level facade: :class:`MultisplittingSolver`.

One object wires together everything a user needs to reproduce the paper's
solvers:

.. code-block:: python

    from repro import MultisplittingSolver, load_workload
    from repro.grid import cluster3

    A, b, x_true = load_workload("gen-large")
    solver = MultisplittingSolver(mode="asynchronous", overlap=50)
    result = solver.solve(A, b, cluster=cluster3(10))
    print(result.simulated_time, result.iterations, result.residual)

Three execution modes:

* ``"sequential"``   -- the in-process reference iteration (no simulator);
* ``"synchronous"``  -- Algorithm 1 over MPI-style blocking exchanges;
* ``"asynchronous"`` -- the free-running variant with async detection.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from repro.core.asynchronous import run_asynchronous
from repro.core.local import slice_local_system
from repro.core.partition import (
    BandPartition,
    GeneralPartition,
    interleaved_partition,
    permuted_bands,
    proportional_bands,
    uniform_bands,
)
from repro.core.result import SolveResult
from repro.core.sequential import multisplitting_iterate
from repro.core.stopping import StoppingCriterion, observed_contraction
from repro.core.sync import run_synchronous
from repro.core.weighting import WeightingScheme, make_weighting
from repro.direct.base import DirectSolver, get_solver
from repro.direct.cache import FactorizationCache, matrix_fingerprint, solver_fingerprint
from repro.direct.costs import sparse_factor_cost
from repro.grid.topology import Cluster, cluster1
from repro.linalg.sparse import as_csr
from repro.observe import resolve_trace

__all__ = ["MultisplittingSolver", "SolveResult"]

_MODES = ("sequential", "synchronous", "asynchronous")
_PLACEMENTS = ("uniform", "proportional", "calibrated")
_PARTITIONS = ("bands", "interleaved", "permuted", "schwarz")

#: The overlap rule's candidates beyond 0: a band's ``n // L`` rows over
#: each divisor, tried in increasing order of overlap.
_OVERLAP_LADDER = (8, 4, 2)
#: A probe stops once its diff falls below this (from a start of
#: max-norm ~1), or after this many rounds.
_PROBE_DROP, _PROBE_ROUNDS = 1e-2, 24
#: Matrices whose chosen overlap one facade remembers.
_OVERLAP_MEMO = 64


class MultisplittingSolver:
    """The multisplitting-direct solver of Bahi & Couturier (2005).

    Parameters
    ----------
    processors:
        Number of band systems ``L``.  Defaults to the cluster size (or 4
        in sequential mode).
    mode:
        ``"sequential"``, ``"synchronous"`` or ``"asynchronous"``.
    direct_solver:
        Registry name (``"dense"``, ``"banded"``, ``"scipy"``) or a
        :class:`~repro.direct.base.DirectSolver` instance.  This is
        the paper's "any sequential direct solver" plug point.  A *list*
        of names/instances (one per processor) mixes different kernels
        across the bands -- the coupling of "different direct algorithms
        on different clusters" announced in the paper's conclusion.
    overlap:
        Indices annexed on each side of every band -- or of every owned
        chunk, for interleaved layouts (Figure 3's knob).  An explicit
        value (including 0) is honoured verbatim by every strategy.
        ``None`` (the default) means unspecified.  In ``"sequential"``
        mode with ``"bands"`` and no ``placement`` it means *chosen*:
        once per matrix (memoised on its content fingerprint, ``L`` and
        the kernel) the facade prices overlap 0 as factor flops plus
        predicted rounds x solve flops per round, and when the rounds
        outweigh the factors prices the overlaps ``n / (8L)``,
        ``n / (4L)``, ``n / (2L)`` in turn while the price falls.
        Rounds come from the contraction of a short probe of the
        homogeneous iteration (``b = 0``, fixed start), so the choice
        depends on ``A``, ``L``, the kernel, the weighting and the
        tolerance only: never on ``b``, the clock or the backend, and
        ``2^e A`` chooses what ``A`` does.  Elsewhere band strategies
        read ``None`` as 0 and the schwarz strategy substitutes its own
        default.
    partition_strategy:
        Shape of the decomposition (the paper's Remarks 2-3 generality):

        * ``"bands"`` -- contiguous horizontal bands (Figure 1, the
          default);
        * ``"interleaved"`` -- round-robin chunk assignment (Remark 2's
          non-adjacent bands), chunk size ``max(1, n // (8 L))``, with
          ``overlap`` annexed around each owned chunk;
        * ``"permuted"`` -- contiguous bands in a seeded-shuffle
          ordering (Remark 2's permutation reduction), deterministic
          across runs;
        * ``"schwarz"`` -- overlapping bands for the multisubdomain
          Schwarz regime; uses ``overlap`` when given, else a default of
          ``max(1, n // (10 L))`` annexed indices per side (pair with
          ``weighting="schwarz"`` for the Section-4.3 combination).

        All four flow through ``placement=``, ``backend=`` and every
        execution mode; general decompositions carry their layout on
        the resolved plan (:meth:`repro.schedule.Placement.with_layout`).
    weighting:
        Weighting family name (``"ownership"``, ``"averaging"``,
        ``"schwarz"``, ``"block-jacobi"``) or a scheme factory; see
        :mod:`repro.core.weighting`.
    tolerance / consecutive / max_iterations:
        Stopping rule (defaults: the paper's ``1e-8``; ``consecutive``
        defaults to 1 synchronous / 3 asynchronous).
    detection:
        Convergence-detection protocol: ``"centralized"`` or
        ``"decentralized"``.
    placement:
        Scheduling strategy, or an explicit plan
        (:class:`repro.schedule.Placement`):

        * ``"uniform"`` -- equal bands regardless of host speed;
        * ``"proportional"`` -- bands sized to raw host speed ratios;
        * ``"calibrated"`` -- cost-model balanced bands
          (:func:`repro.schedule.cluster_placement` over the cluster's
          hosts and links in the distributed modes; live micro-benchmark
          calibration of the actual execution backend's workers in
          sequential mode);
        * a ``Placement`` instance -- used verbatim (its band sizes must
          cover the matrix).

        The resolved plan configures the partition, the simulated host
        mapping, and the fleet's block-to-worker pinning (processes,
        sockets; the in-process backends validate it and ignore it) in
        one object; its summary lands on :attr:`SolveResult.placement`.
        ``None`` (default) sizes bands to the host speeds on a cluster
        (the same bands as ``"proportional"``) and equal bands without
        one.
    cache:
        Factorization reuse across :meth:`solve` calls.  ``True``
        (default) gives the solver its own
        :class:`~repro.direct.cache.FactorizationCache` (LRU-bounded to
        256 sub-blocks so a long-lived solver cannot grow without
        bound), so re-solving the same system (new right-hand side,
        another execution mode, a perturbed cluster) skips every
        sub-block factorization; ``False`` disables reuse; an explicit
        cache instance shares entries with other solvers and controls
        its own capacity.  Per-run counters are reported on
        :attr:`SolveResult.cache_stats` in every mode.
    backend:
        :mod:`repro.runtime` execution backend for the block solves:
        ``"inline"`` (serial, the default), ``"threads"`` (per-block
        worker threads; the kernels release the GIL in BLAS/LAPACK/
        SuperLU), ``"processes"`` (worker processes exchanging vectors
        through shared memory), or an :class:`~repro.runtime.Executor`
        instance.  In ``"sequential"`` mode the whole iteration runs on
        the backend; in the simulated distributed modes the backend
        parallelises the real setup factorization (simulated times are
        unchanged).  A backend created from a name is owned by the
        solver and reused across :meth:`solve` calls -- call
        :meth:`close` (or use the solver as a context manager) to tear
        down its workers; a passed-in instance is never closed.

        The facade is re-entrant: concurrent :meth:`solve` calls from
        many threads are safe when ``backend`` is a *name* (each thread
        lazily owns its own executor -- executors hold per-binding
        attach state, so sharing one across threads would interleave
        bindings), and when a shared ``cache`` is configured its
        counters stay exact (the cache itself is lock-exact; only the
        *per-call attribution* on ``SolveResult.cache_stats`` can
        interleave under the distributed modes).  A passed-in
        ``Executor`` instance is inherently single-binding and must not
        be driven from multiple threads.
    fault_policy:
        Optional :class:`repro.runtime.resilience.FaultPolicy` arming
        mid-solve worker recovery on the execution backend: a worker
        that dies (or breaches the policy's reply deadline) has its
        blocks requeued onto survivors -- or a respawned replacement --
        and the solve completes with identical iterates.  Counters land
        on :attr:`SolveResult.fault_stats`.  The simulated modes never
        attach the backend (it only parallelises the setup
        factorization), so they have no workers to lose: their results
        carry ``fault_stats is None`` and an empty ``wire``.
    trace:
        Facade-level tracing default: ``True`` or a
        :class:`repro.observe.Tracer` makes every :meth:`solve` record
        its span timeline (a per-call ``trace=`` still overrides).
    elastic:
        ``True`` or a :class:`repro.schedule.ElasticController`: arm
        elastic re-planning in sequential mode (forwarded to
        :func:`repro.core.sequential.multisplitting_iterate` -- the
        fleet may :meth:`~repro.runtime.fleet.FleetExecutor.grow` and
        :meth:`~repro.runtime.fleet.FleetExecutor.shrink` mid-solve,
        with moved blocks migrated at quiescent round boundaries).  The
        in-process backends and the simulated distributed modes have no
        live fleet and ignore the flag.
    """

    def __init__(
        self,
        processors: int | None = None,
        *,
        mode: str = "synchronous",
        direct_solver: str | DirectSolver = "scipy",
        overlap: int | None = None,
        weighting: str = "ownership",
        tolerance: float = 1e-8,
        consecutive: int | None = None,
        max_iterations: int | None = None,
        detection: str = "centralized",
        cache: "FactorizationCache | bool" = True,
        backend: str = "inline",
        placement=None,
        fault_policy=None,
        partition_strategy: str = "bands",
        trace=None,
        elastic=None,
    ):
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if partition_strategy not in _PARTITIONS:
            raise ValueError(
                f"partition_strategy must be one of {_PARTITIONS}, "
                f"got {partition_strategy!r}"
            )
        if processors is not None and processors < 1:
            raise ValueError("processors must be positive")
        if overlap is not None and overlap < 0:
            raise ValueError("overlap must be non-negative")
        if isinstance(placement, str) and placement not in _PLACEMENTS:
            raise ValueError(
                f"placement must be one of {_PLACEMENTS} or a Placement, "
                f"got {placement!r}"
            )
        self.processors = processors
        self.mode = mode
        if isinstance(direct_solver, (list, tuple)):
            self.direct_solver: DirectSolver | list[DirectSolver] = [
                s if isinstance(s, DirectSolver) else get_solver(s)
                for s in direct_solver
            ]
        elif isinstance(direct_solver, DirectSolver):
            self.direct_solver = direct_solver
        else:
            self.direct_solver = get_solver(direct_solver)
        # None means "not specified": band strategies read it as 0, the
        # schwarz strategy substitutes its default -- while an *explicit*
        # overlap (including 0) is always honoured verbatim, so an
        # overlap sweep's zero baseline really runs with zero overlap.
        self._overlap_given = overlap is not None
        self.overlap = 0 if overlap is None else overlap
        self._overlap_chosen = (
            not self._overlap_given and mode == "sequential"
            and partition_strategy == "bands" and placement is None
        )
        self.weighting = weighting
        self.partition_strategy = partition_strategy
        self.detection = detection
        self.placement = placement
        if cache is True:
            self.cache: FactorizationCache | None = FactorizationCache(capacity=256)
        elif cache is False or cache is None:
            self.cache = None
        else:
            self.cache = cache
        self.backend = backend
        self.fault_policy = fault_policy
        self.elastic = elastic
        # Facade-level tracing default: every solve() records onto this
        # tracer unless the call passes its own ``trace=``.
        self.trace = resolve_trace(trace)
        # Executors carry per-binding attach state, so one instance can
        # serve only one thread at a time.  A *name* backend therefore
        # resolves to one owned executor per calling thread (the serve
        # pool drives a solver from worker threads); the registry lets
        # close() tear every one of them down, whichever thread it runs
        # on.  A passed-in Executor instance is used as-is and never
        # closed.
        self._thread_local = threading.local()
        self._owned_executors: list = []
        self._lock = threading.Lock()
        # Live-calibration memo: measuring the backend's workers is a
        # micro-benchmark, and a fresh measurement each solve would
        # jitter the band sizes and defeat factor reuse across solves.
        # Guarded by ``_lock`` for concurrent solve() calls.
        self._calibrated_plans: dict = {}
        #: The overlap rule's memo of chosen bands (insertion-ordered,
        #: bounded), also guarded by ``_lock``: a warm solve pays one
        #: fingerprint.
        self._chosen_partitions: dict = {}
        default_consecutive = 1 if mode != "asynchronous" else 3
        if max_iterations is None:
            # Asynchronous runs legitimately take many more (cheap, local)
            # iterations than synchronous ones -- the paper observes the
            # async count is "systematically greater" and grows when the
            # computation parts are short relative to communications.
            max_iterations = 2_000 if mode != "asynchronous" else 20_000
        self.stopping = StoppingCriterion(
            tolerance=tolerance,
            consecutive=consecutive if consecutive is not None else default_consecutive,
            max_iterations=max_iterations,
        )

    # -- runtime backend -----------------------------------------------
    def _get_executor(self):
        """Resolve the runtime executor for the *calling thread*.

        A passed-in :class:`~repro.runtime.Executor` instance is
        returned as-is (single-binding: the caller owns its threading
        discipline).  A backend *name* resolves to one lazily-created
        executor per thread, reused across that thread's solve() calls
        and registered for :meth:`close`.
        """
        from repro.runtime import Executor, get_executor

        if isinstance(self.backend, Executor):
            return self.backend
        executor = getattr(self._thread_local, "executor", None)
        if executor is None:
            executor = get_executor(self.backend)
            self._thread_local.executor = executor
            with self._lock:
                self._owned_executors.append(executor)
        return executor

    def close(self) -> None:
        """Tear down every solver-owned execution backend (idempotent).

        Owned executors created by *other* threads' solve() calls are
        closed too -- do not race close() against in-flight solves.
        """
        with self._lock:
            owned, self._owned_executors = self._owned_executors, []
            # New workers may come up with different speeds: re-measure.
            self._calibrated_plans.clear()
        # Fresh thread-local map so no thread keeps handing out a closed
        # executor; the next solve() lazily owns a new one.
        self._thread_local = threading.local()
        for executor in owned:
            executor.close()

    def __enter__(self) -> "MultisplittingSolver":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- partition construction ----------------------------------------
    def _schwarz_overlap(self, n: int, nblocks: int) -> int:
        """Effective schwarz overlap: explicit value, else the default."""
        if self._overlap_given:
            return self.overlap
        return max(1, n // (10 * nblocks))

    def build_partition(
        self, n: int, cluster: Cluster | None, nprocs: int
    ) -> GeneralPartition:
        """Build the configured decomposition (``partition_strategy``).

        ``"bands"`` sizes (speed-proportional) contiguous bands with the
        overlap; ``"interleaved"``/``"permuted"`` produce Remark 2's
        general layouts (their sizes are fixed by chunking/permutation,
        not by host speeds); ``"schwarz"`` is bands with a guaranteed
        overlap (``self.overlap`` or ``max(1, n // (10 L))``).
        """
        strategy = self.partition_strategy
        if strategy == "interleaved":
            return interleaved_partition(
                n, nprocs, chunk=max(1, n // (8 * nprocs)), overlap=self.overlap
            )
        if strategy == "permuted":
            perm = np.random.default_rng(0).permutation(n)
            return permuted_bands(perm, nprocs, overlap=self.overlap)
        overlap = self._schwarz_overlap(n, nprocs) if strategy == "schwarz" else self.overlap
        if cluster is not None:
            speeds = [h.speed for h in cluster.hosts[:nprocs]]
            band = proportional_bands(n, speeds, overlap=overlap)
        else:
            band = uniform_bands(n, nprocs, overlap=overlap)
        return band.to_general()

    def _resolve_plan(self, A, n: int, cluster: Cluster | None, nprocs: int):
        """Resolve the ``placement`` option into a concrete plan (or None).

        ``None`` means the legacy implicit layout (:meth:`build_partition`
        + first-N-hosts mapping); anything else is a
        :class:`repro.schedule.Placement` that sizes the partition, maps
        simulated ranks to hosts, and pins fleet workers.
        """
        if self.placement is None:
            return None
        from repro.schedule import (
            Placement,
            calibrated_placement,
            cluster_placement,
            partition_placement,
            uniform_placement,
        )

        if isinstance(self.placement, Placement):
            if self.placement.n != n:
                raise ValueError(
                    f"placement covers {self.placement.n} unknowns but the "
                    f"matrix has {n}"
                )
            return self.placement
        strategy = self.placement
        sparse_A = A if getattr(A, "nnz", None) is not None else None
        weighting_name = (
            self.weighting if isinstance(self.weighting, str) else "ownership"
        )
        if cluster is not None and self.partition_strategy in (
            "interleaved",
            "permuted",
        ):
            # General layouts fix their own sizes; the strategy picks the
            # block-to-host matching instead ("calibrated" prices each
            # candidate host's routes against the actual message graph).
            part = self.build_partition(n, cluster, nprocs)
            return partition_placement(
                cluster,
                part,
                strategy=strategy,
                A=sparse_A,
                weighting=weighting_name,
                overlap=self.overlap,
            )
        if cluster is not None:
            nnz = getattr(A, "nnz", None)
            density = max(float(nnz) / n, 1.0) if nnz is not None else 5.0
            return cluster_placement(
                cluster,
                nprocs,
                strategy=strategy,
                overlap=self.overlap,
                density=density,
                n=n,
                # Calibrated plans price the matrix's actual dependency
                # graph (pattern-aware message terms) when A is sparse.
                A=sparse_A,
                weighting=weighting_name,
            )
        # Sequential mode: no topology to read speeds from.  "calibrated"
        # micro-benchmarks the actual execution backend's workers;
        # "uniform"/"proportional" degrade to equal bands (all workers
        # are presumed equal without a measurement or a model).
        if strategy == "calibrated":
            key = (n, nprocs)
            with self._lock:
                plan = self._calibrated_plans.get(key)
            if plan is None:
                measured = calibrated_placement(
                    self._get_executor(), n, nprocs, overlap=self.overlap
                )
                with self._lock:
                    # Two threads may have measured concurrently; the
                    # first one in wins so every later solve reuses the
                    # same band sizes (stable factor-cache keys).
                    plan = self._calibrated_plans.setdefault(key, measured)
            return plan
        return uniform_placement(n, nprocs, overlap=self.overlap)

    def _resolve_weighting(self, partition: GeneralPartition) -> WeightingScheme:
        if isinstance(self.weighting, str):
            return make_weighting(self.weighting, partition)
        return self.weighting(partition)

    # -- solving ---------------------------------------------------------
    def solve(
        self,
        A,
        b: np.ndarray,
        *,
        cluster: Cluster | None = None,
        partition: GeneralPartition | BandPartition | None = None,
        x0: np.ndarray | None = None,
        trace=None,
    ) -> SolveResult:
        """Solve ``A x = b``; returns a :class:`SolveResult`.

        In the distributed modes a missing ``cluster`` defaults to the
        paper's homogeneous ``cluster1`` sized to ``processors``.

        An explicit ``partition`` and a configured ``placement`` both
        claim the band layout; passing both is a conflict (the plan's
        sizes would be silently discarded), so it raises.

        ``trace=True`` (or an explicit :class:`repro.observe.Tracer`)
        records the run's span timeline; it comes back on the result's
        ``trace`` field.  Sequential mode traces the full per-round
        executor timeline; the simulated distributed modes trace the
        real work that happens on this host (setup factorizations,
        cache traffic).
        """
        if partition is not None and self.placement is not None:
            raise ValueError(
                "an explicit partition and a placement both prescribe the "
                "band layout; pass the plan's own partition "
                "(placement.partition()) or drop one of the two"
            )
        if trace is None:
            trace = self.trace
        if self.mode == "sequential":
            # A cold solve may probe its overlap through the cache first
            # (:meth:`_choose_partition`); the factors it makes there are
            # this solve's, so their counters are too.
            before = self.cache.stats.snapshot() if self.cache is not None else None
            result = self._iterate(A, b, self._layout(A, partition=partition), x0=x0, trace=trace)
            if before is not None and self._shares_cache():
                result.cache_stats = self.cache.stats.since(before)
            return result

        nprocs = self.processors or (len(cluster.hosts) if cluster is not None else 4)
        if cluster is None:
            cluster = cluster1(min(nprocs, 20))
        plan, part, scheme = self._layout(A, cluster, partition, nprocs)
        runner = run_synchronous if self.mode == "synchronous" else run_asynchronous
        tracer = resolve_trace(trace)
        executor = self._get_executor()
        if tracer is not None:
            # The simulated modes run block solves inside the event
            # engine, so the traceable real work is the setup path:
            # executor-parallelised factorizations and cache traffic.
            executor.set_tracer(tracer)
            if self.cache is not None:
                self.cache.set_tracer(tracer)
        try:
            result = runner(
                A,
                b,
                part,
                scheme,
                self.direct_solver,
                cluster,
                stopping=self.stopping,
                detection=self.detection,
                x0=x0,
                cache=self.cache,
                executor=executor,
                placement=plan,
            )
        finally:
            if tracer is not None:
                executor.set_tracer(None)
                if self.cache is not None:
                    self.cache.set_tracer(None)
        result.trace = tracer
        return result

    def _layout(self, A, cluster=None, partition=None, nprocs=None):
        """``(plan, partition, weighting)``: what a solve derives from ``A`` alone.

        No right-hand side enters, so a caller that re-solves one
        unchanged matrix (:class:`repro.serve.pool.SolverPool`, per
        tenant) keeps the triple and goes straight to :meth:`_iterate`.
        """
        n = A.shape[0]
        nprocs = nprocs or self.processors or 4
        if self._overlap_chosen and partition is None:
            part = self._chosen_partition(A, nprocs)
            return None, part, self._resolve_weighting(part)
        plan = self._resolve_plan(A, n, cluster, nprocs) if partition is None else None
        plan, part = self._plan_and_partition(plan, partition, n, cluster, nprocs)
        return plan, part, self._resolve_weighting(part)

    def chosen_overlap(self, A) -> int:
        """The overlap a sequential solve of ``A`` annexes to each band.

        ``overlap`` when it was given (or when the overlap rule does not
        apply), else the rule's choice for ``A``, memoised like a solve's.
        """
        if not self._overlap_chosen:
            return self.overlap
        part = self._layout(A)[1]
        return int(part.sets[0].size - part.core[0].size)

    def _shares_cache(self) -> bool:
        """Whether this thread's backend factors through :attr:`cache`."""
        from repro.runtime.api import InProcessExecutor

        return isinstance(self._get_executor(), InProcessExecutor)

    def _chosen_partition(self, A, nprocs: int) -> GeneralPartition:
        """The bands at the overlap rule's choice for ``A``, memoised."""
        kernel = self.direct_solver
        kernels = kernel if isinstance(kernel, list) else [kernel]
        key = (matrix_fingerprint(A), nprocs, tuple(map(solver_fingerprint, kernels)))
        with self._lock:
            part = self._chosen_partitions.get(key)
        if part is None:
            part = self._choose_partition(A, nprocs)
            with self._lock:
                part = self._chosen_partitions.setdefault(key, part)
                if len(self._chosen_partitions) > _OVERLAP_MEMO:
                    del self._chosen_partitions[next(iter(self._chosen_partitions))]
        return part

    def _choose_partition(self, A, L: int) -> GeneralPartition:
        """Price overlap 0, then the ladder while rounds dominate; cheapest wins.

        The price of an overlap is factor flops plus predicted rounds x
        solve flops per round, both from
        :func:`~repro.direct.costs.sparse_factor_cost` on each band's
        pattern.  Rounds are ``log(tol) / log(contraction)`` of the
        homogeneous iteration (``b = 0``) from a smooth, seeded start,
        probed for up to ``_PROBE_ROUNDS`` rounds; at overlap 0 the
        probe ends after 4 when the rounds cost under half the factors.
        When the backend shares :attr:`cache`, overlap 0 is probed
        through it and, if it wins, its slices are handed to the solve:
        the probe's factors and slices are the solve's.  If it loses,
        its factors leave the cache again.  Every other probe factors
        into a private cache that dies with it.
        """
        from repro.runtime.inline import InlineExecutor

        csr = as_csr(A)
        n = csr.shape[0]
        kernels = self.direct_solver
        if not isinstance(kernels, list):
            kernels = [kernels] * L
        start = 1.0 + 1e-3 * np.random.default_rng(0).uniform(-1.0, 1.0, n)
        shared = self.cache if self._shares_cache() else None

        def price(overlap: int, cache, first: int = _PROBE_ROUNDS):
            """``(factor flops + predicted rounds x solve flops, bands, slices)``."""
            part = uniform_bands(n, L, overlap=overlap).to_general()
            slices = [slice_local_system(csr, J, l) for l, J in enumerate(part.sets)]
            for sliced, kernel in zip(slices, kernels):
                sliced.cache_key = cache.key_for(kernel, sliced.a_sub)
            costs = [sparse_factor_cost(s.rows.size, s.a_sub.nnz) for s in slices]
            factor = sum(c.factor_flops for c in costs)
            per_round = sum(c.solve_flops for c in costs)
            probe = InlineExecutor()
            x, history = start, []
            for rounds in (first, _PROBE_ROUNDS - first):
                probe.hand_over(csr, part.sets, slices)
                run = multisplitting_iterate(
                    csr, np.zeros(n), part, self._resolve_weighting(part),
                    self.direct_solver, x0=x, cache=cache, executor=probe,
                    stopping=StoppingCriterion(_PROBE_DROP, max_iterations=rounds),
                )
                x, history = run.x, history + run.history
                c = observed_contraction(history)
                if c is None or c == 0.0:
                    predicted = 1.0
                else:
                    predicted = math.log(self.stopping.tolerance) / math.log(c) if c < 1 else math.inf
                spent = per_round * predicted
                # Early rounds also carry the fast modes and understate
                # the rounds; only a clear margin ends the look early.
                if run.converged or rounds == _PROBE_ROUNDS or 2 * spent <= factor:
                    break
            return factor + spent, spent > factor, part, slices

        zero = price(0, FactorizationCache() if shared is None else shared, first=4)
        best, round_bound, part, _ = zero
        for divisor in _OVERLAP_LADDER if round_bound else ():
            overlap = (n // L) // divisor
            if not overlap:
                continue
            cost, _, candidate, _ = price(overlap, FactorizationCache())
            if cost >= best:
                break
            best, part = cost, candidate
        if shared is not None and part is zero[2]:
            self._get_executor().hand_over(A, part.sets, zero[3])
        elif shared is not None:
            for sliced in zero[3]:
                shared.invalidate(sliced.cache_key)
        return part

    def _iterate(self, A, b, layout, *, x0=None, trace=None) -> SolveResult:
        """The in-process iteration of ``A x = b`` over a :meth:`_layout` of ``A``."""
        plan, part, scheme = layout
        result = multisplitting_iterate(
            A, b, part, scheme, self.direct_solver, stopping=self.stopping,
            x0=x0, cache=self.cache, executor=self._get_executor(),
            placement=plan, fault_policy=self.fault_policy, trace=trace,
            elastic=self.elastic,
        )
        result.mode = self.mode
        return result

    def _plan_and_partition(
        self,
        plan,
        partition: GeneralPartition | BandPartition | None,
        n: int,
        cluster: Cluster | None,
        nprocs: int,
    ):
        """Resolve the (plan, partition) pair consistently.

        Band strategies read the partition *from* the plan (the plan's
        sizes are the decomposition); general strategies build their own
        layout and re-target the plan at it
        (:meth:`~repro.schedule.Placement.with_layout`), keeping the
        plan's workers and block-to-worker assignment.
        """
        if plan is None:
            return None, self._normalize_partition(partition, n, cluster, nprocs)
        if self.partition_strategy == "bands":
            return plan, plan.partition().to_general()
        if self.partition_strategy == "schwarz":
            # Schwarz is still a band decomposition: keep the plan's
            # (possibly cost-balanced) core sizes and only annex the
            # overlap onto each band's extended set.
            overlap = self._schwarz_overlap(n, plan.nblocks)
            part = plan.partition(overlap=overlap).to_general()
            return plan.with_layout(part, overlap=overlap), part
        if plan.layout is not None:
            # _resolve_plan already built the general plan (including the
            # pattern-aware calibrated matching); consume its layout.
            return plan, plan.layout
        part = self.build_partition(n, cluster, nprocs)
        return plan.with_layout(part, overlap=self.overlap), part

    def _normalize_partition(
        self,
        partition: GeneralPartition | BandPartition | None,
        n: int,
        cluster: Cluster | None,
        nprocs: int,
    ) -> GeneralPartition:
        if partition is None:
            return self.build_partition(n, cluster, nprocs)
        if isinstance(partition, BandPartition):
            return partition.to_general()
        return partition
