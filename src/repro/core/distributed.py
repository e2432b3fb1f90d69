"""Shared infrastructure for the distributed (simulated) solvers.

Both the synchronous and asynchronous multisplitting solvers follow the
same deployment pattern on the grid simulator:

* the *numerics* (slicing, factorization, triangular solves) execute once
  in the driver process -- they are real NumPy/SciPy computations;
* the *costs* (simulated memory, factorization flops, per-iteration flops,
  message bytes) are charged inside each simulated coroutine against its
  host and the network, which is where the tables' times come from.

This module holds that deployment, written once: :func:`simulate` (host
mapping, local systems, communication pattern, memory precheck, engine
run, solution assembly and the result record) and the per-rank
:class:`SimRank` the coroutines work with -- so the two algorithms
differ only in their iteration loops.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.local import LocalSystem, build_local_systems
from repro.core.partition import GeneralPartition
from repro.core.result import STATUS_MAXITER, STATUS_NEM, STATUS_OK, SolveResult
from repro.direct.costs import BYTES_PER_NNZ
from repro.grid.comm import vector_bytes
from repro.grid.engine import SimContext
from repro.grid.host import Host
from repro.grid.topology import Cluster
from repro.grid.trace import TraceRecorder
from repro.linalg.norms import residual_norm

__all__ = [
    "ProcOutcome",
    "SimRank",
    "CommPattern",
    "communication_pattern",
    "placement_for",
    "charge_initialisation",
    "band_memory_bytes",
    "simulate",
]


@dataclass
class ProcOutcome:
    """Per-processor summary returned by each simulated coroutine."""

    rank: int
    iterations: int
    core_piece: np.ndarray | None
    factor_ready_at: float
    finished_at: float
    locally_converged: bool
    detection_messages: int = 0


def placement_for(cluster: Cluster, nprocs: int, plan=None):
    """Map ranks to hosts (one process per machine, paper-style).

    Without a plan, rank ``l`` runs on ``cluster.hosts[l]``.  A
    :class:`repro.schedule.Placement` overrides that: rank ``l`` runs on
    the host of the plan's worker ``assignment[l]``, resolved by worker
    name -- so the simulator charges each band exactly where the plan
    put it.  Plans with no cluster-host names at all (generic or
    calibrated-from-real-workers plans) fall back to positional
    mapping; a plan that names *some* cluster hosts but not all is a
    plan built from a different topology, and that mismatch raises
    rather than silently mis-mapping bands.

    Raises
    ------
    ValueError
        If the cluster has fewer machines than requested processes, the
        plan schedules a different number of blocks, or the plan's
        worker names only partially match the cluster's hosts.
    """
    if nprocs > len(cluster.hosts):
        raise ValueError(
            f"{nprocs} processes requested but cluster {cluster.name!r} has "
            f"{len(cluster.hosts)} hosts"
        )
    if plan is None:
        return cluster.hosts[:nprocs]
    if plan.nblocks != nprocs:
        raise ValueError(
            f"placement schedules {plan.nblocks} blocks but the run has "
            f"{nprocs} processes"
        )
    by_name = {h.name: h for h in cluster.hosts}
    matched = [l for l in range(nprocs) if plan.worker_of(l).name in by_name]
    if len(matched) == nprocs:
        return [by_name[plan.worker_of(l).name] for l in range(nprocs)]
    if matched:
        missing = sorted(
            {plan.worker_of(l).name for l in range(nprocs)} - set(by_name)
        )
        raise ValueError(
            f"placement names hosts absent from cluster {cluster.name!r} "
            f"(e.g. {missing[:3]}); was the plan built from another topology?"
        )
    return cluster.hosts[:nprocs]


def band_memory_bytes(system: LocalSystem) -> int:
    """Simulated resident bytes of one processor's band data.

    Band rows (couplings) + right-hand side + local copies + the
    factorization itself.  Batched right-hand sides scale the vector
    residents (not the factors) by the batch width ``k``.
    """
    n_local = system.size
    k = system.b_sub.shape[1] if system.b_sub.ndim == 2 else 1
    return int(
        system.dep.nnz * BYTES_PER_NNZ
        + system.factor_memory_bytes
        + 8 * 4 * n_local * k  # BSub, XSub, BLoc, previous piece
    )


def charge_initialisation(ctx: SimContext, system: LocalSystem):
    """Generator: charge memory + factorization for one processor.

    Raises (inside the coroutine) ``OutOfSimMemory`` when the band and its
    factors exceed the host's remaining RAM -- callers translate that into
    the ``"nem"`` status.
    """
    yield ctx.malloc(band_memory_bytes(system))
    yield ctx.compute(system.factor_flops)


def assemble_solution(
    partition: GeneralPartition, outcomes: list[ProcOutcome]
) -> np.ndarray:
    """Reassemble the global vector (or ``(n, k)`` batch) from core pieces."""
    for out in outcomes:
        if out.core_piece is None:
            raise ValueError(f"rank {out.rank} returned no solution piece")
    first = outcomes[0].core_piece
    shape = (partition.n,) if first.ndim == 1 else (partition.n, first.shape[1])
    x = np.empty(shape)
    for out in outcomes:
        x[partition.core[out.rank]] = out.core_piece
    return x


@dataclass
class CommPattern:
    """Weighting-aware communication structure of one decomposition.

    For each rank ``l``, ``recv_terms[l][k] = (piece_idx, col_idx, w)``
    describes how a piece arriving from ``k`` contributes to the components
    ``l`` actually *reads* (the non-zero columns of its coupling block):
    ``z[col_idx] += w * piece[piece_idx]``.  ``deps``/``dependents`` are
    derived from these terms, so a weighting that spreads a component over
    two overlap owners (O'Leary-White averaging) correctly makes *both*
    owners senders, while ownership-style weightings keep the minimal
    pattern of Algorithm 1.
    """

    needed_cols: list[np.ndarray]
    deps: list[list[int]]
    dependents: list[list[int]]
    recv_terms: list[dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]]


def communication_pattern(
    partition, weighting, systems: list[LocalSystem] | None = None, *, A=None
) -> CommPattern:
    """Derive who-sends-to-whom and the per-message update terms.

    The dependency structure may come from the built per-rank systems
    (``systems``, the drivers' path -- the coupling blocks already
    exist) or directly from the matrix pattern (``A``, the scheduler's
    path -- nothing is sliced or factored; see
    :meth:`~repro.core.partition.GeneralPartition.boundary_columns`).
    Both derivations yield the same graph, which is what makes the
    pattern-aware message cost model in :mod:`repro.schedule.pattern`
    price exactly the exchanges the drivers later perform.
    """
    if (systems is None) == (A is None):
        raise ValueError("pass exactly one of systems= or A=")
    L = partition.nprocs
    all_needed = (
        [np.unique(systems[l].dep.indices) for l in range(L)]
        if systems is not None
        else partition.boundary_columns(A)
    )
    needed_cols: list[np.ndarray] = []
    recv_terms: list[dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]] = []
    deps: list[list[int]] = []
    dependents: list[list[int]] = [[] for _ in range(L)]
    for l in range(L):
        needed = all_needed[l]
        needed_cols.append(needed)
        terms: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        my_deps: list[int] = []
        if needed.size:
            needed_mask = np.zeros(partition.n, dtype=bool)
            needed_mask[needed] = True
            for k in range(L):
                if k == l:
                    continue
                w = weighting.weight_vector(l, k)
                J_k = partition.sets[k]
                sel = (w != 0.0) & needed_mask[J_k]
                if np.any(sel):
                    piece_idx = np.nonzero(sel)[0]
                    terms[k] = (piece_idx, J_k[piece_idx], w[piece_idx])
                    my_deps.append(k)
                    dependents[k].append(l)
        recv_terms.append(terms)
        deps.append(my_deps)
    return CommPattern(
        needed_cols=needed_cols,
        deps=deps,
        dependents=[sorted(v) for v in dependents],
        recv_terms=recv_terms,
    )


@dataclass
class SimRank:
    """What one simulated processor's coroutine works with.

    ``terms[k] = (piece_idx, col_idx, w)`` are this rank's
    ``recv_terms``, keyed by the ranks it depends on, with ``w`` shaped
    to broadcast against the payload; ``seconds`` accumulates the *real*
    wall-clock of its block solves.
    """

    l: int
    system: LocalSystem
    host: Host
    rows: np.ndarray
    core_mask: np.ndarray
    needed: np.ndarray
    dependents: list[int]
    terms: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]
    z_init: np.ndarray
    k_width: int
    factor_ready_at: float = 0.0
    seconds: float = 0.0

    def start(self, ctx: SimContext):
        """Generator: charge set-up; returns the start copy and its piece."""
        yield from charge_initialisation(ctx, self.system)
        self.factor_ready_at = ctx.now
        z = self.z_init.copy()
        return z, z[self.rows].copy()

    def solve(self, z: np.ndarray) -> np.ndarray:
        """Solve the band system against ``z`` (real work, timed)."""
        t0 = time.perf_counter()
        piece = self.system.solve_with(z)
        self.seconds += time.perf_counter() - t0
        return piece

    def send_piece(self, ctx: SimContext, piece: np.ndarray, payload, **kwargs):
        """Generator: ship ``XSub`` to every rank that depends on this one."""
        for k in self.dependents:
            yield ctx.send(
                k, nbytes=vector_bytes(piece.shape[0], self.k_width),
                payload=payload, **kwargs,
            )

    def fold(self, z: np.ndarray, k: int, piece: np.ndarray) -> None:
        """Add rank ``k``'s piece into the local copy: ``z += E_lk piece``.

        Only the components this rank's coupling block reads
        (``needed``, zeroed by the caller before a fold pass) are
        touched.
        """
        piece_idx, col_idx, w = self.terms[k]
        z[col_idx] += w * piece[piece_idx]

    def outcome(self, ctx: SimContext, iterations, piece, converged, messages=0):
        """The coroutine's return value."""
        return ProcOutcome(
            rank=self.l,
            iterations=iterations,
            core_piece=piece[self.core_mask],
            factor_ready_at=self.factor_ready_at,
            finished_at=ctx.now,
            locally_converged=converged,
            detection_messages=messages,
        )


def simulate(
    A, b, partition, weighting, solver, cluster: Cluster, proc, *,
    mode: str, x0=None, cache=None, executor=None, placement=None,
) -> SolveResult:
    """Run ``proc(ctx, rank)`` as one simulated process per band.

    The shared deployment of both distributed algorithms: ranks are
    mapped to hosts (``placement``), the band systems are sliced and
    factored for real (through ``cache``; ``executor`` parallelises that
    setup), and the run is decided "nem" up front when a band does not
    fit its host -- a rank dying of OOM mid-protocol would leave its
    neighbours blocked, and this is also how "nem" manifests for MPI
    codes: the job aborts as a whole.
    """
    b = np.asarray(b, dtype=float)
    z_init = np.zeros(b.shape) if x0 is None else np.asarray(x0, dtype=float).copy()
    if z_init.shape != b.shape:
        raise ValueError(f"x0 must have shape {b.shape}")
    batched = b.ndim == 2
    L = partition.nprocs
    hosts = placement_for(cluster, L, plan=placement)
    cache_before = cache.stats.snapshot() if cache is not None else None

    def cache_delta():
        return cache.stats.since(cache_before) if cache is not None else None

    systems = build_local_systems(
        A, b, partition.sets, solver, cache=cache, executor=executor
    )
    if any(band_memory_bytes(s) > h.memory_free for s, h in zip(systems, hosts)):
        return SolveResult(
            x=None,
            converged=False,
            status=STATUS_NEM,
            iterations=0,
            residual=float("nan"),
            mode=mode,
            nprocs=L,
            per_proc_iterations=[0] * L,
            simulated_time=0.0,
            factorization_time=0.0,
            cache_stats=cache_delta(),
        )
    pattern = communication_pattern(partition, weighting, systems)
    ranks = [
        SimRank(
            l=l,
            system=systems[l],
            host=hosts[l],
            rows=partition.sets[l],
            core_mask=np.isin(partition.sets[l], partition.core[l]),
            needed=pattern.needed_cols[l],
            dependents=pattern.dependents[l],
            terms={
                k: (piece_idx, col_idx, w[:, None] if batched else w)
                for k, (piece_idx, col_idx, w) in pattern.recv_terms[l].items()
            },
            z_init=z_init,
            k_width=b.shape[1] if batched else 1,
        )
        for l in range(L)
    ]
    recorder = TraceRecorder(keep_events=0)
    engine = cluster.make_engine(trace=recorder)
    for rank in ranks:
        engine.spawn(partial(proc, rank=rank), rank.host, name=f"ms-{mode}-{rank.l}")
    engine.run()
    outcomes: list[ProcOutcome] = engine.results()
    x = assemble_solution(partition, outcomes)
    converged = all(o.locally_converged for o in outcomes)
    summary = None
    if placement is not None:
        # Provenance includes the *actual* host mapping (by-name when the
        # plan was built from this cluster, positional for generic plans).
        summary = dict(placement.summary(), hosts=[h.name for h in hosts])
    return SolveResult(
        x=x,
        converged=converged,
        status=STATUS_OK if converged else STATUS_MAXITER,
        iterations=max(o.iterations for o in outcomes),
        residual=residual_norm(A, x, b),
        mode=mode,
        nprocs=L,
        per_proc_iterations=[o.iterations for o in outcomes],
        simulated_time=max(o.finished_at for o in outcomes),
        factorization_time=max(o.factor_ready_at for o in outcomes),
        detection_messages=sum(o.detection_messages for o in outcomes),
        stats=recorder.stats(),
        cache_stats=cache_delta(),
        backend=executor.name if executor is not None else "inline",
        block_seconds={rank.l: rank.seconds for rank in ranks},
        placement=summary,
    )
