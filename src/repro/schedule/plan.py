"""The :class:`Placement` plan: one scheduling object shared by both worlds.

The paper's Section 6 results hinge on *where* bands live: the
homogeneous cluster1, the heterogeneous cluster2 and the two-site
cluster3 behave differently because block sizes and communication paths
must match host speeds and link capacities.  A :class:`Placement`
captures that decision once -- band sizes, block-to-worker assignment,
and co-location groups -- and both consumers read the same plan:

* the **simulated** drivers (:func:`repro.core.sync.run_synchronous`,
  :func:`repro.core.asynchronous.run_asynchronous`) map rank ``l`` onto
  the plan's worker's host, so the simulator charges the band exactly
  where the plan put it;
* the **real** fleets (:mod:`repro.runtime` processes and sockets)
  pin block ``l`` to worker ``assignment[l]``, so a block's factors stay
  in the worker that owns them across rounds; the in-process backends
  (inline, threads) validate the plan and ignore it.

Plans come from three sources, matching the ``--placement`` flag of
``repro-experiments``:

* :func:`uniform_placement` -- equal bands, round-robin-free identity
  assignment (the baseline every schedule is measured against);
* :func:`proportional_placement` -- bands sized to raw speed ratios
  (the paper's heterogeneous load balance);
* :func:`cost_model_placement` / :func:`cluster_placement` (strategy
  ``"calibrated"``) -- bands sized so *estimated per-iteration time* is
  equal, using flop costs from :mod:`repro.direct.costs` and per-band
  message-volume terms from the link model -- a WAN-facing band shrinks
  to absorb the slow link it sits behind.

For live calibration of real workers (measured speeds instead of
modeled ones) see :mod:`repro.schedule.calibrate`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.partition import (
    BandPartition,
    GeneralPartition,
    cost_balanced_bands,
    proportional_bands,
    uniform_bands,
)
from repro.direct.costs import sparse_factor_cost
from repro.grid.comm import vector_bytes

__all__ = [
    "WorkerSlot",
    "Placement",
    "band_comm_costs",
    "route_seconds",
    "uniform_placement",
    "proportional_placement",
    "cost_model_placement",
    "cluster_placement",
    "iteration_cost_model",
]

#: Strategy names accepted by the builders and the ``--placement`` flag.
STRATEGIES = ("uniform", "proportional", "calibrated")


@dataclass(frozen=True)
class WorkerSlot:
    """One execution slot a block can be pinned to.

    In the simulated world a slot is a grid host (``name`` matches
    ``Host.name``, ``group`` its site); in the real runtime it is a
    worker thread / process / socket peer.  ``speed`` is a *relative*
    rate -- only ratios matter to the planners.
    """

    name: str
    speed: float = 1.0
    group: str = "local"

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise ValueError(f"worker {self.name!r}: speed must be positive")


@dataclass(frozen=True)
class Placement:
    """A complete scheduling plan for one decomposition.

    Attributes
    ----------
    strategy:
        How the plan was produced (``"uniform"``, ``"proportional"``,
        ``"calibrated"``, or a free-form label for hand-built plans).
    n:
        Number of unknowns the bands cover.
    workers:
        The execution slots, in placement order.
    sizes:
        ``sizes[l]`` is the core size of band ``l`` (sums to ``n``).
    assignment:
        ``assignment[l]`` is the worker index block ``l`` runs on.  One
        block per worker (the identity) is the paper's deployment; many
        blocks per worker oversubscribes.
    overlap:
        Overlap baked into :meth:`partition`.
    layout:
        Optional :class:`~repro.core.partition.GeneralPartition` the plan
        schedules.  ``None`` (the default) means the plan prescribes
        contiguous bands built from ``sizes``; a layout makes the plan
        carry an arbitrary (interleaved, permuted, overlapping) index-set
        decomposition -- ``sizes`` are then the *core* sizes of its
        blocks, and :meth:`partition` returns the layout itself.
    """

    strategy: str
    n: int
    workers: tuple[WorkerSlot, ...]
    sizes: tuple[int, ...]
    assignment: tuple[int, ...]
    overlap: int = 0
    layout: GeneralPartition | None = None

    def __post_init__(self) -> None:
        if not self.workers:
            raise ValueError("a placement needs at least one worker")
        if not self.sizes:
            raise ValueError("a placement needs at least one block")
        if any(s < 1 for s in self.sizes):
            raise ValueError("every block needs at least one row")
        if sum(self.sizes) != self.n:
            raise ValueError(
                f"block sizes cover {sum(self.sizes)} rows but n={self.n}"
            )
        if len(self.assignment) != len(self.sizes):
            raise ValueError(
                f"{len(self.assignment)} assignments for {len(self.sizes)} blocks"
            )
        if any(not (0 <= w < len(self.workers)) for w in self.assignment):
            raise ValueError("assignment references an unknown worker")
        if self.overlap < 0:
            raise ValueError("overlap must be non-negative")
        if self.layout is not None:
            if self.layout.n != self.n:
                raise ValueError(
                    f"layout covers {self.layout.n} unknowns but n={self.n}"
                )
            if self.layout.nprocs != len(self.sizes):
                raise ValueError(
                    f"layout has {self.layout.nprocs} blocks but the plan "
                    f"schedules {len(self.sizes)}"
                )
            core_sizes = tuple(int(c.size) for c in self.layout.core)
            if core_sizes != tuple(self.sizes):
                raise ValueError(
                    "plan sizes must equal the layout's core sizes "
                    f"({core_sizes} vs {tuple(self.sizes)})"
                )

    @property
    def nblocks(self) -> int:
        """Number of blocks the plan schedules."""
        return len(self.sizes)

    @property
    def nworkers(self) -> int:
        """Number of execution slots."""
        return len(self.workers)

    def partition(
        self, *, overlap: int | None = None
    ) -> BandPartition | GeneralPartition:
        """The partition this plan prescribes.

        Band plans (no ``layout``) return the :class:`BandPartition`
        built from ``sizes``; general plans return their ``layout``
        verbatim (both lower to the same representation via
        ``.to_general()``, so callers need no isinstance check).
        """
        if self.layout is not None:
            if overlap is not None and overlap != self.overlap:
                raise ValueError(
                    "a general layout's overlap is baked into its index "
                    "sets and cannot be overridden"
                )
            return self.layout
        bounds = []
        start = 0
        for s in self.sizes:
            bounds.append((start, start + s))
            start += s
        return BandPartition(
            n=self.n,
            bounds=tuple(bounds),
            overlap=self.overlap if overlap is None else overlap,
        )

    def worker_of(self, block: int) -> WorkerSlot:
        """The slot block ``block`` is pinned to."""
        return self.workers[self.assignment[block]]

    def with_layout(
        self, partition: GeneralPartition, *, overlap: int = 0
    ) -> "Placement":
        """Re-target this plan at a general index-set decomposition.

        Keeps the workers, assignment, and strategy label; replaces the
        band sizes with the layout's core sizes (general decompositions
        fix their own sizes -- interleaving chunks, a permutation's
        slices -- so the band planner's sizes no longer apply).  The
        layout must schedule the same number of blocks.  ``overlap``
        records the annexation the layout was built with (informational
        -- the layout's index sets already contain it), so result
        summaries report the real value instead of 0.
        """
        if partition.nprocs != self.nblocks:
            raise ValueError(
                f"layout has {partition.nprocs} blocks but the plan "
                f"schedules {self.nblocks}"
            )
        return replace(
            self,
            n=partition.n,
            sizes=tuple(int(c.size) for c in partition.core),
            overlap=overlap,
            layout=partition,
        )

    def colocation_groups(self) -> dict[str, list[int]]:
        """Worker indices per co-location group (site), in worker order.

        Blocks whose workers share a group exchange pieces over the
        cheap local links; a group boundary between *adjacent* bands is
        where WAN traffic happens.
        """
        groups: dict[str, list[int]] = {}
        for i, w in enumerate(self.workers):
            groups.setdefault(w.group, []).append(i)
        return groups

    def summary(self) -> dict:
        """Compact JSON-able description surfaced on result records."""
        return {
            "strategy": self.strategy,
            "n": self.n,
            "sizes": list(self.sizes),
            "assignment": list(self.assignment),
            "workers": [
                {"name": w.name, "speed": w.speed, "group": w.group}
                for w in self.workers
            ],
            "overlap": self.overlap,
            "partition": "bands" if self.layout is None else "general",
        }


def _from_bands(
    strategy: str,
    band: BandPartition,
    workers: tuple[WorkerSlot, ...],
) -> Placement:
    sizes = tuple(stop - start for start, stop in band.bounds)
    return Placement(
        strategy=strategy,
        n=band.n,
        workers=workers,
        sizes=sizes,
        assignment=tuple(range(len(sizes))),
        overlap=band.overlap,
    )


def _default_workers(count: int, speeds=None, groups=None) -> tuple[WorkerSlot, ...]:
    return tuple(
        WorkerSlot(
            name=f"worker-{i:02d}",
            speed=1.0 if speeds is None else float(speeds[i]),
            group="local" if groups is None else str(groups[i]),
        )
        for i in range(count)
    )


def uniform_placement(
    n: int, nworkers: int, *, overlap: int = 0, workers=None
) -> Placement:
    """Equal bands, identity assignment -- the paper's homogeneous layout."""
    ws = tuple(workers) if workers is not None else _default_workers(nworkers)
    if len(ws) != nworkers:
        raise ValueError(f"{len(ws)} workers for nworkers={nworkers}")
    return _from_bands("uniform", uniform_bands(n, nworkers, overlap=overlap), ws)


def proportional_placement(
    n: int, speeds: list[float], *, overlap: int = 0, workers=None
) -> Placement:
    """Bands sized to raw speed ratios (cluster2/cluster3 load balance)."""
    ws = tuple(workers) if workers is not None else _default_workers(
        len(speeds), speeds=speeds
    )
    if len(ws) != len(speeds):
        raise ValueError(f"{len(ws)} workers for {len(speeds)} speeds")
    return _from_bands(
        "proportional", proportional_bands(n, list(speeds), overlap=overlap), ws
    )


def iteration_cost_model(density: float, *, fill_ratio: float = 8.0, k: int = 1):
    """Per-iteration work of a band of ``s`` rows, as a ``cost(s)`` callable.

    A band's outer iteration is one coupling mat-vec plus the two
    triangular sweeps through its factors; with ``density`` non-zeros
    per row the triangular cost comes from
    :func:`repro.direct.costs.sparse_factor_cost` and the mat-vec adds
    ``2 * density * s``.  Batched right-hand sides multiply everything
    by the batch width ``k``.
    """
    if density <= 0:
        raise ValueError("density must be positive")

    def cost(s: int) -> float:
        nnz = density * s
        solve = sparse_factor_cost(max(int(s), 1), int(nnz), fill_ratio=fill_ratio)
        return k * (solve.solve_flops + 2.0 * nnz)

    return cost


def cost_model_placement(
    n: int,
    speeds: list[float],
    *,
    cost=None,
    fixed: list[float] | None = None,
    overlap: int = 0,
    workers=None,
    strategy: str = "calibrated",
) -> Placement:
    """Bands sized so estimated per-iteration *time* is equal.

    ``speeds`` may be modeled (host flop rates) or measured (from
    :func:`repro.schedule.calibrate.measure_worker_speeds`); ``cost``
    maps band size to work (default linear) and ``fixed`` charges each
    band a size-independent per-iteration term (its message latency and
    volume).  See :func:`repro.core.partition.cost_balanced_bands` for
    the balancing rule.
    """
    ws = tuple(workers) if workers is not None else _default_workers(
        len(speeds), speeds=speeds
    )
    if len(ws) != len(speeds):
        raise ValueError(f"{len(ws)} workers for {len(speeds)} speeds")
    band = cost_balanced_bands(
        n, list(speeds), cost=cost, fixed=fixed, overlap=overlap
    )
    return _from_bands(strategy, band, ws)


def route_seconds(cluster, src, dst, nbytes: float) -> float:
    """Price one message of ``nbytes`` from host ``src`` to host ``dst``.

    Latency is the sum over the route's links, volume is charged over
    the narrowest link -- the single a-priori pricing rule every
    scheduler-side cost model shares (:func:`band_comm_costs`, the
    pattern-aware :mod:`repro.schedule.pattern` models), matching the
    quantities :mod:`repro.grid.network` simulates.  Zero for the empty
    route (same host).
    """
    route = cluster.route(src, dst)
    if not route:
        return 0.0
    latency = sum(link.latency for link in route)
    bandwidth = min(link.bandwidth for link in route)
    return latency + nbytes / bandwidth


def band_comm_costs(hosts, cluster, n: int, k: int = 1) -> list[float]:
    """Per-band per-iteration communication seconds, band-formula style.

    Band ``l`` exchanges its piece (roughly ``n / L`` rows plus overlap)
    with its adjacent bands each outer iteration; a message to a
    neighbour on another site crosses the shared WAN link.  The estimate
    charges each neighbour message's latency plus its volume over the
    narrowest link on the route -- exactly the quantities
    :mod:`repro.grid.network` prices, read a-priori.

    This is the *pattern-blind* special case: it assumes nearest-
    neighbour coupling and uniform piece sizes.  The pattern-aware model
    (:func:`repro.schedule.pattern.pattern_comm_costs`) prices the
    actual dependency graph of a given matrix and reduces to this
    formula on uniform band partitions of nearest-neighbour matrices.
    """
    L = len(hosts)
    piece_bytes = vector_bytes(max(1, n // max(L, 1)), k)
    fixed = []
    for l, host in enumerate(hosts):
        seconds = 0.0
        for nb in (l - 1, l + 1):
            if 0 <= nb < L:
                seconds += route_seconds(cluster, host, hosts[nb], piece_bytes)
        fixed.append(seconds)
    return fixed


def cluster_placement(
    cluster,
    nprocs: int | None = None,
    *,
    strategy: str = "proportional",
    overlap: int = 0,
    density: float = 5.0,
    k: int = 1,
    n: int | None = None,
    A=None,
    weighting: str = "ownership",
    partition=None,
) -> Placement:
    """Build a plan from a :class:`repro.grid.topology.Cluster` preset.

    One worker slot per host (in host order), speeds from the host flop
    rates, co-location groups from the sites.  ``strategy`` picks the
    sizing rule:

    * ``"uniform"`` -- equal bands regardless of speed;
    * ``"proportional"`` -- sizes proportional to host speed (the
      bands :class:`~repro.core.solver.MultisplittingSolver` builds on a
      cluster when no placement is given);
    * ``"calibrated"`` -- cost-model balanced: per-iteration flops from
      :func:`iteration_cost_model` (``density`` non-zeros per row,
      batch width ``k``) plus per-band message costs priced over the
      actual LAN/WAN routes, so a band behind the inter-site link
      shrinks to absorb it.  With ``A`` supplied the message terms come
      from the matrix's *actual* dependency graph
      (:func:`repro.schedule.pattern.pattern_comm_costs` under the
      ``weighting`` family) instead of the nearest-neighbour band
      formula -- long-range couplings are priced where they really land.

    ``n`` sizes the bands; builders that defer sizing (the solver
    facade knows ``n`` only at :meth:`solve` time) pass it here.

    ``partition`` (a :class:`~repro.core.partition.GeneralPartition`)
    targets the plan at an arbitrary index-set decomposition instead of
    contiguous bands: the returned plan carries it as its ``layout``
    (see :func:`repro.schedule.pattern.partition_placement`).
    """
    if partition is not None:
        from repro.schedule.pattern import partition_placement

        return partition_placement(
            cluster,
            partition,
            strategy=strategy,
            A=A,
            weighting=weighting,
            k=k,
            nprocs=nprocs,
            overlap=overlap,
        )
    hosts = cluster.hosts if nprocs is None else cluster.hosts[:nprocs]
    if nprocs is not None and nprocs > len(cluster.hosts):
        raise ValueError(
            f"{nprocs} workers requested but cluster {cluster.name!r} has "
            f"{len(cluster.hosts)} hosts"
        )
    if n is None:
        raise ValueError("cluster_placement needs the problem size n")
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    workers = tuple(
        WorkerSlot(name=h.name, speed=h.speed, group=h.site) for h in hosts
    )
    speeds = [h.speed for h in hosts]
    if strategy == "uniform":
        return uniform_placement(n, len(hosts), overlap=overlap, workers=workers)
    if strategy == "proportional":
        return proportional_placement(n, speeds, overlap=overlap, workers=workers)
    if A is not None:
        # Pattern-aware message terms: seed with proportional bands (the
        # best guess before comm is priced), derive the real dependency
        # graph on them, then re-balance with the priced per-band costs.
        from repro.core.weighting import make_weighting
        from repro.schedule.pattern import pattern_comm_costs

        seed = proportional_bands(n, speeds, overlap=overlap).to_general()
        fixed = pattern_comm_costs(
            A, seed, make_weighting(weighting, seed), list(hosts), cluster, k=k
        )
    else:
        fixed = band_comm_costs(list(hosts), cluster, n, k)
    return cost_model_placement(
        n,
        speeds,
        cost=iteration_cost_model(density, k=k),
        fixed=fixed,
        overlap=overlap,
        workers=workers,
    )
