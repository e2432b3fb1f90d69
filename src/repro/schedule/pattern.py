"""Pattern-aware message cost model: price the exchanges that really happen.

The band planners (:func:`repro.schedule.plan.band_comm_costs`) assume
the nearest-neighbour exchange structure of contiguous band partitions:
block ``l`` talks to ``l-1`` and ``l+1``, every piece is roughly
``n / L`` rows.  That is exact for Figure 1's layout on banded matrices
and wrong everywhere else -- an interleaved partition's blocks talk to
*many* peers, a permuted one's neighbours are arbitrary, and a matrix
with long-range couplings (an arrow block, a periodic wrap-around) sends
real traffic where the band formula prices none.

This module derives the message structure from the same source the
drivers execute it from -- :func:`repro.core.distributed
.communication_pattern` over the matrix pattern and the weighting family
-- and prices each per-iteration message over the actual LAN/WAN route
between the hosts involved:

* :func:`message_bytes_matrix` -- the per-iteration payload matrix
  ``bytes[l, m]`` (what block ``l`` sends to block ``m``), byte-exact
  with what the simulator charges per exchange;
* :func:`pattern_comm_costs` -- per-block per-iteration communication
  seconds under a host mapping, the drop-in replacement for the band
  formula's ``fixed`` terms in :func:`repro.core.partition
  .cost_balanced_bands` / :func:`repro.schedule.plan.cost_model_placement`;
* :func:`partition_placement` -- a :class:`~repro.schedule.plan.Placement`
  for an arbitrary :class:`~repro.core.partition.GeneralPartition` over a
  cluster's hosts (the plan carries the decomposition as its ``layout``),
  with a deterministic speed-aware block-to-host assignment under the
  ``"calibrated"`` strategy.

On a uniform band partition of a nearest-neighbour matrix the priced
messages are exactly the band formula's terms (asserted property-style in
``tests/test_pattern_costs.py``): the special case falls out, it is not
reimplemented.
"""

from __future__ import annotations

import numpy as np

from repro.core.distributed import communication_pattern
from repro.core.weighting import make_weighting
from repro.grid.comm import vector_bytes
from repro.schedule.plan import (
    STRATEGIES,
    Placement,
    WorkerSlot,
    iteration_cost_model,
    route_seconds,
)

__all__ = [
    "message_bytes_matrix",
    "pattern_comm_costs",
    "partition_placement",
]


def message_bytes_matrix(A, partition, weighting, *, k: int = 1) -> np.ndarray:
    """Per-iteration payload bytes ``bytes[l, m]`` block ``l`` sends to ``m``.

    Derived from :func:`~repro.core.distributed.communication_pattern`
    over the matrix pattern, so an entry is non-zero exactly when the
    drivers exchange a message on that edge, and its value is exactly
    what the simulator charges for it: one piece of ``|J_l|`` rows
    (``k`` columns) per dependent per outer iteration.
    """
    pattern = communication_pattern(partition, weighting, A=A)
    L = partition.nprocs
    out = np.zeros((L, L))
    for l in range(L):
        nbytes = float(vector_bytes(int(partition.sets[l].size), k))
        for m in pattern.dependents[l]:
            out[l, m] = nbytes
    return out


def pattern_comm_costs(
    A, partition, weighting, hosts, cluster, *, k: int = 1
) -> list[float]:
    """Per-block per-iteration communication seconds under a host mapping.

    Block ``l`` (on ``hosts[l]``) is charged, for every piece it
    *receives*, the message's latency plus its volume over the narrowest
    link of the sender-to-receiver route -- the same quantities
    :mod:`repro.grid.network` prices, read a-priori from the dependency
    graph.  The result slots straight into the ``fixed=`` argument of
    the cost-balancing planners, where the pattern-blind
    :func:`~repro.schedule.plan.band_comm_costs` used to go.
    """
    L = partition.nprocs
    if len(hosts) != L:
        raise ValueError(f"{len(hosts)} hosts for {L} blocks")
    bytes_mat = message_bytes_matrix(A, partition, weighting, k=k)
    fixed: list[float] = []
    for l in range(L):
        seconds = 0.0
        for m in range(L):
            nbytes = float(bytes_mat[m, l])
            if nbytes:
                seconds += route_seconds(cluster, hosts[m], hosts[l], nbytes)
        fixed.append(seconds)
    return fixed


def partition_placement(
    cluster,
    partition,
    *,
    strategy: str = "proportional",
    A=None,
    weighting: str = "ownership",
    k: int = 1,
    nprocs: int | None = None,
    overlap: int = 0,
) -> Placement:
    """A :class:`Placement` scheduling a general partition over a cluster.

    ``overlap`` records the annexation the partition was built with
    (informational -- the index sets already contain it), so result
    summaries report the real value.

    One worker slot per host (speeds from the host flop rates,
    co-location groups from the sites), the partition carried as the
    plan's ``layout`` so drivers and executors consume it unchanged.
    A general decomposition fixes its own block sizes (interleaving
    chunks, a permutation's slices), so the strategies differ only in
    the block-to-host *assignment*:

    * ``"uniform"`` / ``"proportional"`` -- identity (block ``l`` on
      host ``l``, the paper's deployment);
    * ``"calibrated"`` -- a deterministic greedy one-block-per-host
      matching: blocks in decreasing message traffic (then solve cost
      from :func:`~repro.schedule.plan.iteration_cost_model`), each
      taking the free host that minimises its estimated per-iteration
      time -- compute (``work / speed``) plus, when ``A`` is given, the
      priced exchanges with every already-placed partner
      (:func:`message_bytes_matrix` volumes over the candidate host's
      actual routes).  A chatty hub block therefore lands on the big
      site with its partners instead of behind the WAN, and big blocks
      land on fast hosts.  Without ``A`` the matching is pattern-blind
      (compute only).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    L = partition.nprocs
    count = L if nprocs is None else nprocs
    if count != L:
        raise ValueError(
            f"{count} workers requested but the partition has {L} blocks "
            "(general plans pin one block per worker)"
        )
    if L > len(cluster.hosts):
        raise ValueError(
            f"partition has {L} blocks but cluster {cluster.name!r} has "
            f"{len(cluster.hosts)} hosts"
        )
    hosts = cluster.hosts[:L]
    workers = tuple(
        WorkerSlot(name=h.name, speed=h.speed, group=h.site) for h in hosts
    )
    if strategy == "calibrated":
        nnz = getattr(A, "nnz", None)
        density = max(float(nnz) / partition.n, 1.0) if nnz is not None else 5.0
        cost = iteration_cost_model(density, k=k)
        work = [float(cost(int(J.size))) for J in partition.sets]
        speeds = [h.speed for h in hosts]
        if A is not None:
            bytes_mat = message_bytes_matrix(
                A, partition, make_weighting(weighting, partition), k=k
            )
        else:
            bytes_mat = np.zeros((L, L))

        def edge_seconds(src: int, dst: int, nbytes: float) -> float:
            if nbytes == 0.0:
                return 0.0
            return route_seconds(cluster, hosts[src], hosts[dst], nbytes)

        traffic = bytes_mat.sum(axis=0) + bytes_mat.sum(axis=1)
        order = sorted(
            range(L), key=lambda l: (-float(traffic[l]), -work[l], l)
        )
        placed: dict[int, int] = {}
        free = list(range(L))
        for l in order:

            def added(h: int) -> float:
                comm = 0.0
                for m, g in placed.items():
                    comm += edge_seconds(g, h, float(bytes_mat[m, l]))
                    comm += edge_seconds(h, g, float(bytes_mat[l, m]))
                return work[l] / speeds[h] + comm

            best = min(free, key=lambda h: (added(h), h))
            placed[l] = best
            free.remove(best)
        assignment = tuple(placed[l] for l in range(L))
    else:
        assignment = tuple(range(L))
    return Placement(
        strategy=strategy,
        n=partition.n,
        workers=workers,
        sizes=tuple(int(c.size) for c in partition.core),
        assignment=assignment,
        overlap=overlap,
        layout=partition,
    )
