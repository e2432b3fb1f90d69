"""Convergence votes for the synchronous algorithm.

In synchronous mode every processor reaches the detection point once per
outer iteration, so detection is an exact boolean AND-reduction.  Two
schedules are provided because their *cost* differs (which matters on the
WAN topologies the paper studies):

* ``centralized`` -- linear gather to rank 0 plus linear release, the
  shape of the master-based algorithm of [2];
* ``decentralized`` -- binomial-tree reduction and broadcast, the
  communication shape of the tree protocol of [4].
"""

from __future__ import annotations

from repro.grid.comm import _coll_tag  # shared collective-instance tagging
from repro.grid.engine import SimContext

__all__ = ["sync_converged"]

_TAG_UP = "__syncdet_up__"
_TAG_DOWN = "__syncdet_down__"


def sync_converged(ctx: SimContext, local_flag: bool, *, method: str = "centralized"):
    """AND-combine per-rank flags; every rank returns the global verdict.

    Generator: drive with ``yield from``.  All ranks must call it once per
    iteration (it is itself a collective).
    """
    if method == "centralized":
        return (yield from _centralized(ctx, local_flag))
    if method == "decentralized":
        return (yield from _tree(ctx, local_flag))
    raise KeyError(f"unknown synchronous detection method {method!r}")


def _centralized(ctx: SimContext, flag: bool):
    size, rank = ctx.nprocs, ctx.rank
    tag_up = _coll_tag(ctx, _TAG_UP)
    tag_down = _coll_tag(ctx, _TAG_DOWN)
    if size == 1:
        return bool(flag)
    if rank == 0:
        verdict = bool(flag)
        for _ in range(size - 1):
            msg = yield ctx.recv(tag=tag_up)
            verdict = verdict and bool(msg.payload)
        for dst in range(1, size):
            yield ctx.send(dst, nbytes=16, payload=verdict, tag=tag_down)
        return verdict
    yield ctx.send(0, nbytes=16, payload=bool(flag), tag=tag_up)
    msg = yield ctx.recv(source=0, tag=tag_down)
    return bool(msg.payload)


def _tree(ctx: SimContext, flag: bool):
    """Binomial tree: combine from children, pass to parent, verdict flows back."""
    size, rank = ctx.nprocs, ctx.rank
    tag_up = _coll_tag(ctx, _TAG_UP)
    tag_down = _coll_tag(ctx, _TAG_DOWN)
    if size == 1:
        return bool(flag)
    verdict = bool(flag)
    # children of `rank` in the binomial tree rooted at 0: rank + m for
    # powers of two m > rank with rank + m < size
    mask = 1
    while mask < size:
        if rank < mask:
            child = rank + mask
            if child < size:
                msg = yield ctx.recv(source=child, tag=tag_up)
                verdict = verdict and bool(msg.payload)
        mask <<= 1
    if rank != 0:
        # parent: clear the highest set bit of the rank
        parent = rank - (1 << (rank.bit_length() - 1))
        yield ctx.send(parent, nbytes=16, payload=verdict, tag=tag_up)
        msg = yield ctx.recv(source=parent, tag=tag_down)
        verdict = bool(msg.payload)
    # push verdict down to children
    mask = 1
    while mask < size:
        if rank < mask:
            child = rank + mask
            if child < size:
                yield ctx.send(child, nbytes=16, payload=verdict, tag=tag_down)
        mask <<= 1
    return verdict
