"""Elastic re-planning: react to fleet churn without touching iterates.

The paper's grid setting fixes the machine set for a whole run, but the
multisplitting theory does not: the convergence results hold per sweep,
so the *splitting-to-worker* assignment may change between iterations as
long as every block is solved by somebody each round.
:class:`ElasticController` exploits exactly that freedom: once per round
(at the quiescent barrier, where no solve is in flight) it compares the
fleet's ``membership_version()`` against the last one it saw.  When
the fleet changed (a grow, a shrink, a recovery) it computes a fresh
block-to-worker assignment over the *live* fleet -- deterministic LPT
greedy on the block solve seconds measured since its last replan --
and the fleet's ``migrate`` ships only the moved blocks (the ``adopt``
verb underneath: each adopter re-factors through its own cache).

Membership is a fleet's alone (processes, sockets, or a chaos wrapper
of one): the controller calls the fleet's membership verbs directly.
A run whose executor has no fleet gets no controller at all -- that
decision is :func:`repro.core.session._resolve_elastic`'s -- and stays
the plain barrier.

Partition *sizes* are never changed mid-binding: a block solve is a pure
function of ``(block, z)``, so moving blocks between workers keeps the
iterates bit-identical to the undisturbed run -- the elastic conformance
matrix in ``tests/test_elastic.py`` asserts exactly that, and the
``elastic.migration`` model in :mod:`repro.check.models` verifies the
boundary-guarded protocol admits no double fold.
"""

from __future__ import annotations

__all__ = ["ElasticController", "balanced_assignment"]


def balanced_assignment(
    weights: dict[int, float], workers: list[int]
) -> dict[int, int]:
    """Deterministic LPT-greedy block-to-worker assignment.

    Heaviest block first onto the least-loaded worker, ties broken by
    lowest rank -- the same rule
    :func:`repro.runtime.resilience.reassign_orphans` uses for orphan
    re-homing, applied to the whole block set.  Deterministic by
    construction, so every driver replans identically.
    """
    if not workers:
        raise ValueError("no workers to assign blocks to")
    ranks = sorted(set(int(w) for w in workers))
    load = {w: 0.0 for w in ranks}
    count = {w: 0 for w in ranks}
    assignment: dict[int, int] = {}
    order = sorted(weights, key=lambda l: (-weights[l], l))
    for l in order:
        w = min(ranks, key=lambda r: (load[r], count[r], r))
        assignment[l] = w
        load[w] += weights[l]
        count[w] += 1
    return assignment


class ElasticController:
    """Per-round elastic re-planning against one live executor binding.

    Drivers call :meth:`maybe_replan` once per outer iteration, at the
    quiescent round boundary (all pieces folded, nothing in flight).
    The controller is deliberately read-mostly: one integer compare per
    round in the steady state, with measurement and migration only when
    the membership changed.  ``executor`` must have worker membership
    (``membership_version``, ``block_seconds``, ``alive_workers``,
    ``migrate``): a fleet, or a chaos wrapper of one.
    """

    def __init__(self, executor, nblocks: int, *, tracer=None):
        self.executor = executor
        self.nblocks = int(nblocks)
        self.tracer = tracer
        self.replans = 0
        self.blocks_moved = 0
        self.rebase()

    def rebase(self) -> None:
        """Take the executor's current membership and seconds as unchanged.

        Runs at construction, and again when a run binds a controller
        built before it: ``attach`` itself bumps the membership version,
        which is not churn.
        """
        self._seen_version = self.executor.membership_version()
        self._prev_seconds = self.executor.block_seconds()

    def _weights(self) -> dict[int, float]:
        """Per-block weights: measured seconds since the last replan.

        Cumulative seconds would let ancient history outvote the
        current fleet's actual speeds, so only the delta since the last
        replan matters; blocks with no signal yet weigh equally.
        """
        now = self.executor.block_seconds()
        delta = {
            l: max(now.get(l, 0.0) - self._prev_seconds.get(l, 0.0), 0.0)
            for l in range(self.nblocks)
        }
        if sum(delta.values()) <= 0.0:
            return {l: 1.0 for l in range(self.nblocks)}
        floor = max(delta.values()) * 1e-3
        return {l: max(s, floor) for l, s in delta.items()}

    def maybe_replan(self, round_index: int) -> int:
        """Re-balance over the live fleet if its membership changed.

        Returns the number of blocks migrated (0 when nothing changed).
        """
        ex = self.executor
        if ex.membership_version() == self._seen_version:
            return 0
        weights = self._weights()
        self.rebase()
        alive = ex.alive_workers()
        moved = ex.migrate(balanced_assignment(weights, alive))
        self.replans += 1
        self.blocks_moved += moved
        if self.tracer is not None:
            self.tracer.event(
                "elastic.replan", cat="elastic", lane="driver",
                round=int(round_index), moved=moved, workers=len(alive),
            )
        return moved
