"""Model of the elastic membership/migration protocol.

:class:`ElasticModel` checks the one rule the elastic re-planner's
safety rests on: **migration happens only at a quiescent round
boundary**.  A fleet worker answers each round's ``solve`` frame with
one ``("done", epoch, blocks, seconds[, pieces])`` reply covering every
block it owns (the verb table in :mod:`repro.runtime.fleet`).  This
model still counts one reply per block per round -- the per-worker
batch is not modelled yet; that comes when the models are ported onto
the shipped transport.  A membership change (a grown worker joining,
or a shrink re-homing a retiree's blocks -- the adopt mechanics are
identical) re-assigns blocks *without bumping the epoch*; stragglers
therefore cannot be filtered by ticket, and correctness comes purely
from the in-flight set being empty when ownership moves.

The model runs a 2-block fleet for two counted rounds while a third
worker joins at a nondeterministic moment.  The clean protocol notices
the membership change only between rounds, after every reply of the
round has been folded, and migrates block 1 to the newcomer there:
every round folds each block exactly once, every folded reply belongs
to the round that dispatched it, and no block ever has two workers
holding a live dispatch.

``boundary_guard=False`` is the known-bug variant: the driver applies
the migration the moment it notices, mid-round, adopting block 1 onto
the newcomer and re-dispatching it while the old owner's solve for the
same round is still in flight.  Both replies are then legitimate by
epoch, so depending on arrival order the round either folds block 1
twice (:func:`~repro.check.invariants.no_double_fold`) or the stale
reply lingers and splices a previous round's piece into the next one;
either way :func:`~repro.check.invariants.single_owner` also catches
the moment two workers hold the same block's dispatch.
"""

from __future__ import annotations

from repro.check.engine import Model, SimThread, cond_schedule, schedule
from repro.check.invariants import holds, no_double_fold, single_owner

__all__ = ["ElasticModel"]


class ElasticModel(Model):
    """Mid-solve membership change: migrate only at quiescence."""

    name = "elastic.migration"

    def __init__(self, *, boundary_guard: bool = True, nrounds: int = 2):
        self.boundary_guard = boundary_guard
        self.nrounds = nrounds
        self.nblocks = 2
        self.nworkers = 3  # rank 2 joins mid-run
        self.owner = {0: 0, 1: 1}
        #: per-worker task queues of (block, dispatch round).
        self.tasks: dict[int, list[tuple[int, int]]] = {
            w: [] for w in range(self.nworkers)
        }
        self.pipes: dict[int, list[tuple[int, int]]] = {
            w: [] for w in range(self.nworkers)
        }
        self.joined = False
        self.migrated = False
        self.finished = False
        self.round = 0
        #: (fold round, block, reply's dispatch round) at each fold.
        self.folds: list[tuple[int, int, int]] = []
        #: block -> workers currently holding a live dispatch for it.
        self.claims: dict[int, set[int]] = {0: set(), 1: set()}

    # -- threads -----------------------------------------------------

    def _migrate(self) -> None:
        """Re-home block 1 onto the newly joined worker 2."""
        self.migrated = True
        self.owner[1] = 2
        if self.boundary_guard:
            # Quiescent boundary: nothing in flight, ownership moves
            # cleanly; the next round dispatches to the adopter.
            self.claims[1] = {2}
        else:
            # Known-bug variant: adopt + re-dispatch while the old
            # owner's solve for this round is still outstanding.
            self.claims[1].add(2)
            self.tasks[2].append((1, self.round))

    def _worker(self, w: int) -> SimThread:
        while True:
            yield from cond_schedule(
                lambda: bool(self.tasks[w]) or self.finished
            )
            if self.finished:
                return
            l, t = self.tasks[w].pop(0)
            yield from schedule()  # the solve
            self.pipes[w].append((l, t))
            yield from schedule()

    def _joiner(self) -> SimThread:
        # Scheduler choice = when the grown worker's membership event
        # becomes visible to the driver.
        yield from schedule()
        if not self.finished:
            self.joined = True

    def _driver(self) -> SimThread:
        while self.round < self.nrounds:
            for l in sorted(self.owner):
                w = self.owner[l]
                self.tasks[w].append((l, self.round))
                self.claims[l].add(w)
            yield from schedule()
            got = 0
            while got < self.nblocks:
                yield from cond_schedule(
                    lambda: any(self.pipes.values())
                    or (
                        not self.boundary_guard
                        and self.joined
                        and not self.migrated
                    )
                )
                if (
                    not self.boundary_guard
                    and self.joined
                    and not self.migrated
                ):
                    self._migrate()
                for w in range(self.nworkers):
                    while self.pipes[w] and got < self.nblocks:
                        l, t = self.pipes[w].pop(0)
                        self.folds.append((self.round, l, t))
                        self.claims[l].discard(w)
                        got += 1
                        yield from schedule()
            # Round boundary: every reply counted -- the in-flight set
            # is empty, which is the *only* thing that makes an
            # epoch-preserving migration safe.
            if self.boundary_guard and self.joined and not self.migrated:
                self._migrate()
            self.round += 1
        self.finished = True

    def threads(self):
        out = [("driver", self._driver)]
        for w in range(self.nworkers):
            out.append((f"w{w}", lambda w=w: self._worker(w)))
        out.append(("join", self._joiner))
        return out

    # -- invariants --------------------------------------------------

    def _per_round_folds(self) -> str | None:
        for r in range(self.nrounds):
            msg = no_double_fold([l for rr, l, _ in self.folds if rr == r])
            if msg is not None:
                return f"round {r}: {msg}"
        return None

    def _fresh_folds(self) -> str | None:
        for r, l, t in self.folds:
            if t != r:
                return (
                    f"stale piece folded: block {l}'s round-{t} reply "
                    f"folded into round {r}"
                )
        return None

    def _single_owner(self) -> str | None:
        return single_owner(
            {l: c for l, c in self.claims.items() if c}
        )

    def invariants(self):
        return [
            ("no-double-fold-per-round", holds(self._per_round_folds)),
            ("fresh-round-folds", holds(self._fresh_folds)),
            ("single-owner", holds(self._single_owner)),
        ]
