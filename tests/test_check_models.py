"""The protocol models under their checker (repro.check.models).

Two halves, mirroring the REGISTRY split:

* every *current-protocol* model explores clean under a bounded budget
  (the CI ``modelcheck`` job runs the deep campaign; this is the fast
  tripwire for model edits);
* every *known-bug fixture* still reproduces its violation -- a fixture
  that stops failing means the checker lost its teeth, so these assert
  the violation's kind and invariant by name.

Plus unit tests of the shared invariant predicates themselves: the same
functions run inside the explored models and over the real executors in
``tests/test_runtime_conformance.py``.
"""

from __future__ import annotations

import pytest

from repro.check import explore, explore_exhaustive, explore_random
from repro.check.invariants import (
    no_double_fold,
    no_orphans,
    single_owner,
)
from repro.check.models import (
    REGISTRY,
    ElasticModel,
    PipeReplyModel,
    ReadoptionModel,
    RecoveryModel,
    SharedQueueModel,
)

_CLEAN = sorted(n for n, (_, bad, _) in REGISTRY.items() if not bad)
_FIXTURES = sorted(n for n, (_, bad, _) in REGISTRY.items() if bad)


class TestRegistryShape:
    def test_every_entry_is_well_formed(self):
        for name, (factory, expect, budget) in REGISTRY.items():
            model = factory()
            assert model.threads(), name
            assert model.invariants() or isinstance(
                model, SharedQueueModel
            ), f"{name}: no invariants and not the deadlock fixture"
            assert isinstance(expect, bool)
            assert set(budget) <= {"max_runs", "walks"}

    def test_current_protocols_and_fixtures_counted(self):
        # Four shipped protocols' models, six known-bug fixtures.
        assert len(_CLEAN) == 4
        assert len(_FIXTURES) == 6

    def test_fresh_state_per_factory_call(self):
        for name, (factory, _, _) in REGISTRY.items():
            assert factory() is not factory(), name


class TestCurrentProtocolsClean:
    """Bounded sweep of each shipped protocol's model: no violations."""

    @pytest.mark.parametrize("name", _CLEAN)
    def test_explores_clean(self, name):
        factory, _, _ = REGISTRY[name]
        res = explore(factory, max_runs=1_500, walks=150, seed=1)
        assert res.ok, f"{name}:\n{res.violation}"


class TestFixturesStillBite:
    """Each knob that disables a real guard must reproduce its bug."""

    def test_shared_queue_deadlocks(self):
        # The PR 4 bug: SIGKILL inside the reply queue's critical
        # section leaks the lock.  Bounded DFS misses it (the deadlock
        # needs the killer to strike deep in one branch); the seeded
        # walks land on it in a handful of tries -- the reason explore()
        # runs both strategies.
        res = explore_random(SharedQueueModel, seed=0, walks=100)
        assert res.violation is not None
        assert res.violation.kind == "deadlock"
        assert "driver" in res.violation.detail

    def test_unguarded_requeue_double_folds(self):
        # Found by the explorer while this model was being written: a
        # worker killed after piping its reply but before the driver
        # drained it gets its block requeued, and both generations fold.
        # processes.py's "a requeued block may answer twice" guard is
        # what the requeue_guard knob models.
        res = explore_random(
            lambda: PipeReplyModel(requeue_guard=False), seed=0, walks=400
        )
        assert res.violation is not None
        assert res.violation.kind == "invariant"
        assert res.violation.detail == "no-double-fold"

    def test_unfiltered_epoch_folds_stale_frame(self):
        # Without the filter, the pre-seeded frame from the aborted
        # binding reaches the fold on the very first drain -- caught by
        # the epoch-tracking invariant (the labels alone can't see it:
        # the requeue guard dedups the block number either way).
        res = explore_exhaustive(
            lambda: PipeReplyModel(filter_epochs=False), max_runs=200
        )
        assert res.violation is not None
        assert res.violation.kind == "invariant"
        assert res.violation.detail == "current-epoch-folds-only"

    def test_unfiltered_late_reply_folds_dead_generation(self):
        res = explore_exhaustive(
            lambda: RecoveryModel(late_reply_guard=False), max_runs=100
        )
        assert res.violation is not None
        assert res.violation.kind == "invariant"
        assert res.violation.detail == "fresh-generation-folds"

    def test_stale_assignment_orphans_a_block(self):
        # Recovery consulting the attach-time assignment instead of the
        # live owner map loses blocks adopted in an earlier recovery.
        res = explore_random(
            lambda: ReadoptionModel(track_adoptions=False), seed=0, walks=100
        )
        assert res.violation is not None
        assert res.violation.kind == "invariant"
        assert res.violation.detail == "no-orphans-at-quiescence"

    def test_mid_round_migration_violates_single_owner(self):
        # Elastic migration applied the moment a membership change is
        # noticed -- instead of at the quiescent round boundary -- hands
        # a block to the adopter while the old owner's solve for the
        # same round is still in flight.
        res = explore_exhaustive(
            lambda: ElasticModel(boundary_guard=False), max_runs=2_000
        )
        assert res.violation is not None
        assert res.violation.kind == "invariant"
        assert res.violation.detail == "single-owner"

    def test_mid_round_migration_also_corrupts_the_folds(self):
        # The ownership overlap is not just bookkeeping: with the
        # single-owner witness removed, the explorer still finds the
        # data corruption itself -- a previous round's piece spliced
        # into a later round (and, on other schedules, a double fold).
        class _FoldInvariantsOnly(ElasticModel):
            def invariants(self):
                return [
                    (name, fn)
                    for name, fn in super().invariants()
                    if name != "single-owner"
                ]

        res = explore_random(
            lambda: _FoldInvariantsOnly(boundary_guard=False),
            seed=0, walks=300,
        )
        assert res.violation is not None
        assert res.violation.kind == "invariant"
        assert res.violation.detail in (
            "fresh-round-folds", "no-double-fold-per-round",
        )


class TestInvariantPredicates:
    """The shared spec functions, exercised as plain functions."""

    def test_single_owner(self):
        assert single_owner({0: [1], 1: [2]}) is None
        msg = single_owner({0: [1, 2]})
        assert msg is not None and "block 0" in msg
        assert single_owner({3: []}) is not None  # unowned is also wrong

    def test_no_orphans(self):
        assert no_orphans({0: 1, 1: 1}, live=[1]) is None
        msg = no_orphans({0: 0, 1: 1}, live=[1])
        assert msg is not None and "orphaned" in msg

    def test_no_double_fold(self):
        assert no_double_fold([0, 1, 2]) is None
        msg = no_double_fold([0, 1, 0])
        assert msg is not None and "folded twice" in msg
