"""Elastic fleets: grow/shrink mid-solve with self-consistent re-planning.

The tentpole property is determinism: a block solve is a pure function
of ``(block, z)``, and elastic migration changes only *where* blocks are
solved, never their sizes -- so a run whose fleet is halved and then
grown back mid-solve must produce **bit-identical** iterates to the
never-disturbed inline run.  The conformance matrix asserts exactly
that, across both distributed backends and every decomposition shape of
the paper's Remarks 2-3.

Around it: membership is a fleet's alone (a fleetless executor runs the
plain barrier under ``elastic=``), the deterministic LPT re-balancer, a controller built before the run that must not read
attach as churn, migration accounting on ``FaultStats``, chaos-driven
churn injection, and the kill-then-grow monotonicity of the wire/cache
counters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    chaotic_iterate,
    make_weighting,
    multisplitting_iterate,
    uniform_bands,
)
from repro.core.partition import interleaved_partition, permuted_bands
from repro.core.stopping import StoppingCriterion
from repro.direct import get_solver
from repro.direct.cache import FactorizationCache
from repro.runtime import (
    ChaosExecutor,
    Executor,
    FaultInjector,
    InlineExecutor,
    ProcessExecutor,
    SocketExecutor,
    ThreadExecutor,
)
from repro.runtime.resilience import has_fleet
from repro.schedule import ElasticController, balanced_assignment

BACKENDS = ("processes", "sockets")

PARTITION_KINDS = ("band", "schwarz", "interleaved", "permuted")


def _make_executor(name, nworkers=3):
    if name == "processes":
        return ProcessExecutor(max_workers=nworkers)
    return SocketExecutor(workers=nworkers)


def _general_problem(kind, n=96, L=4, seed=5):
    """Same decomposition-shape axis as the runtime conformance suite."""
    from repro.matrices import diagonally_dominant, rhs_for_solution

    A = diagonally_dominant(n, dominance=1.5, bandwidth=4, seed=seed)
    b, _ = rhs_for_solution(A, seed=seed + 1)
    if kind == "band":
        part = uniform_bands(n, L).to_general()
        scheme = make_weighting("ownership", part)
    elif kind == "schwarz":
        part = uniform_bands(n, L, overlap=6).to_general()
        scheme = make_weighting("schwarz", part)
    elif kind == "interleaved":
        part = interleaved_partition(n, L, chunk=4)
        scheme = make_weighting("ownership", part)
    else:  # permuted
        perm = np.random.default_rng(seed).permutation(n)
        part = permuted_bands(perm, L, overlap=4)
        scheme = make_weighting("averaging", part)
    return A, b, part, scheme


class TestNoOpContract:
    """Membership is a fleet's: without one, ``elastic=`` is the barrier."""

    _VERBS = (
        "alive_workers", "kill_worker", "grow", "shrink", "migrate",
        "owner_map", "membership_version",
    )

    def test_membership_is_fleet_only(self):
        for cls in (Executor, InlineExecutor, ThreadExecutor):
            assert not [v for v in self._VERBS if hasattr(cls, v)], cls
        for cls in (ProcessExecutor, SocketExecutor):
            assert all(hasattr(cls, v) for v in self._VERBS), cls
        for ex, fleet in (
            (ProcessExecutor(max_workers=2), True),
            (SocketExecutor(workers=2), True),
            (InlineExecutor(), False),
            (ThreadExecutor(max_workers=2), False),
        ):
            assert has_fleet(ex) is fleet and has_fleet(ChaosExecutor(ex)) is fleet
            ex.close()

    def test_elastic_without_a_fleet_is_the_plain_barrier(self):
        A, b, part, scheme = _general_problem("band", n=48, L=2)
        stopping = StoppingCriterion(tolerance=1e-8)
        ref = multisplitting_iterate(
            A, b, part, scheme, get_solver("scipy"), stopping=stopping
        )
        res = multisplitting_iterate(
            A, b, part, scheme, get_solver("scipy"),
            stopping=stopping, elastic=True,
        )
        assert res.converged
        assert res.history == ref.history
        np.testing.assert_array_equal(res.x, ref.x)


    @pytest.mark.parametrize("make", [
        lambda: ThreadExecutor(max_workers=2),
        lambda: ChaosExecutor(InlineExecutor(), FaultInjector(seed=1, drop_rounds=(2,))),
        lambda: ChaosExecutor(ThreadExecutor(max_workers=2), FaultInjector(seed=1)),
    ], ids=["threads", "chaos:inline", "chaos:threads"])
    def test_elastic_on_a_fleetless_executor_is_the_plain_barrier(self, make):
        A, b, part, scheme = _general_problem("band", n=48, L=2)
        stopping = StoppingCriterion(tolerance=1e-8)
        ref = multisplitting_iterate(
            A, b, part, scheme, get_solver("scipy"), stopping=stopping
        )
        ex = make()
        try:
            res = multisplitting_iterate(
                A, b, part, scheme, get_solver("scipy"),
                stopping=stopping, executor=ex, elastic=True,
            )
        finally:
            ex.close()
        assert res.converged
        assert res.history == ref.history
        np.testing.assert_array_equal(res.x, ref.x)


class _ChurnController(ElasticController):
    """Controller that injects one shrink and one grow at fixed rounds.

    The injected membership events go through the public ``shrink`` /
    ``grow`` verbs; the base class then notices the version change and
    re-balances -- exactly the production loop, with a deterministic
    trigger instead of an operator."""

    def __init__(self, executor, nblocks, *, shrink_at, grow_at, tracer=None):
        super().__init__(executor, nblocks, tracer=tracer)
        self.shrink_at = shrink_at
        self.grow_at = grow_at
        self.retired: list[int] = []
        self.added: list[int] = []

    def maybe_replan(self, round_index: int) -> int:
        if round_index == self.shrink_at:
            live = sorted(self.executor.alive_workers())
            self.retired = self.executor.shrink(live[-1:])
        if round_index == self.grow_at:
            self.added = self.executor.grow(1)
        return super().maybe_replan(round_index)


class TestElasticConformance:
    """Grow/shrink mid-solve never changes a single bit of the iterates."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kind", PARTITION_KINDS)
    def test_bit_identical_vs_undisturbed_inline(self, backend, kind):
        A, b, part, scheme = _general_problem(kind)
        stopping = StoppingCriterion(tolerance=1e-300, max_iterations=8)
        ref = multisplitting_iterate(
            A, b, part, scheme, get_solver("scipy"), stopping=stopping
        )
        ex = _make_executor(backend)
        try:
            controller = _ChurnController(ex, part.nprocs, shrink_at=2, grow_at=4)
            res = multisplitting_iterate(
                A, b, part, scheme, get_solver("scipy"),
                stopping=stopping, executor=ex, elastic=controller,
                cache=FactorizationCache(),
            )
        finally:
            ex.close()
        assert len(controller.retired) == 1 and len(controller.added) == 1
        assert controller.replans >= 1
        assert res.history == ref.history
        np.testing.assert_array_equal(res.x, ref.x)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_migration_counters_and_membership(self, backend):
        A, b, part, scheme = _general_problem("band")
        stopping = StoppingCriterion(tolerance=1e-300, max_iterations=8)
        ex = _make_executor(backend)
        try:
            v0 = ex.membership_version()
            controller = _ChurnController(ex, part.nprocs, shrink_at=2, grow_at=4)
            res = multisplitting_iterate(
                A, b, part, scheme, get_solver("scipy"),
                stopping=stopping, executor=ex, elastic=controller,
            )
            v1 = ex.membership_version()
        finally:
            ex.close()
        fs = res.fault_stats
        assert fs is not None
        assert fs.grow_events == 1 and fs.shrink_events == 1
        assert fs.blocks_migrated >= 1
        assert fs.migration_seconds >= 0.0
        # Elastic events are planned reconfiguration, not faults.
        assert fs.workers_lost == 0 and not fs.any_faults
        # attach + shrink + grow (+ replans) each bump the version.
        assert v1 >= v0 + 3

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_chaotic_driver_elastic_bit_identical(self, backend):
        A, b, part, scheme = _general_problem("band")
        stopping = StoppingCriterion(tolerance=1e-300, max_iterations=6)
        ref = chaotic_iterate(
            A, b, part, scheme, get_solver("scipy"),
            stopping=stopping, seed=3,
        )
        ex = _make_executor(backend)
        try:
            controller = _ChurnController(ex, part.nprocs, shrink_at=1, grow_at=3)
            res = chaotic_iterate(
                A, b, part, scheme, get_solver("scipy"),
                stopping=stopping, seed=3, executor=ex, elastic=controller,
            )
        finally:
            ex.close()
        assert len(controller.retired) == 1 and len(controller.added) == 1
        np.testing.assert_array_equal(res.x, ref.x)

    def test_shrink_rejects_retiring_whole_fleet(self):
        A, b, part, scheme = _general_problem("band")
        ex = _make_executor("processes", nworkers=2)
        try:
            ex.attach(A, b, part.sets, get_solver("scipy"))
            with pytest.raises(ValueError, match="whole fleet"):
                ex.shrink([0, 1])
        finally:
            ex.close()

    def test_grow_then_solve_without_controller(self):
        """The verbs are usable directly: grown workers join the pool."""
        A, b, part, scheme = _general_problem("band")
        stopping = StoppingCriterion(tolerance=1e-300, max_iterations=6)
        ref = multisplitting_iterate(
            A, b, part, scheme, get_solver("scipy"), stopping=stopping
        )
        ex = _make_executor("processes", nworkers=2)

        def cb(it, x):
            if it == 2:
                added = ex.grow(2)
                assert added == [2, 3]
                moved = ex.migrate(
                    balanced_assignment(
                        {l: 1.0 for l in range(part.nprocs)},
                        ex.alive_workers(),
                    )
                )
                assert moved >= 1

        try:
            res = multisplitting_iterate(
                A, b, part, scheme, get_solver("scipy"),
                stopping=stopping, executor=ex, callback=cb,
            )
        finally:
            ex.close()
        np.testing.assert_array_equal(res.x, ref.x)

    def test_migrate_validates_blocks_and_targets(self):
        A, b, part, scheme = _general_problem("band")
        ex = _make_executor("processes", nworkers=2)
        try:
            ex.attach(A, b, part.sets, get_solver("scipy"))
            with pytest.raises(KeyError):
                ex.migrate({99: 0})
            with pytest.raises(ValueError):
                ex.migrate({0: 57})
        finally:
            ex.close()


class TestChaosChurn:
    """FaultInjector-driven grow/shrink: churn without touching iterates."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_injected_churn_bit_identical(self, backend):
        A, b, part, scheme = _general_problem("band")
        stopping = StoppingCriterion(tolerance=1e-300, max_iterations=8)
        ref = multisplitting_iterate(
            A, b, part, scheme, get_solver("scipy"), stopping=stopping
        )
        inj = FaultInjector(seed=7, grow_rounds=(2,), shrink_rounds=(4,))
        chaos = ChaosExecutor(_make_executor(backend), inj)
        try:
            res = multisplitting_iterate(
                A, b, part, scheme, get_solver("scipy"),
                stopping=stopping, executor=chaos,
            )
        finally:
            chaos.close()
        np.testing.assert_array_equal(res.x, ref.x)
        fs = res.fault_stats
        assert fs is not None
        assert fs.grow_events == 1 and fs.shrink_events == 1
        assert not fs.any_faults

    def test_chaos_forwards_membership_to_the_fleet(self):
        A, b, part, scheme = _general_problem("band")
        chaos = ChaosExecutor(
            _make_executor("processes", nworkers=2), FaultInjector(seed=0)
        )
        try:
            chaos.attach(A, b, part.sets, get_solver("scipy"))
            v0 = chaos.membership_version()
            added = chaos.grow(1)
            assert len(added) == 1
            assert chaos.membership_version() == v0 + 1
            retired = chaos.shrink(added)
            assert retired == added
            assert chaos.membership_version() == v0 + 2
            assert chaos.membership_version() == chaos.inner.membership_version()
            # every block still owned by a live worker
            live = set(chaos.alive_workers())
            assert set(chaos.owner_map().values()) <= live
            fs = chaos.fault_stats()
            assert fs.grow_events == 1 and fs.shrink_events == 1
        finally:
            chaos.close()


class TestBalancedAssignment:
    def test_lpt_greedy_known_case(self):
        weights = {0: 3.0, 1: 2.0, 2: 2.0, 3: 1.0}
        assert balanced_assignment(weights, [0, 1]) == {0: 0, 1: 1, 2: 1, 3: 0}

    def test_deterministic_and_total(self):
        rng = np.random.default_rng(11)
        weights = {l: float(w) for l, w in enumerate(rng.random(17))}
        a1 = balanced_assignment(weights, [4, 2, 9])
        a2 = balanced_assignment(dict(reversed(list(weights.items()))), [9, 4, 2])
        assert a1 == a2
        assert set(a1) == set(weights)
        assert set(a1.values()) <= {2, 4, 9}

    def test_equal_weights_spread_evenly(self):
        a = balanced_assignment({l: 1.0 for l in range(8)}, [0, 1])
        counts = {w: list(a.values()).count(w) for w in (0, 1)}
        assert counts == {0: 4, 1: 4}

    def test_no_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            balanced_assignment({0: 1.0}, [])


class TestElasticController:
    def test_weights_are_seconds_since_the_last_replan(self):
        """A version bump re-balances on the block seconds measured since
        the previous replan: cumulative seconds would let the first
        window's load outvote the current one."""

        class _Fake:
            def __init__(self):
                self.version = 0
                self.seconds = {0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0}
                self.assignments = []

            def membership_version(self):
                return self.version

            def block_seconds(self):
                return dict(self.seconds)

            def owner_map(self):
                return {0: 0, 1: 0, 2: 1, 3: 1}

            def alive_workers(self):
                return [0, 1]

            def migrate(self, assignment):
                self.assignments.append(dict(assignment))
                return 0

        fake = _Fake()
        ctrl = ElasticController(fake, 4)
        fake.seconds = {0: 9.0, 1: 8.0, 2: 1.0, 3: 1.0}
        assert ctrl.maybe_replan(1) == 0 and fake.assignments == []
        fake.version = 1
        ctrl.maybe_replan(2)
        first = {0: 9.0, 1: 8.0, 2: 1.0, 3: 1.0}
        assert fake.assignments == [balanced_assignment(first, [0, 1])]
        fake.seconds = {0: 10.0, 1: 9.0, 2: 9.0, 3: 10.0}
        fake.version = 2
        ctrl.maybe_replan(3)
        since = {0: 1.0, 1: 1.0, 2: 8.0, 3: 9.0}
        cumulative = fake.seconds
        assert balanced_assignment(since, [0, 1]) != balanced_assignment(
            cumulative, [0, 1]
        )
        assert fake.assignments[1] == balanced_assignment(since, [0, 1])
        assert ctrl.replans == 2


class TestPreBuiltController:
    """A controller built before the run binds sees no churn from attach."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kind", PARTITION_KINDS)
    def test_no_churn_moves_nothing(self, backend, kind):
        A, b, part, scheme = _general_problem(kind)
        stopping = StoppingCriterion(tolerance=1e-300, max_iterations=4)
        ref = multisplitting_iterate(
            A, b, part, scheme, get_solver("scipy"), stopping=stopping
        )
        ex = _make_executor(backend)
        try:
            controller = ElasticController(ex, part.nprocs)
            res = multisplitting_iterate(
                A, b, part, scheme, get_solver("scipy"),
                stopping=stopping, executor=ex, elastic=controller,
            )
        finally:
            ex.close()
        assert controller.replans == 0 and controller.blocks_moved == 0
        assert res.fault_stats.blocks_migrated == 0
        assert res.history == ref.history
        np.testing.assert_array_equal(res.x, ref.x)


class TestKillThenGrowMonotonicity:
    """Counters survive recovery *and* elastic churn without resets."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cache_and_wire_stats_monotone(self, backend):
        from repro.runtime.resilience import FaultPolicy

        A, b, part, scheme = _general_problem("band")
        ex = _make_executor(backend)
        z = [np.zeros(b.shape)] * part.nprocs
        try:
            ex.attach(
                A, b, part.sets, get_solver("scipy"),
                cache=FactorizationCache(),
                fault_policy=FaultPolicy(max_worker_losses=2),
            )
            for _ in range(2):
                ex.solve_round(z)
            s1 = ex.run_cache_stats()
            w1 = ex.wire_stats()
            assert ex.kill_worker(0)
            ex.solve_round(z)  # triggers detection + re-home
            s2 = ex.run_cache_stats()
            added = ex.grow(1)
            assert added
            ex.solve_round(z)
            retired = ex.shrink(1)
            assert retired
            ex.solve_round(z)
            s3 = ex.run_cache_stats()
            w3 = ex.wire_stats()
        finally:
            ex.close()
        # A dead worker's counters fold into the retired accumulator
        # instead of vanishing; grow/shrink never reset or double-count.
        assert s2.hits >= s1.hits and s2.misses >= s1.misses
        assert s3.hits > s2.hits and s3.misses >= s2.misses
        assert w3["vector_bytes_sent"] >= w1["vector_bytes_sent"] > 0
        assert w3["vector_bytes_received"] >= w1["vector_bytes_received"] > 0

    def test_process_respawn_then_grow_rank_never_reused(self):
        """Ranks only ever append: respawns and grows cannot alias slots."""
        from repro.runtime.resilience import FaultPolicy

        A, b, part, scheme = _general_problem("band")
        ex = _make_executor("processes", nworkers=2)
        z = [np.zeros(b.shape)] * part.nprocs
        try:
            ex.attach(
                A, b, part.sets, get_solver("scipy"),
                fault_policy=FaultPolicy(max_worker_losses=2, respawn=True),
            )
            ex.solve_round(z)
            assert ex.kill_worker(1)
            ex.solve_round(z)  # respawn appends a new rank
            added = ex.grow(1)
            live = set(ex.alive_workers())
            assert added and set(added) <= live
            assert len(added) == 1 and added[0] == max(live)
            ex.solve_round(z)
            fs = ex.fault_stats()
        finally:
            ex.close()
        assert fs.workers_lost == 1 and fs.grow_events == 1
