"""Tests for :mod:`repro.serve`: gateway, batcher, pool, metrics, traffic.

The asyncio pieces run under ``asyncio.run`` inside plain sync tests so
no pytest plugin is required.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import gc

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.core.local import LocalSystem
from repro.direct.base import Factorization
from repro.direct.cache import FactorizationCache
from repro.matrices import diagonally_dominant
from repro.serve import (
    GatewayOverloaded,
    MicroBatcher,
    PendingRequest,
    RequestRecord,
    ServeGateway,
    ServeStats,
    SolverPool,
    nearest_rank,
    poisson_trace,
    popularity_weights,
    run_open_loop,
)


def _matrix(n=96, seed=3):
    return diagonally_dominant(n, dominance=1.5, bandwidth=4, seed=seed)


def _direct(A, b):
    return spla.spsolve(A.tocsc(), b)


@pytest.fixture
def pool():
    p = SolverPool(size=2, processors=4)
    yield p
    p.close()


class TestMetrics:
    def test_nearest_rank(self):
        vals = [float(i) for i in range(1, 101)]  # 1..100 sorted
        assert nearest_rank(vals, 50) == 50.0
        assert nearest_rank(vals, 95) == 95.0
        assert nearest_rank(vals, 99) == 99.0
        assert nearest_rank(vals, 100) == 100.0
        assert nearest_rank([7.0], 50) == 7.0
        assert np.isnan(nearest_rank([], 50))
        with pytest.raises(ValueError):
            nearest_rank(vals, 0)
        with pytest.raises(ValueError):
            nearest_rank(vals, 101)

    def test_from_records_derived_values(self):
        records = [
            RequestRecord(tenant="k", latency=0.010 * (i + 1), batch_size=2)
            for i in range(4)
        ]
        stats = ServeStats.from_records(
            records, shed=2, batches=2, wall_seconds=2.0
        )
        assert stats.completed == 4
        assert stats.offered == 6
        assert stats.throughput_rps == pytest.approx(2.0)
        assert stats.mean_batch_size == pytest.approx(2.0)
        assert stats.p50 == pytest.approx(0.020)
        assert stats.p99 == pytest.approx(0.040)
        assert "2.0 req/s" in stats.summary()

    def test_empty_interval_renders(self):
        stats = ServeStats.from_records([], shed=3, batches=0, wall_seconds=1.0)
        assert stats.throughput_rps == 0.0
        assert stats.mean_batch_size == 0.0
        assert np.isnan(stats.p50)
        assert stats.summary()  # must not raise on the all-shed case


class TestMicroBatcher:
    def test_actions_and_take(self):
        mb = MicroBatcher(max_batch=3)
        reqs = [PendingRequest(rhs=None, future=None, arrival=0.0) for _ in range(3)]
        assert mb.add("a", reqs[0]) == "opened"
        assert mb.add("a", reqs[1]) == "queued"
        assert mb.add("b", reqs[2]) == "opened"
        assert mb.pending_requests == 3
        assert sorted(mb.open_keys()) == ["a", "b"]
        assert mb.take("a") == reqs[:2]
        assert mb.take("a") == []  # second taker: benign race, empty
        assert mb.pending_requests == 1

    def test_max_batch_triggers_flush(self):
        mb = MicroBatcher(max_batch=2)

        def req():
            return PendingRequest(rhs=None, future=None, arrival=0.0)

        assert mb.add("a", req()) == "opened"
        assert mb.add("a", req()) == "flush"
        with pytest.raises(ValueError):
            MicroBatcher(max_batch=0)


class TestTraffic:
    def test_popularity_weights(self):
        w = popularity_weights(5, skew=1.0)
        assert w.sum() == pytest.approx(1.0)
        assert np.all(np.diff(w) < 0)  # strictly hot -> cold
        flat = popularity_weights(5, skew=0.0)
        np.testing.assert_allclose(flat, 0.2)
        with pytest.raises(ValueError):
            popularity_weights(0)

    def test_poisson_trace_seeded_and_bounded(self):
        a = poisson_trace(200.0, 1.0, 4, skew=1.0, seed=7)
        b = poisson_trace(200.0, 1.0, 4, skew=1.0, seed=7)
        c = poisson_trace(200.0, 1.0, 4, skew=1.0, seed=8)
        assert a == b  # replayable
        assert a != c
        assert all(0.0 <= arr.at < 1.0 for arr in a)
        assert all(0 <= arr.tenant < 4 for arr in a)
        # ~rate * duration arrivals, and the hot tenant dominates
        assert 120 <= len(a) <= 300
        tenants = [arr.tenant for arr in a]
        assert tenants.count(0) > tenants.count(3)
        with pytest.raises(ValueError):
            poisson_trace(0.0, 1.0, 2)


class TestSolverPool:
    def test_register_is_content_keyed(self, pool):
        A = _matrix(seed=3)
        other = _matrix(seed=4)
        key = pool.register(A)
        assert pool.register(A.copy()) == key  # byte-identical shares
        assert pool.register(other) != key
        assert pool.matrix_for(key) is A
        with pytest.raises(KeyError, match="register"):
            pool.matrix_for("nope")

    def test_solve_batch_multi_rhs(self, pool):
        A = _matrix()
        key = pool.register(A)
        rng = np.random.default_rng(0)
        B = rng.standard_normal((A.shape[0], 5))
        X = pool.solve_batch(key, B)
        assert X.shape == B.shape
        for j in range(5):
            np.testing.assert_allclose(X[:, j], _direct(A, B[:, j]), atol=1e-6)


class TestGateway:
    def test_concurrent_requests_coalesce_into_one_round(self, pool):
        A = _matrix()
        gw = ServeGateway(pool, window=0.05, max_batch=32)
        key = gw.register(A)
        rng = np.random.default_rng(1)
        bs = [rng.standard_normal(A.shape[0]) for _ in range(6)]

        async def scenario():
            return await asyncio.gather(*(gw.submit(key, b) for b in bs))

        xs = asyncio.run(scenario())
        stats = gw.stats(wall_seconds=1.0)
        assert stats.completed == 6
        assert stats.batches == 1  # one (n, 6) round, not six solves
        assert stats.mean_batch_size == pytest.approx(6.0)
        assert stats.latencies[0] > 0.0
        for b, x in zip(bs, xs):
            np.testing.assert_allclose(x, _direct(A, b), atol=1e-6)

    def test_max_batch_splits_rounds(self, pool):
        A = _matrix()
        gw = ServeGateway(pool, window=0.05, max_batch=2)
        key = gw.register(A)
        rng = np.random.default_rng(2)
        bs = [rng.standard_normal(A.shape[0]) for _ in range(6)]

        async def scenario():
            return await asyncio.gather(*(gw.submit(key, b) for b in bs))

        xs = asyncio.run(scenario())
        stats = gw.stats(wall_seconds=1.0)
        assert stats.batches == 3
        assert stats.mean_batch_size == pytest.approx(2.0)
        for b, x in zip(bs, xs):
            np.testing.assert_allclose(x, _direct(A, b), atol=1e-6)

    def test_distinct_matrices_never_share_a_round(self, pool):
        A1, A2 = _matrix(seed=3), _matrix(seed=4)
        gw = ServeGateway(pool, window=0.05, max_batch=32)
        k1, k2 = gw.register(A1), gw.register(A2)
        rng = np.random.default_rng(3)
        b1, b2 = rng.standard_normal(A1.shape[0]), rng.standard_normal(A2.shape[0])

        async def scenario():
            return await asyncio.gather(gw.submit(k1, b1), gw.submit(k2, b2))

        x1, x2 = asyncio.run(scenario())
        assert gw.stats(wall_seconds=1.0).batches == 2
        np.testing.assert_allclose(x1, _direct(A1, b1), atol=1e-6)
        np.testing.assert_allclose(x2, _direct(A2, b2), atol=1e-6)

    def test_back_pressure_sheds_with_typed_error(self, pool):
        A = _matrix()
        gw = ServeGateway(pool, window=0.2, max_batch=32, max_pending=2)
        key = gw.register(A)
        rng = np.random.default_rng(4)

        async def scenario():
            first = [
                asyncio.ensure_future(
                    gw.submit(key, rng.standard_normal(A.shape[0]))
                )
                for _ in range(2)
            ]
            await asyncio.sleep(0)  # let both enter the pending list
            with pytest.raises(GatewayOverloaded) as exc_info:
                await gw.submit(key, rng.standard_normal(A.shape[0]))
            assert exc_info.value.limit == 2
            return await asyncio.gather(*first)

        xs = asyncio.run(scenario())
        assert len(xs) == 2
        stats = gw.stats(wall_seconds=1.0)
        assert stats.shed == 1 and stats.completed == 2

    def test_solve_failure_propagates_to_every_request(self, pool):
        A = _matrix()
        gw = ServeGateway(pool, window=0.05, max_batch=32)
        key = gw.register(A)
        bad = A.shape[0] + 1  # wrong-length rhs: the round itself fails

        async def scenario():
            return await asyncio.gather(
                gw.submit(key, np.ones(bad)),
                gw.submit(key, np.ones(bad)),
                return_exceptions=True,
            )

        out = asyncio.run(scenario())
        assert len(out) == 2
        assert all(isinstance(e, Exception) for e in out)
        assert not isinstance(out[0], GatewayOverloaded)
        # failed requests release their admission slots
        assert gw._admitted == 0

    def test_always_raising_solver_never_leaks_admission_slots(self, pool):
        """Regression: every failed round releases its slots.

        With a leak, three waves of two requests against max_pending=2
        would shed the second wave; with correct accounting every wave
        is admitted and every caller sees the solver's own error."""
        A = _matrix()
        gw = ServeGateway(pool, window=0.0, max_batch=32, max_pending=2)
        key = gw.register(A)

        def boom(key, B):
            raise RuntimeError("solver down")

        pool.solve_batch = boom
        b = np.ones(A.shape[0])

        async def scenario():
            waves = []
            for _ in range(3):
                waves.append(
                    await asyncio.gather(
                        gw.submit(key, b), gw.submit(key, b),
                        return_exceptions=True,
                    )
                )
            return waves

        waves = asyncio.run(scenario())
        for wave in waves:
            assert all(isinstance(e, RuntimeError) for e in wave)
            assert not any(isinstance(e, GatewayOverloaded) for e in wave)
        assert gw._admitted == 0
        assert gw.stats(wall_seconds=1.0).shed == 0

    def test_failed_admission_releases_its_slot(self, pool):
        """A request that dies between admit and batcher hand-off (here:
        a ragged rhs numpy cannot coerce) must hand its slot back."""
        A = _matrix()
        gw = ServeGateway(pool, window=0.05, max_batch=32, max_pending=4)
        key = gw.register(A)

        async def scenario():
            with pytest.raises((ValueError, TypeError)):
                await gw.submit(key, [[1.0, 2.0], [3.0]])
            assert gw._admitted == 0
            # the slot is genuinely reusable
            return await gw.submit(key, np.ones(A.shape[0]))

        x = asyncio.run(scenario())
        np.testing.assert_allclose(x, _direct(A, np.ones(A.shape[0])), atol=1e-6)
        assert gw._admitted == 0

    def test_synchronous_flush_failure_fails_batch_without_leak(self, pool):
        """A timer-fired flush that dies before dispatch (mismatched rhs
        lengths in one coalesced round) must fail every caller in the
        batch and release their slots -- not strand them forever."""
        A = _matrix()
        gw = ServeGateway(pool, window=0.01, max_batch=32, max_pending=4)
        key = gw.register(A)

        async def scenario():
            return await asyncio.gather(
                gw.submit(key, np.ones(A.shape[0])),
                gw.submit(key, np.ones(A.shape[0] + 1)),
                return_exceptions=True,
            )

        out = asyncio.run(scenario())
        assert len(out) == 2
        assert all(isinstance(e, Exception) for e in out)
        assert gw._admitted == 0

    def test_cancelled_request_releases_its_slot(self, pool):
        A = _matrix()
        gw = ServeGateway(pool, window=0.05, max_batch=32, max_pending=4)
        key = gw.register(A)

        async def scenario():
            task = asyncio.ensure_future(gw.submit(key, np.ones(A.shape[0])))
            await asyncio.sleep(0)  # admitted, waiting out the window
            assert gw._admitted == 1
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            await gw.drain()
            assert gw._admitted == 0

        asyncio.run(scenario())

    def test_window_zero_max_batch_one_is_request_at_a_time(self, pool):
        A = _matrix()
        gw = ServeGateway(pool, window=0.0, max_batch=1)
        key = gw.register(A)
        rng = np.random.default_rng(5)
        bs = [rng.standard_normal(A.shape[0]) for _ in range(4)]

        async def scenario():
            return await asyncio.gather(*(gw.submit(key, b) for b in bs))

        asyncio.run(scenario())
        stats = gw.stats(wall_seconds=1.0)
        assert stats.batches == 4
        assert stats.mean_batch_size == pytest.approx(1.0)


class TestGatewayRetention:
    def test_census_after_mixed_traffic(self):
        """Hot and cold tenants with the cold set twice the factor cache
        (every cold round evicts): once drained, what is left alive is
        the cache's own capacity in factorizations and nothing per
        request -- no local system, pending request or future."""
        kinds = (
            Factorization, LocalSystem, PendingRequest,
            asyncio.Future, concurrent.futures.Future,
        )

        def census():
            gc.collect()
            live = gc.get_objects()
            return [sum(isinstance(o, kind) for o in live) for kind in kinds]

        processors, capacity = 4, 8
        before = census()
        pool = SolverPool(size=2, processors=processors, cache_capacity=capacity)
        try:
            gw = ServeGateway(pool, window=0.002, max_batch=4)
            hot = gw.register(_matrix(seed=1))
            cold = [gw.register(_matrix(seed=10 + i)) for i in range(4)]
            assert processors * len(cold) == 2 * capacity
            rng = np.random.default_rng(5)

            async def client(keys, requests):
                for i in range(requests):
                    await gw.submit(keys[i % len(keys)], rng.standard_normal(96))

            async def scenario():
                await asyncio.gather(
                    *(client([hot], 20) for _ in range(3)),
                    *(client(cold[i:] + cold[:i], 12) for i in range(2)),
                )
                await gw.drain()

            asyncio.run(scenario())
            stats = gw.stats(wall_seconds=1.0)
            assert stats.completed == 84 and stats.shed == 0
            assert pool.cache_stats().evictions > 0
            factorizations, *per_request = np.subtract(census(), before)
            assert factorizations <= capacity
            assert all(count <= 0 for count in per_request)
            # what a tenant was bound to is arrays, never a factor: the
            # LRU stays the only owner
            assert all(t.slices is not None for t in pool._tenants.values())
            reached, frontier = set(), list(pool._tenants.values())
            while frontier:
                obj = frontier.pop()
                if id(obj) in reached or isinstance(obj, (type, type(gc))):
                    continue
                reached.add(id(obj))
                assert not isinstance(obj, Factorization)
                frontier.extend(gc.get_referents(obj))
        finally:
            pool.close()


class TestOpenLoop:
    def test_seeded_trace_end_to_end(self, pool):
        matrices = [_matrix(seed=s) for s in (3, 4)]
        gw = ServeGateway(pool, window=0.01, max_batch=16)
        keys = [gw.register(A) for A in matrices]
        trace = poisson_trace(120.0, 0.5, len(keys), skew=1.0, seed=11)
        rng = np.random.default_rng(12)
        bank = rng.standard_normal((8, matrices[0].shape[0]))

        stats = asyncio.run(
            run_open_loop(gw, keys, trace, lambda a, i: bank[i % len(bank)])
        )
        assert stats.completed == len(trace)
        assert stats.shed == 0
        assert stats.batches <= len(trace)
        assert stats.wall_seconds >= 0.5
        assert stats.cache_stats is not None
        # every distinct matrix factored its bands exactly once
        assert stats.cache_stats.misses == len(matrices) * 4

    def test_overload_is_shed_not_raised(self):
        pool = SolverPool(size=1, processors=4)
        try:
            gw = ServeGateway(pool, window=0.0, max_batch=1, max_pending=1)
            key = gw.register(_matrix())
            trace = poisson_trace(400.0, 0.25, 1, seed=13)
            rng = np.random.default_rng(14)
            b = rng.standard_normal(96)
            stats = asyncio.run(run_open_loop(gw, [key], trace, lambda a, i: b))
        finally:
            pool.close()
        assert stats.offered == len(trace)
        assert stats.shed > 0  # the bound bit, and nothing raised


class TestCacheCapacityHooks:
    def test_resize_evicts_and_notifies(self):
        from repro.direct.dense import DenseLU

        evicted = []
        cache = FactorizationCache(capacity=4, on_evict=evicted.append)
        solver = DenseLU()
        rng = np.random.default_rng(21)
        mats = [rng.standard_normal((8, 8)) + 8 * np.eye(8) for _ in range(4)]
        keys = [cache.key_for(solver, M) for M in mats]
        for M, k in zip(mats, keys):
            cache.factor(solver, M, key=k)
        assert len(cache) == 4 and not evicted
        dropped = cache.resize(2)
        assert dropped == 2
        assert len(cache) == 2
        assert evicted == keys[:2]  # least-recently-used first
        assert cache.stats.evictions == 2
        assert cache.resize(None) == 0  # lift the bound
        assert cache.capacity is None
        with pytest.raises(ValueError):
            cache.resize(0)

    def test_admission_eviction_notifies(self):
        from repro.direct.dense import DenseLU

        evicted = []
        cache = FactorizationCache(capacity=1, on_evict=evicted.append)
        solver = DenseLU()
        rng = np.random.default_rng(22)
        m1 = rng.standard_normal((6, 6)) + 6 * np.eye(6)
        m2 = rng.standard_normal((6, 6)) + 6 * np.eye(6)
        k1 = cache.key_for(solver, m1)
        cache.factor(solver, m1, key=k1)
        cache.factor(solver, m2)
        assert evicted == [k1]
        assert cache.stats.evictions == 1
