"""One batch iterates at a time, and the event loop stays free.

Concurrent batches do not overlap on the interpreter lock, they convoy,
so ``SolverPool`` runs one at a time: its ``threads`` has one worker and
``solve_batch`` holds one lock whatever thread calls it.  A kernel
wrapper that counts how many calls are inside it at once is the witness;
a kernel that stalls shows that admission, shedding and window timers do
not wait for the batch.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time

import numpy as np
import pytest

from repro import MultisplittingSolver
from repro.direct import get_solver
from repro.direct.base import DirectSolver, Factorization
from repro.matrices import diagonally_dominant
from repro.runtime.resilience import FlakySolver, InjectedFault, StragglerSolver
from repro.serve import GatewayOverloaded, ServeGateway, SolverPool

N, L = 96, 4
JOIN = 60.0


def matrix(seed: int):
    return diagonally_dominant(N, dominance=1.5, bandwidth=4, seed=seed)


class _CountingFactorization(Factorization):
    def __init__(self, inner: Factorization, owner: "CountingSolver"):
        self._inner = inner
        self._owner = owner

    def solve(self, b):
        with self._owner.inside():
            return self._inner.solve(b)

    def solve_many(self, B):
        with self._owner.inside():
            return self._inner.solve_many(B)


class CountingSolver(DirectSolver):
    """Counts the kernel calls in flight at once (the ``StragglerSolver`` shape)."""

    name = "counting"

    def __init__(self, inner: DirectSolver):
        self.inner = inner
        self._lock = threading.Lock()
        self.now = self.most = self.calls = 0

    @contextlib.contextmanager
    def inside(self):
        with self._lock:
            self.now += 1
            self.calls += 1
            self.most = max(self.most, self.now)
        try:
            time.sleep(0)  # hand the interpreter to whoever else wants in
            yield
        finally:
            with self._lock:
                self.now -= 1

    def factor(self, A) -> Factorization:
        with self.inside():
            return _CountingFactorization(self.inner.factor(A), self)


def join_all(threads) -> None:
    for t in threads:
        t.join(JOIN)
    assert not any(t.is_alive() for t in threads)


class TestOneAtATime:
    def test_size_is_accepted_and_buys_no_second_batch_thread(self):
        with SolverPool(size=3, processors=L) as pool:
            assert pool.size == 3 and pool.threads._max_workers == 1
        assert SolverPool().size == 1
        with pytest.raises(ValueError, match="size"):
            SolverPool(size=0)

    def test_four_direct_callers_on_distinct_tenants_never_overlap(self):
        kernel = CountingSolver(get_solver("scipy"))
        tenants = [matrix(seed) for seed in range(4)]
        B = np.random.default_rng(0).standard_normal((N, 2))
        got: dict[int, np.ndarray] = {}
        with SolverPool(size=4, processors=L, direct_solver=kernel) as pool:
            keys = [pool.register(A) for A in tenants]

            def hammer(t: int) -> None:
                for _ in range(6):
                    got[t] = pool.solve_batch(keys[t], B)

            threads = [threading.Thread(target=hammer, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            join_all(threads)
        assert kernel.most == 1 and kernel.now == 0 and kernel.calls > 4 * 6 * L
        reference = MultisplittingSolver(L, mode="sequential")
        for t, A in enumerate(tenants):
            assert np.array_equal(got[t], reference.solve(A, B).x)

    def test_a_gateway_window_beside_a_direct_caller_never_overlaps(self):
        kernel = CountingSolver(get_solver("scipy"))
        served, direct = matrix(1), matrix(2)
        rng = np.random.default_rng(1)
        stop = threading.Event()
        with SolverPool(size=2, processors=L, direct_solver=kernel) as pool:
            gw = ServeGateway(pool, window=0.002, max_batch=4)
            key, key_direct = gw.register(served), pool.register(direct)

            def beside() -> None:
                while not stop.is_set():
                    pool.solve_batch(key_direct, np.ones((N, 1)))

            async def clients():
                async def client():
                    for _ in range(10):
                        await gw.submit(key, rng.standard_normal(N))

                await asyncio.gather(*(client() for _ in range(4)))
                await gw.drain()

            caller = threading.Thread(target=beside)
            caller.start()
            try:
                asyncio.run(asyncio.wait_for(clients(), JOIN))
            finally:
                stop.set()
                join_all([caller])
            assert gw.stats(wall_seconds=1.0).completed == 40
        assert kernel.most == 1 and kernel.now == 0


class TestTheLoopStaysFree:
    def test_admission_shedding_and_timers_do_not_wait_for_a_slow_batch(self):
        stall = 1.0
        kernel = StragglerSolver(get_solver("scipy"), seconds=stall, slow_calls=[1])
        with SolverPool(processors=L, direct_solver=kernel) as pool:
            gw = ServeGateway(pool, window=0.01, max_batch=8, max_pending=3)
            slow, quick = gw.register(matrix(1)), gw.register(matrix(2))

            async def scenario():
                t0 = time.perf_counter()
                first = asyncio.ensure_future(gw.submit(slow, np.ones(N)))
                await asyncio.sleep(0.05)  # its window closed; its batch is stalling
                assert gw._batches == 1 and not first.done()
                others = [
                    asyncio.ensure_future(gw.submit(quick, np.ones(N))) for _ in range(2)
                ]
                await asyncio.sleep(0)  # admitted beside it
                with pytest.raises(GatewayOverloaded):
                    await gw.submit(quick, np.ones(N))
                await asyncio.sleep(0.05)  # the second tenant's window timer fired
                assert gw._batches == 2
                assert not first.done() and not any(o.done() for o in others)
                assert time.perf_counter() - t0 < stall  # ...all while the batch stalls
                return await asyncio.gather(first, *others)

            xs = asyncio.run(asyncio.wait_for(scenario(), JOIN))
            stats = gw.stats(wall_seconds=1.0)
        assert len(xs) == 3 and stats.completed == 3 and stats.shed == 1

    def test_a_batch_that_raises_releases_the_lock_and_the_next_is_served(self):
        kernel = FlakySolver(get_solver("scipy"), fail_solves=[2])
        A = matrix(1)
        B = np.ones((N, 1))
        with SolverPool(processors=L, direct_solver=kernel) as pool:
            key = pool.register(A)
            with pytest.raises(InjectedFault):
                pool.solve_batch(key, B)
            assert not pool._one_batch.locked()
            X = pool.solve_batch(key, B)

            async def through_the_gateway():
                return await ServeGateway(pool, window=0.0).submit(key, B[:, 0])

            x = asyncio.run(asyncio.wait_for(through_the_gateway(), JOIN))
        want = MultisplittingSolver(L, mode="sequential").solve(A, B).x
        assert np.array_equal(X, want) and np.array_equal(x, want[:, 0])

    def test_close_with_a_batch_queued_returns(self):
        kernel = StragglerSolver(get_solver("scipy"), seconds=0.3, slow_calls=[1])
        pool = SolverPool(processors=L, direct_solver=kernel)
        key = pool.register(matrix(1))
        B = np.ones((N, 1))
        running = pool.threads.submit(pool.solve_batch, key, B)
        queued = pool.threads.submit(pool.solve_batch, key, B)
        closer = threading.Thread(target=pool.close)
        closer.start()
        join_all([closer])
        assert np.array_equal(running.result(0), queued.result(0))
        with pytest.raises(RuntimeError):
            pool.threads.submit(pool.solve_batch, key, B)
