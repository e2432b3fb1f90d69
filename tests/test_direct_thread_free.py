"""A SuperLU factor is freed on the thread that made it.

SciPy keeps SuperLU's allocations in a per-thread table and only frees a
pointer it finds in the calling thread's table, so a factor whose last
reference dies on another thread than its maker's is never freed
(0.33 MB per 375-row band, without bound).  ``ScipyFactorization`` hands
such a handle back to its maker's orphan deque and ``ScipySuperLU.factor``
empties the calling thread's deque first.  These tests hold the unit
behaviour (no resident-size reading) and the leak itself as three
measurements in subprocesses: a bare maker / dropper pair, the threads
backend without a cache, and two threads on one ``SolverPool``.
"""

import gc
import subprocess
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.direct import get_solver
from repro.direct.scipy_backend import _orphans
from repro.matrices import diagonally_dominant

SRC = str(Path(__file__).resolve().parents[1] / "src")
JOIN = 30.0


def band(scale: float = 1.0):
    return diagonally_dominant(60, dominance=1.5, bandwidth=4, seed=2).tocsc() * scale


def on_thread(fn):
    """Run ``fn`` on a fresh thread that has exited by the time this returns."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn).result(JOIN)


class Maker:
    """One thread that stays alive and runs what it is sent, in order."""

    def __init__(self):
        self._pool = ThreadPoolExecutor(max_workers=1)

    def run(self, fn):
        return self._pool.submit(fn).result(JOIN)


@pytest.fixture
def maker():
    worker = Maker()
    yield worker
    worker._pool.shutdown(wait=True)


class TestHandBack:
    def test_dropped_off_thread_is_parked_until_the_makers_next_factor(self, maker):
        solver = get_solver("scipy")
        fact = maker.run(lambda: solver.factor(band()))
        handle = fact._handle
        parked = fact._home
        assert parked is maker.run(_orphans) and not parked
        del fact  # the last reference dies here, not on the maker
        gc.collect()
        assert list(parked) == [handle]
        del handle
        assert not _orphans()  # nothing of ours was involved

        def factor_again():
            solver.factor(band(2.0))

        maker.run(factor_again)
        assert not parked  # released where scipy can free it

    def test_dropped_on_its_own_thread_never_touches_the_deque(self, maker):
        solver = get_solver("scipy")

        def make_and_drop():
            fact = solver.factor(band())
            home = fact._home
            del fact
            gc.collect()
            return len(home)

        assert maker.run(make_and_drop) == 0
        fact = solver.factor(band())
        del fact
        assert not _orphans()

    def test_each_thread_has_its_own_deque(self, maker):
        assert maker.run(_orphans) is not _orphans()
        assert _orphans() is _orphans()

    def test_handle_outliving_its_maker_is_let_go_not_parked(self):
        """The maker's table died with the thread: nobody can free the
        handle, so nothing keeps it either -- the deque it would be
        parked on goes with the factorisation."""
        solver = get_solver("scipy")
        fact = on_thread(lambda: solver.factor(band()))
        home = weakref.ref(fact._home)
        del fact
        gc.collect()
        assert home() is None

    def test_collection_inside_factor_cannot_deadlock(self, maker):
        """Finalisers run inside arbitrary allocations, ``factor``'s own
        included: with a collection on nearly every allocation, both
        threads park on and empty each other's deques from inside
        ``factor`` and there is no lock to wait on."""
        solver = get_solver("scipy")

        class Cycle:
            def __init__(self, fact):
                self.fact, self.me = fact, self

        def litter(e):
            Cycle(solver.factor(band(float(e))))

        def both_sides():
            for e in range(1, 9):
                Cycle(maker.run(lambda: solver.factor(band(float(e)))))
                litter(e)
                maker.run(lambda: litter(e))

        threshold = gc.get_threshold()
        gc.set_threshold(1)
        try:
            on_thread(both_sides)
        finally:
            gc.set_threshold(*threshold)
        gc.collect()
        maker.run(lambda: litter(9))
        assert not maker.run(_orphans)

    def test_solving_through_another_threads_handle_returns_the_same_bits(self, maker):
        solver = get_solver("scipy")
        rng = np.random.default_rng(0)
        b, B = rng.standard_normal(60), rng.standard_normal((60, 3))
        fact = maker.run(lambda: solver.factor(band()))
        here = (fact.solve(b), fact.solve_many(B))
        there = maker.run(lambda: (fact.solve(b), fact.solve_many(B)))
        own = solver.factor(band())
        for got, same, ref in zip(here, there, (own.solve(b), own.solve_many(B))):
            assert np.array_equal(got, same) and np.array_equal(got, ref)


PRELUDE = """
import gc, resource, threading

def resident_mb():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * resource.getpagesize() / 1e6
"""


def growth_mb(script: str) -> float:
    out = subprocess.run(
        [sys.executable, "-c", PRELUDE + script],
        env={"PYTHONPATH": SRC, "OMP_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=240, check=True,
    )
    return float(out.stdout.split()[-1])


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
class TestTheLeakAsAMeasurement:
    def test_factors_made_on_one_thread_and_dropped_on_another(self):
        """300 factors of a 375-row band made on A and dropped on B while
        A keeps factoring: 107 MB before the hand-back, ~1 MB with it."""
        grown = growth_mb("""
import queue
from repro.direct import get_solver
from repro.matrices import diagonally_dominant

A = diagonally_dominant(375, dominance=1.5, bandwidth=30, seed=0).tocsc()
solver = get_solver("scipy")
handed = queue.Queue(maxsize=4)

def make(count):
    for _ in range(count):
        handed.put(solver.factor(A))
    handed.put(None)

def drop():
    while handed.get() is not None:
        pass

def run(count):
    threads = [threading.Thread(target=make, args=(count,)), threading.Thread(target=drop)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    assert not any(t.is_alive() for t in threads)

run(20)  # warm-up: imports, allocator arenas, both threads' stacks
r0 = resident_mb()
run(300)
gc.collect()
print(resident_mb() - r0)
""")
        assert grown <= 15.0, grown

    def test_threads_backend_without_a_cache(self):
        """Every detach drops on the driver what the pool threads
        factored: 100 solves of fresh matrices grew ~130 MB."""
        grown = growth_mb("""
import numpy as np
from repro import MultisplittingSolver
from repro.matrices import diagonally_dominant

A = diagonally_dominant(1500, dominance=1.5, bandwidth=30, seed=0)
b = A @ np.ones(1500)
with MultisplittingSolver(
    processors=4, mode="sequential", backend="threads", cache=False
) as solver:
    def run(first, count):
        for e in range(first, first + count):
            assert solver.solve(A * (1.0 + e / 1024.0), b).converged
    run(0, 10)
    r0 = resident_mb()
    run(10, 100)
    gc.collect()
    print(resident_mb() - r0)
""")
        assert grown <= 15.0, grown

    def test_two_threads_on_one_pool_over_an_evicting_cache(self):
        """Eight cold tenants over a 16-entry LRU, two direct callers:
        evictions land on whichever thread inserts (0.14 MB each before;
        600 of them grew ~85 MB).  The two callers live through the whole
        measurement: a thread that exits takes its table with it, and
        what it left in the cache can then be freed by nobody."""
        grown = growth_mb("""
import time
import numpy as np
from repro.matrices import diagonally_dominant
from repro.serve import SolverPool

tenants = [
    diagonally_dominant(1500, dominance=1.5, bandwidth=30, seed=s) for s in range(8)
]
B = np.ones((1500, 1))
WARM, DONE = 600, 1200
with SolverPool(size=2, processors=4, cache_capacity=16) as pool:
    keys = [pool.register(A) for A in tenants]

    def hammer(i):
        while pool.cache_stats().evictions < DONE:
            pool.solve_batch(keys[i % len(keys)], B)
            i += 3

    def resident_at(evictions):
        deadline = time.monotonic() + 200
        while pool.cache_stats().evictions < evictions:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        with pool._one_batch:  # between batches: no kernel's work arrays
            return resident_mb()

    threads = [threading.Thread(target=hammer, args=(o,)) for o in (0, 4)]
    for t in threads:
        t.start()
    r0 = resident_at(WARM)
    r1 = resident_at(DONE)
    for t in threads:
        t.join(60)
    assert not any(t.is_alive() for t in threads)
    print(r1 - r0)
""")
        assert grown <= 15.0, grown
