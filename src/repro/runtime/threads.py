"""Per-block worker threads on a persistent pool.

When threads help despite the GIL: a multisplitting block solve is one
sparse right-hand-side update (``dep @ z``) followed by triangular solves
through the factored band -- and the heavy parts of every bundled kernel
(SuperLU's ``gstrs`` via SciPy, LAPACK via the dense and banded
kernels) drop the GIL while they run native code.  That buys overlap only when a kernel call is *long*: a
thread that drops the lock must win it back afterwards, so two threads
looping on a 31-39 us SuperLU ``solve`` (a 375-row band) take 66-171 us
per pair of calls -- up to 2.8x slower than taking turns -- while a
103-114 us call gains 1.2-1.4x and a 380-610 us call (a
``cage_like(6000)`` band) 1.6-1.9x of the ideal 2x (2-vCPU host).  The
crossover sits between ~45 and ~100 us per call.  With ``L`` blocks past
it and ``c`` cores, one outer iteration's ``L`` independent solves
overlap on ``min(L, c)`` cores; the factorization phase (``attach``,
milliseconds per call) parallelises the same way and usually dominates.

Factors are freed where they were made: SciPy releases a SuperLU object
only on the thread that created it, and ``attach`` factors on the pool
threads while ``detach`` drops on the driver.  The SuperLU adapter hands
such a handle back to its maker, which releases it at its next
``factor`` (see :mod:`repro.direct.scipy_backend`).

Determinism: the pool only changes *where* each block solve runs, never
what it computes -- each task is a pure function of ``(block, z)``, and
results are gathered in request order.  Synchronous iterates are
therefore bit-identical to :class:`~repro.runtime.InlineExecutor`.

Placement: a :class:`repro.schedule.Placement` is validated against
the binding and otherwise ignored -- every block runs on the one shared
pool (pinning blocks to per-worker threads timed within 10% of it
either way on 1-2 vCPU hosts).  The fleets (processes, sockets) are where a
plan's block-to-worker assignment is honoured.

The shared :class:`~repro.direct.cache.FactorizationCache` is safe here:
its counters are updated under a single lock, and concurrent misses on
*different* keys factor in parallel (the per-key in-flight latch only
serialises requests for the same block).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.runtime.api import InProcessExecutor

__all__ = ["ThreadExecutor"]


class ThreadExecutor(InProcessExecutor):
    """Run block solves on a persistent :class:`ThreadPoolExecutor`.

    Parameters
    ----------
    max_workers:
        Pool width; defaults to ``min(32, os.cpu_count() + 4)`` (the
        :mod:`concurrent.futures` default, fine for I/O-light numeric
        tasks since idle threads cost almost nothing).
    """

    name = "threads"

    def __init__(self, *, max_workers: int | None = None):
        super().__init__()
        self.max_workers = max_workers
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.max_workers, thread_name_prefix="repro-runtime"
            )
        return self._pool

    def _setup_executor(self):
        # attach() parallelises the per-block slice-and-factor bodies.
        return self

    def solve_blocks(
        self, tasks: Sequence[tuple[int, np.ndarray]]
    ) -> list[np.ndarray]:
        pool = self._ensure_pool()
        futures = [pool.submit(self._traced_solve, l, z) for l, z in tasks]
        tracer = self._tracer
        t_wait = tracer.now() if tracer is not None else 0.0
        pieces: list[np.ndarray] = []
        for (l, _), fut in zip(tasks, futures):
            piece, dt = fut.result()
            self._account(l, dt)
            pieces.append(piece)
        if tracer is not None:
            tracer.add(
                "barrier.wait", "wait", t_wait, tracer.now() - t_wait,
                lane="driver", tasks=len(tasks),
            )
        return pieces

    def map(self, fn: Callable, items: Iterable) -> list:
        items = list(items)
        if len(items) <= 1:
            return [fn(item) for item in items]
        return list(self._ensure_pool().map(fn, items))

    def close(self) -> None:
        super().close()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
