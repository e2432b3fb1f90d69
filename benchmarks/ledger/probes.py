"""Outside-in probes: spans and layer timings taken around public calls.

Nothing here patches ``src/``.  The two wrappers delegate every call to
the real object and record a span around it into the *benchmark's own*
:class:`repro.observe.Tracer`; the three probe functions time one public
function each on the workload's own inputs.

Span tree of a traced solve op (every span carries ``op`` and ``parent``
in its args)::

    op                      the benchmark's op: solve + correctness check
      core.solve            MultisplittingSolver.solve(A, b)
        runtime.attach      Executor.attach   (slice, prune, ship, factor)
        runtime.round x it  Executor.solve_round
        runtime.detach      Executor.detach

``core.solve`` minus its three kinds of children is the driver's self
time (weighting/combine, stop test, result assembly), so the parts sum
to the op by construction.  A traced serve request is ``serve.request``
(client submit-to-reply) whose child ``serve.batch_solve`` is the
``SolverPool.solve_batch`` call that carried it.
"""

from __future__ import annotations

import socket
import statistics
import threading
import time

import numpy as np

from repro.core.local import build_local_systems
from repro.direct.base import get_solver
from repro.direct.cache import FactorizationCache
from repro.runtime import Executor, recv_frame, send_frame


class TracingExecutor(Executor):
    """Delegating :class:`Executor` that spans attach / round / detach.

    Same shape as ``ChaosExecutor``: it conforms to the contract and
    forwards everything to ``inner``.  Spans are recorded only while
    :attr:`op` is set, so one wrapper serves a whole traced run.
    """

    def __init__(self, inner: Executor, tracer):
        self.inner = inner
        self.name = inner.name
        self.spans = tracer
        self.op: int | None = None
        self._round = 0

    def _record(self, name: str, t0: float, **args) -> None:
        if self.op is not None:
            self.spans.add(
                name, "runtime", t0, time.perf_counter() - t0, lane="driver",
                op=self.op, parent="core.solve", **args,
            )

    # -- the three spanned verbs -------------------------------------------
    def attach(self, A, b, sets, solver, *, cache=None, placement=None,
               fault_policy=None) -> None:
        self._round = 0
        t0 = time.perf_counter()
        try:
            self.inner.attach(
                A, b, sets, solver,
                cache=cache, placement=placement, fault_policy=fault_policy,
            )
        finally:
            self._record("runtime.attach", t0, blocks=len(sets))

    def solve_round(self, Z):
        self._round += 1
        t0 = time.perf_counter()
        try:
            return self.inner.solve_round(Z)
        finally:
            self._record("runtime.round", t0, round=self._round)

    def detach(self) -> None:
        t0 = time.perf_counter()
        try:
            self.inner.detach()
        finally:
            # Only the detach that ends a binding is a span, not one after
            # a failed attach.
            if self._round:
                self._record("runtime.detach", t0)
                self._round = 0

    # -- plain delegation --------------------------------------------------
    def solve_blocks(self, tasks):
        return self.inner.solve_blocks(tasks)

    def map(self, fn, items):
        return self.inner.map(fn, items)

    def block_seconds(self):
        return self.inner.block_seconds()

    def run_cache_stats(self):
        return self.inner.run_cache_stats()

    def fault_stats(self):
        return self.inner.fault_stats()

    def wire_stats(self):
        return self.inner.wire_stats()

    def set_tracer(self, tracer) -> None:
        # The program's own tracer (``trace=True``) belongs to the inner
        # executor; the benchmark's spans never mix with it.
        self.inner.set_tracer(tracer)

    @property
    def tracer(self):
        return self.inner.tracer

    @property
    def nblocks(self) -> int:
        return self.inner.nblocks

    def close(self) -> None:
        self.inner.close()


class TracingPool:
    """Delegating ``SolverPool`` that spans every ``solve_batch`` call.

    The gateway only ever touches ``threads``, ``register``,
    ``solve_batch`` and ``cache_stats``.  Each call is remembered per
    right-hand-side column (keyed by the column's first bytes -- the
    clients draw every right-hand side fresh, so the key is unique), so
    that a client can find the batch that carried its request and split
    its latency into queue wait and solve.
    """

    def __init__(self, inner, tracer):
        self.inner = inner
        self.threads = inner.threads
        self.spans = tracer
        self._lock = threading.Lock()
        self._next_id = 0
        #: column key -> (batch id, seconds) of the call that carried it
        self.carried: dict[bytes, tuple[int, float]] = {}
        #: (start, seconds) of every call, in completion order
        self.calls: list[tuple[float, float]] = []

    @staticmethod
    def column_key(b: np.ndarray) -> bytes:
        return np.ascontiguousarray(b[:4]).tobytes()

    def register(self, A) -> str:
        return self.inner.register(A)

    def cache_stats(self):
        return self.inner.cache_stats()

    def solve_batch(self, key: str, B: np.ndarray) -> np.ndarray:
        with self._lock:
            batch = self._next_id
            self._next_id += 1
        t0 = time.perf_counter()
        try:
            return self.inner.solve_batch(key, B)
        finally:
            dur = time.perf_counter() - t0
            k = B.shape[1]
            self.spans.add(
                "serve.batch_solve", "serve", t0, dur,
                lane=threading.current_thread().name,
                batch=batch, size=k, tenant=key, parent="serve.request",
            )
            with self._lock:
                self.calls.append((t0, dur))
                for j in range(k):
                    self.carried[self.column_key(B[:, j])] = (batch, dur)


# ---------------------------------------------------------------------------
# layer probes (public functions only)
# ---------------------------------------------------------------------------


def probe_core_build(A, b, sets, repeats: int = 3) -> float:
    """``core.build_s``: ``build_local_systems`` with every factor cached.

    The first call fills a private cache; the timed calls then do only
    what every warm attach does -- slice, prune, keyed lookup.
    """
    kernel = get_solver("scipy")
    cache = FactorizationCache(capacity=256)
    build_local_systems(A, b, sets, kernel, cache=cache)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        build_local_systems(A, b, sets, kernel, cache=cache)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probe_kernel(A, rows, k: int, factor_repeats: int = 3,
                 solve_repeats: int = 50) -> tuple[float, float]:
    """``direct.kernel_factor_s`` / ``direct.kernel_solve_us`` on one block.

    Factors ``A[rows, rows]`` with the scipy kernel and times one
    triangular solve against ``k`` right-hand sides -- the direct layer
    alone, no cache, no executor.
    """
    kernel = get_solver("scipy")
    a_sub = A[rows, :][:, rows].tocsc()
    times = []
    for _ in range(factor_repeats):
        t0 = time.perf_counter()
        fact = kernel.factor(a_sub)
        times.append(time.perf_counter() - t0)
    rhs = np.ones((rows.size, k)) if k > 1 else np.ones(rows.size)
    solve = fact.solve_many if k > 1 else fact.solve
    solves = []
    for _ in range(solve_repeats):
        t0 = time.perf_counter()
        solve(rhs)
        solves.append(time.perf_counter() - t0)
    return statistics.median(times), statistics.median(solves) * 1e6


def probe_wire_roundtrip(z: np.ndarray, repeats: int = 30) -> float:
    """``runtime.wire_roundtrip_us``: one round's ``z`` there and back.

    ``send_frame`` / ``recv_frame`` over a ``socketpair`` with an echo
    thread on the far end -- framing, ``sendmsg`` and ``recv_into``
    without a worker or a solve in between.
    """
    near, far = socket.socketpair()
    near.settimeout(30.0)
    far.settimeout(30.0)

    def echo() -> None:
        try:
            for _ in range(repeats):
                obj, _ = recv_frame(far)
                send_frame(far, obj, transient=True)
        except OSError:
            pass  # the near side reports the failure

    thread = threading.Thread(target=echo, name="ledger-wire-echo", daemon=True)
    thread.start()
    times = []
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            send_frame(near, z, transient=True)
            recv_frame(near)
            times.append(time.perf_counter() - t0)
    finally:
        near.close()
        thread.join(timeout=30.0)
        far.close()
    return statistics.median(times) * 1e6
