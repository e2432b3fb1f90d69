"""The asyncio admission gateway: :class:`ServeGateway`.

Requests arrive one right-hand side at a time; the gateway coalesces
concurrent requests that share a registered matrix into one ``(n, k)``
multisplitting round (the batching *window* bounds how long the first
request of a round waits for company; ``max_batch`` bounds how much
company it can get), queues rounds on the
:class:`~repro.serve.pool.SolverPool`'s worker thread (one round
iterates at a time; the event loop never waits for it), and fans the
solution columns back out to the awaiting callers.

Admission is bounded: at most ``max_pending`` requests may be queued or
in flight at once, and requests beyond that are *shed* with the typed
:class:`GatewayOverloaded` error rather than queued into unbounded
latency -- back-pressure is explicit, never silent.

All gateway state is touched only on the event loop (solves run on the
pool's thread, but their completion callbacks land back on the loop), so no
locks are needed and the per-request metrics can never tear.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.serve.batcher import MicroBatcher, PendingRequest
from repro.serve.metrics import RequestRecord, ServeStats

__all__ = ["GatewayOverloaded", "ServeGateway"]


class GatewayOverloaded(RuntimeError):
    """Typed shed signal: the admission bound is full.

    Callers distinguish "try again later" from a solve failure by type,
    not by message parsing.
    """

    def __init__(self, pending: int, limit: int):
        super().__init__(
            f"gateway overloaded: {pending} requests pending >= limit {limit}"
        )
        self.pending = pending
        self.limit = limit


class ServeGateway:
    """Micro-batching front door over a :class:`SolverPool`.

    Parameters
    ----------
    pool:
        The solving substrate (owns the worker thread, facade, shared cache).
    window:
        Seconds the first request of a round waits for others to join.
        ``0`` flushes on the next loop tick (only same-tick arrivals
        coalesce); paired with ``max_batch=1`` that is the
        request-at-a-time baseline.
    max_batch:
        Right-hand sides per solve round; a full round flushes without
        waiting out the window.
    max_pending:
        Admission bound (queued + in-flight requests).  Beyond it,
        :meth:`submit` raises :class:`GatewayOverloaded`.
    trace:
        ``True`` or a :class:`repro.observe.Tracer` records the serving
        timeline on the ``serve`` lane: admission, sheds, batch flushes
        (with the reason the window closed), and per-request replies.
    """

    def __init__(
        self,
        pool,
        *,
        window: float = 0.005,
        max_batch: int = 32,
        max_pending: int = 256,
        trace=None,
    ):
        from repro.observe import resolve_trace

        if window < 0:
            raise ValueError("window must be non-negative")
        if max_pending < 1:
            raise ValueError("max_pending must be positive")
        self.pool = pool
        self.window = float(window)
        self.max_pending = max_pending
        self.tracer = resolve_trace(trace)
        self._batcher = MicroBatcher(max_batch=max_batch)
        self._timers: dict[str, asyncio.TimerHandle] = {}
        self._inflight: set[asyncio.Future] = set()
        self._admitted = 0
        self._records: list[RequestRecord] = []
        self._shed = 0
        self._batches = 0

    # -- tenancy ---------------------------------------------------------
    def register(self, A) -> str:
        """Admit a matrix; returns the content key to submit under."""
        return self.pool.register(A)

    # -- the request path ------------------------------------------------
    async def submit(self, key: str, b) -> np.ndarray:
        """Solve ``A x = b`` for the matrix registered under ``key``.

        Awaits the coalesced round's completion and returns this
        request's solution column.  Raises :class:`GatewayOverloaded`
        when the admission bound is full, or the solve's own error when
        the round fails.
        """
        loop = asyncio.get_running_loop()
        tracer = self.tracer
        if self._admitted >= self.max_pending:
            self._shed += 1
            if tracer is not None:
                tracer.event(
                    "serve.shed", cat="serve", lane="serve",
                    tenant=key, pending=self._admitted,
                )
            raise GatewayOverloaded(self._admitted, self.max_pending)
        self._admitted += 1
        if tracer is not None:
            tracer.event(
                "serve.admit", cat="serve", lane="serve",
                tenant=key, pending=self._admitted,
            )
        try:
            request = PendingRequest(
                rhs=np.asarray(b, dtype=float),
                future=loop.create_future(),
                arrival=loop.time(),
            )
            action = self._batcher.add(key, request)
        except BaseException:
            # The admission slot is this request's until the batcher
            # owns it; from then on the flush/complete path accounts
            # for it exactly once.  A failure in between (ragged rhs,
            # unknown tenant) must hand the slot back or it leaks.
            self._admitted -= 1
            raise
        if action == "flush":
            self._flush(key, reason="max_batch")
        elif action == "opened":
            if self.window > 0:
                self._timers[key] = loop.call_later(
                    self.window, self._flush, key, "window"
                )
            else:
                # Zero window: dispatch on the next tick, so only
                # arrivals of the *same* tick share the round.
                loop.call_soon(self._flush, key, "tick")
        return await request.future

    # -- batching machinery (event-loop only) -----------------------------
    def _flush(self, key: str, reason: str = "window") -> None:
        timer = self._timers.pop(key, None)
        if timer is not None:
            timer.cancel()
        requests = self._batcher.take(key)
        if not requests:
            return  # benign race: max-batch flush beat the window timer
        loop = asyncio.get_running_loop()
        try:
            B = np.column_stack([r.rhs for r in requests])
            round_fut = asyncio.ensure_future(
                loop.run_in_executor(
                    self.pool.threads, self.pool.solve_batch, key, B
                )
            )
        except BaseException as exc:
            # A dispatch that fails synchronously (mismatched rhs
            # lengths, a shut-down pool) never reaches _complete;
            # the batch's admission slots must be returned and its
            # futures failed *here*, or a timer-fired flush strands
            # the callers forever with the slots still held.
            self._admitted -= len(requests)
            for r in requests:
                if not r.future.done():
                    r.future.set_exception(exc)
            return
        self._batches += 1
        if self.tracer is not None:
            self.tracer.event(
                "serve.batch", cat="serve", lane="serve",
                tenant=key, size=len(requests), reason=reason,
            )
        self._inflight.add(round_fut)
        round_fut.add_done_callback(
            lambda fut, key=key, requests=requests: self._complete(
                key, requests, fut
            )
        )

    def _complete(self, key: str, requests: list[PendingRequest], fut) -> None:
        self._inflight.discard(fut)
        self._admitted -= len(requests)
        exc = None if fut.cancelled() else fut.exception()
        if fut.cancelled() or exc is not None:
            for r in requests:
                if not r.future.done():
                    if exc is not None:
                        r.future.set_exception(exc)
                    else:
                        r.future.cancel()
            return
        X = fut.result()
        now = asyncio.get_running_loop().time()
        k = len(requests)
        tracer = self.tracer
        for j, r in enumerate(requests):
            latency = now - r.arrival
            self._records.append(
                RequestRecord(tenant=key, latency=latency, batch_size=k)
            )
            if tracer is not None:
                tracer.event(
                    "serve.reply", cat="serve", lane="serve",
                    tenant=key, latency=latency, batch_size=k,
                )
            if not r.future.done():
                r.future.set_result(X[:, j])

    # -- lifecycle / observability ----------------------------------------
    async def drain(self) -> None:
        """Flush every open batch and wait for in-flight rounds."""
        for key in self._batcher.open_keys():
            self._flush(key, reason="drain")
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)

    def stats(self, *, wall_seconds: float) -> ServeStats:
        """Aggregate metrics of everything served so far."""
        return ServeStats.from_records(
            self._records,
            shed=self._shed,
            batches=self._batches,
            wall_seconds=wall_seconds,
            cache_stats=self.pool.cache_stats(),
        )

    def metrics_registry(self):
        """A :class:`repro.observe.MetricsRegistry` view of the gateway.

        Gauges are *live* callables over the gateway's counters (each
        :meth:`repro.observe.MetricsRegistry.render` re-reads them), so
        one registry built once can be scraped repeatedly.
        """
        from repro.observe import MetricsRegistry

        reg = MetricsRegistry()
        reg.gauge("repro_serve_pending", fn=lambda: self._admitted)
        reg.gauge("repro_serve_shed", fn=lambda: self._shed)
        reg.gauge("repro_serve_batches", fn=lambda: self._batches)
        reg.gauge("repro_serve_completed", fn=lambda: len(self._records))
        return reg

    def render_metrics(self, *, wall_seconds: float | None = None) -> str:
        """Prometheus text scrape of the gateway (and its pool's cache).

        With ``wall_seconds`` the completed-interval latency aggregates
        (quantile gauges, histogram) are folded in too.
        """
        reg = self.metrics_registry()
        if wall_seconds is not None:
            reg.ingest_serve(self.stats(wall_seconds=wall_seconds))
        else:
            reg.ingest_cache(self.pool.cache_stats())
        if self.tracer is not None:
            reg.ingest_spans(self.tracer.spans())
        return reg.render()
