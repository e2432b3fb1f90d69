"""Solver-as-a-service: the multi-tenant batching gateway.

The paper's economics -- one expensive factorization amortized over
many solves -- applied to *live concurrent traffic*: an asyncio
:class:`~repro.serve.gateway.ServeGateway` coalesces requests that
share a registered matrix into one ``(n, k)`` multisplitting round on a
:class:`~repro.serve.pool.SolverPool` (one batch iterating at a time
over one solver facade, each tenant's bands bound once, and a
capacity-bounded cross-tenant
:class:`~repro.direct.cache.FactorizationCache`).  Admission is bounded
and back-pressure is typed
(:class:`~repro.serve.gateway.GatewayOverloaded`); everything served is
measured (:class:`~repro.serve.metrics.ServeStats`).

Quick start::

    import asyncio
    from repro.serve import ServeGateway, SolverPool

    pool = SolverPool(processors=4)
    gw = ServeGateway(pool, window=0.005, max_batch=32)
    key = gw.register(A)

    async def client():
        x = await gw.submit(key, b)

Drive it with seeded open-loop traffic
(:func:`~repro.serve.traffic.run_open_loop`), or from the command line:
``python -m repro.serve --rate 200 --duration 2``.
"""

from repro.serve.batcher import MicroBatcher, PendingRequest
from repro.serve.gateway import GatewayOverloaded, ServeGateway
from repro.serve.metrics import RequestRecord, ServeStats, nearest_rank
from repro.serve.pool import SolverPool
from repro.serve.traffic import (
    Arrival,
    poisson_trace,
    popularity_weights,
    run_open_loop,
)

__all__ = [
    "Arrival",
    "GatewayOverloaded",
    "MicroBatcher",
    "PendingRequest",
    "RequestRecord",
    "ServeGateway",
    "ServeStats",
    "SolverPool",
    "nearest_rank",
    "poisson_trace",
    "popularity_weights",
    "run_open_loop",
]
