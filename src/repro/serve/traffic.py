"""Open-loop traffic generation for ``repro-serve`` runs.

Arrivals follow a seeded Poisson process (exponential inter-arrival
times at the offered rate) and pick their matrix from a hot/cold
popularity skew: tenant ``i`` is drawn with weight ``1 / (i + 1)**skew``
(Zipf-like -- a few hot matrices dominate, a long tail stays cold),
which is exactly the distribution where content-keyed coalescing pays.

The driver is *open-loop*: request ``i`` fires at its scheduled time
whether or not earlier requests have completed, so offered load is
independent of service capacity and an overloaded gateway shows up as
shed requests and tail latency, not as a silently throttled generator.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

import numpy as np

from repro.serve.gateway import GatewayOverloaded, ServeGateway
from repro.serve.metrics import ServeStats

__all__ = ["Arrival", "poisson_trace", "popularity_weights", "run_open_loop"]


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: when it fires and which matrix it hits."""

    at: float
    """Seconds after trace start."""
    tenant: int
    """Index into the registered matrix list."""


def popularity_weights(n_tenants: int, skew: float = 1.0) -> np.ndarray:
    """Normalized hot/cold weights: ``w_i ~ 1 / (i + 1)**skew``.

    ``skew=0`` is uniform; larger values concentrate traffic on the
    first few tenants.
    """
    if n_tenants < 1:
        raise ValueError("n_tenants must be positive")
    w = 1.0 / np.power(np.arange(1, n_tenants + 1, dtype=float), skew)
    return w / w.sum()


def poisson_trace(
    rate: float,
    duration: float,
    n_tenants: int,
    *,
    skew: float = 1.0,
    seed: int = 0,
) -> list[Arrival]:
    """Seeded Poisson arrival schedule over ``[0, duration)`` seconds.

    Deterministic for a given seed, so two gateway configurations can
    be offered the *same* trace.
    """
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    rng = np.random.default_rng(seed)
    weights = popularity_weights(n_tenants, skew)
    arrivals: list[Arrival] = []
    t = rng.exponential(1.0 / rate)
    while t < duration:
        tenant = int(rng.choice(n_tenants, p=weights))
        arrivals.append(Arrival(at=t, tenant=tenant))
        t += rng.exponential(1.0 / rate)
    return arrivals


async def run_open_loop(
    gateway: ServeGateway,
    keys: list[str],
    trace: list[Arrival],
    rhs_for: "callable",
) -> ServeStats:
    """Fire ``trace`` at ``gateway`` open-loop; returns the interval stats.

    ``rhs_for(arrival, index)`` builds each request's right-hand side
    (deterministic builders keep whole runs replayable).  Shed requests
    (:class:`GatewayOverloaded`) are absorbed here -- they are counted
    by the gateway and reported on the returned
    :class:`~repro.serve.metrics.ServeStats`; any *other* request
    failure propagates.
    """
    loop = asyncio.get_running_loop()
    t0 = loop.time()

    async def fire(arrival: Arrival, index: int) -> None:
        delay = t0 + arrival.at - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        try:
            await gateway.submit(keys[arrival.tenant], rhs_for(arrival, index))
        except GatewayOverloaded:
            pass  # counted by the gateway as shed

    await asyncio.gather(*(fire(a, i) for i, a in enumerate(trace)))
    await gateway.drain()
    return gateway.stats(wall_seconds=loop.time() - t0)
