"""Batched admission vs request-at-a-time serving, on the same traffic.

The gateway's claim is that coalescing concurrent shared-matrix
requests into ``(n, k)`` multisplitting rounds multiplies throughput:
one round's outer iterations cost roughly the same for 1 or 10
right-hand sides (BLAS-level column blocks), so the amortization factor
is the mean batch size the admission window achieves.

Both admission policies replay the *identical* seeded open-loop trace
(Poisson arrivals, hot/cold popularity skew over a small tenant fleet):

* **batched** -- a real micro-batching window (requests sharing a
  matrix ride one solve round);
* **request-at-a-time** -- ``window=0, max_batch=1`` (every request is
  its own round; same gateway, same pool, same cache policy).

At the saturating offered load the batched gateway must clear >= 2x the
request-at-a-time throughput; a p50/p95/p99 latency table vs offered
load is printed for both policies (the open-loop driver makes overload
visible as tail latency, not as a throttled generator).
"""

from __future__ import annotations

import asyncio

import numpy as np

from bench_output import emit
from conftest import run_once

from repro.matrices import diagonally_dominant
from repro.serve import ServeGateway, SolverPool, poisson_trace, run_open_loop

N = 120
TENANTS = 2
SKEW = 3.0  # hot tenant takes ~89% of traffic: shared-matrix heavy
BLOCKS = 4
POOL = 1
DURATION = 1.0
# req/s: comfortable, then the load that saturated request-at-a-time while
# two pool threads convoyed on the interpreter lock (148 req/s then, ~340
# with one batch at a time), then the one that saturates it now.
LOADS = (100.0, 400.0, 1600.0)
SEED = 0

POLICIES = {
    "batched": dict(window=0.02, max_batch=64),
    "one-at-a-time": dict(window=0.0, max_batch=1),
}


def _serve_once(policy: dict, rate: float):
    """One fresh pool + gateway serving the seeded trace for ``rate``."""
    matrices = [
        diagonally_dominant(N, dominance=1.5, bandwidth=4, seed=s)
        for s in range(TENANTS)
    ]
    trace = poisson_trace(rate, DURATION, TENANTS, skew=SKEW, seed=SEED)
    bank = np.random.default_rng(SEED + 1).standard_normal((64, N))
    pool = SolverPool(size=POOL, processors=BLOCKS, cache_capacity=64)
    try:
        gateway = ServeGateway(pool, max_pending=4096, **policy)
        keys = [gateway.register(A) for A in matrices]
        return asyncio.run(
            run_open_loop(
                gateway, keys, trace, lambda a, i: bank[i % len(bank)]
            )
        )
    finally:
        pool.close()


def serve_experiment():
    rows = []
    for rate in LOADS:
        for name, policy in POLICIES.items():
            stats = _serve_once(policy, rate)
            rows.append((rate, name, stats))
    return rows


def _print_table(rows) -> None:
    print()
    print(
        f"{'offered':>9}  {'policy':<14} {'ok':>5} {'shed':>5} "
        f"{'req/s':>7} {'batch':>6} {'p50 ms':>8} {'p95 ms':>8} {'p99 ms':>8}"
    )
    for rate, name, s in rows:
        print(
            f"{rate:>7.0f}/s  {name:<14} {s.completed:>5} {s.shed:>5} "
            f"{s.throughput_rps:>7.1f} {s.mean_batch_size:>6.1f} "
            f"{s.p50 * 1e3:>8.1f} {s.p95 * 1e3:>8.1f} {s.p99 * 1e3:>8.1f}"
        )
    print()


def test_batched_admission_beats_request_at_a_time(benchmark):
    rows = run_once(benchmark, serve_experiment)
    _print_table(rows)
    by = {(rate, name): s for rate, name, s in rows}
    top = max(LOADS)
    batched = by[(top, "batched")]
    serial = by[(top, "one-at-a-time")]
    # Identical offered trace, nothing shed: both completed every
    # request, so throughput differences are pure wall-clock.
    assert batched.completed == serial.completed == batched.offered
    # The window actually coalesced (shared-matrix traffic).
    assert batched.mean_batch_size >= 2.0
    speedup = batched.throughput_rps / serial.throughput_rps
    print(
        f"saturating load {top:.0f}/s: batched {batched.throughput_rps:.1f} "
        f"req/s vs one-at-a-time {serial.throughput_rps:.1f} req/s "
        f"({speedup:.1f}x)"
    )
    assert speedup >= 2.0, (
        f"batched admission only {speedup:.2f}x over request-at-a-time "
        f"(need >= 2x on shared-matrix traffic)"
    )

    emit("serve", [
        ("batched_throughput_rps", batched.throughput_rps, "req/s"),
        ("serial_throughput_rps", serial.throughput_rps, "req/s"),
        ("speedup", speedup, "x"),
        ("batched_mean_batch_size", batched.mean_batch_size, "rhs"),
        ("batched_p95_latency", batched.p95, "s"),
    ], seed=SEED)
