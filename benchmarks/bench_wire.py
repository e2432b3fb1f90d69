"""Wire-path benchmark: zero-copy socket frames against the inline floor.

A bandwidth-1 diagonally dominant system (n = 60000, 24 blocks, local
copies batched over 8 right-hand sides so every solve message carries a
multi-megabyte payload) is driven through a 4-worker loopback
:class:`~repro.runtime.SocketExecutor` for a fixed number of
synchronous rounds.  Frames are pickle-protocol-5 heads whose ndarray
payloads travel as raw out-of-band segments (vectored ``sendmsg`` on
the way out, ``recv_into`` preallocated pooled buffers on the way in).
The solves are near-free (tridiagonal bands), so per-round wall minus
the busiest worker's share of the inline-measured solve cost *is* the
wire overhead, reported per round against that inline floor
(``BENCH_wire.json``).  The pieces must be bit-identical to
:class:`~repro.runtime.InlineExecutor`.
"""

from __future__ import annotations

import time

import numpy as np

from bench_output import emit
from conftest import run_once

from repro.core import uniform_bands
from repro.direct import get_solver
from repro.matrices import diagonally_dominant
from repro.runtime import InlineExecutor, SocketExecutor

#: Wire-bound problem -- big local copies (an ``(n, k)`` batched
#: right-hand-side block drives ``n * k`` doubles per message), near-free
#: tridiagonal solves.
WIRE_N = 60_000
WIRE_RHS = 8
WIRE_BLOCKS = 24
WIRE_WORKERS = 4
WIRE_ROUNDS = 6
WIRE_WARMUP = 2


def wire_overhead_experiment():
    """Per-round non-solve overhead of the socket wire over the inline
    solve floor (pieces checked bit-identical to inline)."""
    A = diagonally_dominant(WIRE_N, dominance=1.5, bandwidth=1, seed=3)
    # The binding's right-hand side has the local copies' (n, k) shape:
    # the fleets check every z against it.
    b = np.random.default_rng(4).standard_normal((WIRE_N, WIRE_RHS))
    part = uniform_bands(WIRE_N, WIRE_BLOCKS).to_general()
    # One (n, k) batched local copy per block: every solve message ships
    # n * k doubles, so the wire dominates while attach stays cheap.
    B = np.random.default_rng(5).standard_normal((WIRE_N, WIRE_RHS))
    Z = [B for _ in range(WIRE_BLOCKS)]

    ref_ex = InlineExecutor()
    ref_ex.attach(A, b, part.sets, get_solver("scipy"))
    ref_pieces = ref_ex.solve_round(Z)
    # Uncontended per-block solve cost of one round, measured inline:
    # the socket run's own worker timers are inflated by transfer
    # contention (most visibly on few-core hosts).
    solve0 = ref_ex.block_seconds()
    for _ in range(WIRE_ROUNDS):
        ref_ex.solve_round(Z)
    solve1 = ref_ex.block_seconds()
    ref_ex.close()
    # The backend round-robins blocks over its workers (block l on
    # worker l % W); the busiest worker's share of the inline-measured
    # solves is the compute floor.
    by_worker: dict[int, float] = {}
    for l in range(WIRE_BLOCKS):
        w = l % WIRE_WORKERS
        by_worker[w] = by_worker.get(w, 0.0) + solve1[l] - solve0[l]
    busy = max(by_worker.values())

    ex = SocketExecutor(workers=WIRE_WORKERS)
    try:
        ex.attach(A, b, part.sets, get_solver("scipy"))
        for _ in range(WIRE_WARMUP):
            pieces = ex.solve_round(Z)
        t0 = time.perf_counter()
        for _ in range(WIRE_ROUNDS):
            pieces = ex.solve_round(Z)
        wall = time.perf_counter() - t0
        wire = ex.wire_stats()
    finally:
        ex.close()
    for piece, ref in zip(pieces, ref_pieces):
        np.testing.assert_array_equal(piece, ref)
    return {"wall": wall, "busy": busy, "overhead": wall - busy, "wire": wire}


def test_wire_overhead(benchmark):
    wire = run_once(benchmark, wire_overhead_experiment)
    print()
    print(f"-- wire: n={WIRE_N} x {WIRE_RHS} rhs, {WIRE_BLOCKS} blocks over "
          f"{WIRE_WORKERS} socket workers, {WIRE_ROUNDS} timed rounds --")
    stats = wire["wire"]
    overhead_per_round = wire["overhead"] / WIRE_ROUNDS
    print(
        f"  zerocopy : wall {wire['wall']:7.3f} s  "
        f"(inline solve floor {wire['busy']:6.3f} s, "
        f"overhead {wire['overhead']:6.3f} s = "
        f"{overhead_per_round * 1e3:.1f} ms/round; "
        f"copies_avoided={stats['copies_avoided']}, "
        f"serialize {stats['serialize_seconds']:.3f} s, "
        f"transmit {stats['transmit_seconds']:.3f} s)"
    )
    assert stats["copies_avoided"] > 0

    emit("wire", [
        ("solve_floor", wire["busy"], "s"),
        ("overhead_zerocopy", wire["overhead"], "s"),
        ("overhead_per_round", overhead_per_round, "s"),
        ("copies_avoided", stats["copies_avoided"], "B"),
    ], seed=3)
