"""Command-line entry point: ``repro-experiments``.

Examples::

    repro-experiments table1
    repro-experiments table4 --scale 0.5
    repro-experiments all --scale 0.25
    repro-experiments figure3 --check
    repro-experiments table1 --backend threads
    repro-experiments table3 --placement calibrated
    repro-experiments table1 --partition interleaved

``--scale`` multiplies every workload's default order (1.0 reproduces the
laptop-scale defaults documented in DESIGN.md); ``--check`` additionally
runs the qualitative shape assertions against the paper's findings;
``--backend`` selects the :mod:`repro.runtime` execution backend the
replays run their real computations on (simulated times are unaffected;
wall-clock is).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments.report import (
    check_figure3_shape,
    check_scalability_shape,
    check_table3_shape,
    check_table4_shape,
    format_table,
)
from repro.experiments.tables import EXPERIMENTS, run_experiment
from repro.runtime import available_backends

__all__ = ["main", "main_serve"]

_CHECKS = {
    "table1": check_scalability_shape,
    "table2": check_scalability_shape,
    "table3": check_table3_shape,
    "table4": check_table4_shape,
    "figure3": check_figure3_shape,
}


def main(argv: list[str] | None = None) -> int:
    """Run one (or all) Section-6 experiments and print the tables."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Replay the paper's tables and figure on the grid simulator.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which experiment to replay",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload size multiplier (default 1.0 = registry defaults)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="assert the qualitative shape against the paper's findings",
    )
    parser.add_argument(
        "--backend",
        choices=available_backends(),
        default="inline",
        help="runtime execution backend for the real block computations "
        "(default: inline)",
    )
    parser.add_argument(
        "--placement",
        choices=["uniform", "proportional", "calibrated"],
        default=None,
        help="scheduling strategy for band sizes and host mapping "
        "(repro.schedule; default: the solver's legacy "
        "speed-proportional layout)",
    )
    parser.add_argument(
        "--partition",
        choices=["bands", "interleaved", "permuted", "schwarz"],
        default="bands",
        help="decomposition shape (Remarks 2-3 generality): contiguous "
        "bands (default), round-robin interleaved chunks, bands in a "
        "permuted ordering, or schwarz-overlapping bands paired with "
        "the schwarz weighting",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record the replays' span timeline and write a Chrome "
        "trace_event JSON there (load it in Perfetto / chrome://tracing); "
        "a .jsonl suffix writes raw span lines instead",
    )
    args = parser.parse_args(argv)

    tracer = None
    if args.trace is not None:
        from repro.observe import Tracer

        tracer = Tracer()

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    status = 0
    for name in names:
        t0 = time.time()
        result = run_experiment(
            name, scale=args.scale, backend=args.backend,
            placement=args.placement, partition=args.partition, trace=tracer,
        )
        elapsed = time.time() - t0
        print(format_table(result))
        print(f"(replayed in {elapsed:.1f}s wall; scale={args.scale})")
        if args.check:
            try:
                _CHECKS[name](result)
                print(f"shape check: OK ({name} matches the paper's findings)")
            except AssertionError as exc:
                print(f"shape check FAILED: {exc}", file=sys.stderr)
                status = 1
        print()
    if tracer is not None:
        _write_trace(tracer, args.trace)
    return status


def _write_trace(tracer, path: str) -> None:
    """Export a tracer to ``path`` (Chrome JSON, or JSONL for .jsonl)."""
    from repro.observe import round_timeline, write_chrome_trace, write_jsonl

    spans = tracer.spans()
    if path.endswith(".jsonl"):
        write_jsonl(spans, path)
    else:
        write_chrome_trace(spans, path)
    summary = round_timeline(spans)
    if summary:
        print(summary)
    print(f"trace: {len(spans)} spans -> {path}")


def main_serve(argv: list[str] | None = None) -> int:
    """Run the batching gateway under seeded open-loop traffic.

    The ``repro-serve`` entry point (also ``python -m repro.serve``):
    builds a small fleet of tenant matrices, fires a Poisson trace with
    hot/cold popularity skew at the gateway, and prints the served
    interval's throughput/latency/cache numbers.
    """
    import asyncio

    import numpy as np

    from repro.matrices import diagonally_dominant
    from repro.serve import ServeGateway, SolverPool, poisson_trace, run_open_loop

    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve multisplitting solves behind the micro-batching "
        "gateway under seeded open-loop traffic.",
    )
    parser.add_argument("--n", type=int, default=160, help="matrix order")
    parser.add_argument("--tenants", type=int, default=6, help="distinct matrices")
    parser.add_argument("--blocks", type=int, default=4, help="bands per solve")
    parser.add_argument("--rate", type=float, default=200.0, help="offered req/s")
    parser.add_argument("--duration", type=float, default=2.0, help="trace seconds")
    parser.add_argument("--skew", type=float, default=1.0, help="popularity skew")
    parser.add_argument("--seed", type=int, default=0, help="trace seed")
    parser.add_argument(
        "--window", type=float, default=0.005, help="batching window seconds"
    )
    parser.add_argument(
        "--max-batch", type=int, default=32, help="right-hand sides per round"
    )
    parser.add_argument(
        "--max-pending", type=int, default=512, help="admission bound before shedding"
    )
    parser.add_argument(
        "--cache-capacity", type=int, default=256,
        help="shared factorization-cache LRU bound",
    )
    parser.add_argument(
        "--backend",
        choices=available_backends(),
        default="inline",
        help="runtime backend the band solves of a batch run on (default: inline)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record the gateway's serving timeline (admissions, batch "
        "flushes, replies) and write a Chrome trace_event JSON there; "
        "a .jsonl suffix writes raw span lines instead",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the gateway's Prometheus text scrape after the run",
    )
    args = parser.parse_args(argv)

    matrices = [
        diagonally_dominant(args.n, dominance=1.5, bandwidth=4, seed=s)
        for s in range(args.tenants)
    ]
    rhs_rng = np.random.default_rng(args.seed + 1)
    rhs_bank = rhs_rng.standard_normal((64, args.n))

    pool = SolverPool(
        processors=args.blocks,
        cache_capacity=args.cache_capacity,
        backend=args.backend,
    )
    tracer = None
    if args.trace is not None:
        from repro.observe import Tracer

        tracer = Tracer()
    try:
        gateway = ServeGateway(
            pool,
            window=args.window,
            max_batch=args.max_batch,
            max_pending=args.max_pending,
            trace=tracer,
        )
        keys = [gateway.register(A) for A in matrices]
        trace = poisson_trace(
            args.rate, args.duration, args.tenants, skew=args.skew, seed=args.seed
        )
        print(
            f"offering {len(trace)} requests over {args.duration:.1f}s "
            f"({args.rate:.0f} req/s, {args.tenants} tenants, skew {args.skew}) "
            f"window={args.window * 1e3:.1f}ms max_batch={args.max_batch}"
        )
        stats = asyncio.run(
            run_open_loop(
                gateway, keys, trace,
                lambda arrival, i: rhs_bank[i % len(rhs_bank)],
            )
        )
    finally:
        pool.close()
    print(stats.summary())
    if stats.cache_stats is not None:
        c = stats.cache_stats
        print(
            f"cache: {c.hits} hits / {c.misses} misses "
            f"(hit rate {c.hit_rate:.2f}, "
            f"{c.factor_seconds_saved:.2f}s factor time saved)"
        )
    if args.metrics:
        from repro.observe import MetricsRegistry

        registry = MetricsRegistry()
        registry.ingest_serve(stats)
        if tracer is not None:
            registry.ingest_spans(tracer.spans())
        print(registry.render())
    if tracer is not None:
        _write_trace(tracer, args.trace)
    return 0 if stats.completed > 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
