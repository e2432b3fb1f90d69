"""Tests for :mod:`repro.observe` -- tracing, metrics, exports, wiring.

The contract under test is strictly observational instrumentation:

* tracing never changes the numbers (bit-identical iterates on every
  backend, traced vs untraced);
* inline tracing overhead stays under the 5% wall-clock budget;
* the injected-fault span counts are deterministic under a seeded
  chaos schedule;
* the Chrome ``trace_event`` export passes its own schema gate, and the
  gate actually rejects malformed traces;
* a traced 4-worker socket solve yields a merged timeline with
  compute/wire/wait spans from *every* worker lane on one clock.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.core import make_weighting, multisplitting_iterate, uniform_bands
from repro.core.solver import MultisplittingSolver
from repro.core.stopping import StoppingCriterion
from repro.direct import FactorizationCache, get_solver
from repro.matrices import diagonally_dominant, rhs_for_solution
from repro.observe import (
    MetricsRegistry,
    Span,
    Tracer,
    chrome_trace,
    estimate_clock_offset,
    render_metrics,
    resolve_trace,
    round_timeline,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.runtime import ChaosExecutor, FaultInjector, get_executor

BACKENDS = ("inline", "threads", "processes", "sockets")

_KWARGS = {
    "inline": {},
    "threads": {"max_workers": 2},
    "processes": {"max_workers": 2},
    "sockets": {"workers": 2},
}


def _problem(n=96, L=4, seed=5):
    A = diagonally_dominant(n, dominance=1.5, bandwidth=4, seed=seed)
    b, _ = rhs_for_solution(A, seed=seed + 1)
    part = uniform_bands(n, L).to_general()
    scheme = make_weighting("ownership", part)
    return A, b, part, scheme


def _solve(executor=None, trace=None, stopping=None, cache=None, **problem_kw):
    A, b, part, scheme = _problem(**problem_kw)
    stopping = stopping or StoppingCriterion(tolerance=1e-10, max_iterations=50)
    return multisplitting_iterate(
        A, b, part, scheme, get_solver("scipy"),
        stopping=stopping, executor=executor, cache=cache, trace=trace,
    )


# ---------------------------------------------------------------------------
# Tracer primitives
# ---------------------------------------------------------------------------


class TestTracer:
    def test_add_event_span_and_counts(self):
        tr = Tracer()
        tr.add("solve", "compute", 1.0, 0.5, lane="block-0", block=0)
        tr.event("cache.hit", cat="cache", lane="worker-1", block=1)
        with tr.span("round", "round", round=0):
            pass
        counts = tr.counts()
        assert counts == {"solve": 1, "cache.hit": 1, "round": 1}
        spans = tr.spans()
        assert spans == sorted(spans, key=lambda s: (s.t0, s.lane, s.name))
        solve = next(s for s in spans if s.name == "solve")
        assert solve.args == {"block": 0}
        assert solve.t1() == pytest.approx(1.5)

    def test_ring_buffer_bounds_memory(self):
        tr = Tracer(capacity=10)
        for i in range(25):
            tr.event("tick", i=i)
        assert len(tr) == 10
        assert tr.recorded == 25
        assert tr.dropped == 15
        # oldest spans fell off; newest survived
        assert [s.args["i"] for s in tr.spans()] == list(range(15, 25))

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_export_batch_drains_and_ingest_shifts_clock(self):
        worker = Tracer()
        worker.add("solve", "compute", 100.0, 0.25, lane="worker-0", block=2)
        batch = worker.export_batch()
        assert len(worker) == 0
        assert batch == [("solve", "compute", 100.0, 0.25, "worker-0", {"block": 2})]

        driver = Tracer()
        n = driver.ingest(batch, clock_offset=90.0)
        assert n == 1
        (span,) = driver.spans()
        assert span.t0 == pytest.approx(10.0)
        assert span.dur == pytest.approx(0.25)
        assert span.lane == "worker-0"
        assert span.args == {"block": 2}

    def test_estimate_clock_offset_midpoint(self):
        # worker clock reads 1000.0 at driver midpoint (5.0 + 5.2) / 2
        off = estimate_clock_offset(5.0, 1000.0, 5.2)
        assert off == pytest.approx(1000.0 - 5.1)

    def test_resolve_trace(self):
        assert resolve_trace(None) is None
        assert resolve_trace(False) is None
        assert isinstance(resolve_trace(True), Tracer)
        tr = Tracer()
        assert resolve_trace(tr) is tr
        with pytest.raises(TypeError):
            resolve_trace("yes")


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


def _sample_spans():
    return [
        Span("round", "round", 0.0, 1.0, "driver", {"round": 0}),
        Span("solve", "compute", 0.1, 0.4, "worker-0", {"block": 0}),
        Span("wire.send", "wire", 0.5, 0.01, "worker-1", {"bytes": 2048}),
        Span("barrier.wait", "wait", 0.6, 0.2, "driver", {}),
        Span("cache.hit", "cache", 0.7, 0.0, "worker-0", {"block": 0}),
    ]


class TestExports:
    def test_chrome_trace_valid_and_lane_per_worker(self, tmp_path):
        path = tmp_path / "trace.json"
        obj = write_chrome_trace(_sample_spans(), path)
        validate_chrome_trace(obj)
        reloaded = json.loads(path.read_text())
        validate_chrome_trace(reloaded)
        names = {
            ev["args"]["name"]
            for ev in reloaded["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "thread_name"
        }
        assert names == {"driver", "worker-0", "worker-1"}
        # complete events for durations, instants for point events
        phases = {ev["name"]: ev["ph"] for ev in reloaded["traceEvents"] if ev["ph"] != "M"}
        assert phases["solve"] == "X"
        assert phases["cache.hit"] == "i"
        # timestamps rebased to start at 0, microsecond integers
        assert min(ev["ts"] for ev in reloaded["traceEvents"] if "ts" in ev) == 0

    @pytest.mark.parametrize(
        "bad",
        [
            [],  # not a dict
            {"events": []},  # wrong key
            {"traceEvents": {}},  # not a list
            {"traceEvents": [{"ph": "Q", "name": "x", "pid": 0, "tid": 0}]},
            {"traceEvents": [{"ph": "X", "pid": 0, "tid": 0}]},  # no name
            {  # float timestamp
                "traceEvents": [
                    {"ph": "X", "name": "x", "pid": 0, "tid": 0, "ts": 1.5, "dur": 1}
                ]
            },
            {  # lane without thread_name metadata
                "traceEvents": [
                    {"ph": "X", "name": "x", "pid": 0, "tid": 7, "ts": 0, "dur": 1}
                ]
            },
        ],
    )
    def test_validate_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            validate_chrome_trace(bad)

    def test_write_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        n = write_jsonl(_sample_spans(), path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == n == 5
        assert rows[1]["name"] == "solve"
        assert rows[2]["args"]["bytes"] == 2048

    def test_round_timeline_rollup(self):
        text = round_timeline(_sample_spans())
        lines = text.splitlines()
        assert len(lines) == 2  # header + one round
        assert "round" in lines[0]
        # compute 400ms, wire 10ms / 2 KiB, wait 200ms inside the round
        assert "400.00" in lines[1]
        assert "2.0" in lines[1]
        assert "200.00" in lines[1]

    def test_round_timeline_empty(self):
        assert round_timeline([]) == "(no round spans recorded)"


# ---------------------------------------------------------------------------
# MetricsRegistry
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_test_total")
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_set_and_view(self):
        reg = MetricsRegistry()
        g = reg.gauge("repro_depth")
        g.set(4)
        assert g.value == 4.0
        state = {"n": 7}
        view = reg.gauge("repro_live", fn=lambda: state["n"])
        assert view.value == 7.0
        state["n"] = 9
        assert view.value == 9.0  # re-read at scrape time
        with pytest.raises(RuntimeError):
            view.set(1)

    def test_histogram_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_lat_seconds", buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.5, 5.0):
            h.observe(v)
        text = reg.render()
        assert 'repro_lat_seconds_bucket{le="0.01"} 1' in text
        assert 'repro_lat_seconds_bucket{le="0.1"} 2' in text
        assert 'repro_lat_seconds_bucket{le="1.0"} 3' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 4' in text
        assert "repro_lat_seconds_count 4" in text

    def test_get_or_create_same_identity_and_kind_conflict(self):
        reg = MetricsRegistry()
        assert reg.counter("repro_x_total") is reg.counter("repro_x_total")
        with pytest.raises(TypeError):
            reg.gauge("repro_x_total")

    def test_render_format(self):
        reg = MetricsRegistry()
        reg.counter("repro_runs_total", help="runs").inc(3)
        reg.counter("repro_runs_by_backend_total", labels={"backend": "inline"}).inc()
        text = render_metrics(reg)
        assert "# HELP repro_runs_total runs" in text
        assert "# TYPE repro_runs_total counter" in text
        assert "repro_runs_total 3" in text
        assert 'repro_runs_by_backend_total{backend="inline"} 1' in text
        assert text.endswith("\n")

    def test_ingest_spans(self):
        reg = MetricsRegistry()
        reg.ingest_spans(_sample_spans())
        text = reg.render()
        assert 'repro_spans_total{name="solve"} 1' in text
        assert 'repro_span_seconds_count{cat="compute"} 1' in text

    def test_ingest_result_unifies_run_stats(self):
        result = _solve(trace=True, cache=FactorizationCache())
        reg = MetricsRegistry()
        reg.ingest_result(result)
        reg.ingest_spans(result.trace.spans())
        text = reg.render()
        assert "repro_solve_runs_total 1" in text
        assert "repro_solve_iterations_total" in text
        assert "repro_cache_misses_total" in text
        assert 'repro_spans_total{name="round"}' in text

    def test_ingest_renders_every_field_of_every_carrier(self):
        """The scrape walks the carriers' fields, so a counter a carrier
        grows (PR 10's elastic counters, ``spec_pickles_reused``) cannot
        be silently dropped."""
        from dataclasses import fields, replace

        from repro.core.result import SolveResult
        from repro.direct.cache import CacheStats
        from repro.runtime import FaultStats

        def all_set(carrier):
            names = [f.name for f in fields(carrier)]
            return replace(carrier, **{n: i + 1 for i, n in enumerate(names)}), names

        cache_stats, cache_names = all_set(CacheStats())
        fault_stats, fault_names = all_set(FaultStats())
        wire = {
            "attach_payload_bytes": {0: 40, 1: 2},
            "vector_bytes_sent": 7,
            "spec_pickles_reused": 3,
        }
        reg = MetricsRegistry()
        reg.ingest_result(SolveResult(
            x=None, converged=True, status="ok", iterations=5, residual=0.0,
            cache_stats=cache_stats, fault_stats=fault_stats, wire=wire,
        ))
        text = reg.render()
        for i, name in enumerate(cache_names):
            assert f"repro_cache_{name}_total {i + 1}\n" in text
        for i, name in enumerate(fault_names):
            assert f"repro_fault_{name}_total {i + 1}\n" in text
        assert "repro_fault_blocks_migrated_total" in text
        assert "repro_wire_attach_payload_bytes_total 42\n" in text
        assert "repro_wire_vector_bytes_sent_total 7\n" in text
        assert "repro_wire_spec_pickles_reused_total 3\n" in text

    def test_negative_saved_seconds_delta_counts_as_zero(self):
        from repro.direct.cache import CacheStats

        reg = MetricsRegistry()
        reg.ingest_cache(CacheStats(hits=2, factor_seconds_saved=-0.5))
        text = reg.render()
        assert "repro_cache_hits_total 2\n" in text
        assert "repro_cache_factor_seconds_saved_total 0\n" in text


# ---------------------------------------------------------------------------
# tracing is observational: bit-identical iterates, bounded overhead
# ---------------------------------------------------------------------------


class TestTracingIsObservational:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bit_identical_with_tracing(self, backend):
        stopping = StoppingCriterion(tolerance=1e-300, max_iterations=12)
        with get_executor(backend, **_KWARGS[backend]) as ex:
            plain = _solve(executor=ex, stopping=stopping)
        tracer = Tracer()
        with get_executor(backend, **_KWARGS[backend]) as ex:
            traced = _solve(executor=ex, trace=tracer, stopping=stopping)
        np.testing.assert_array_equal(traced.x, plain.x)
        assert traced.iterations == plain.iterations
        assert plain.trace is None
        assert traced.trace is tracer
        counts = tracer.counts()
        assert counts.get("round") == 12
        assert counts.get("solve", 0) >= 12 * 4  # every block, every round

    @pytest.mark.parametrize("driver", ["barrier", "chaotic"])
    def test_rejected_call_leaves_no_tracer_installed(self, driver):
        """A call refused on its arguments must not leave its tracer on
        the caller's executor or shared cache (later untraced runs would
        keep feeding it)."""
        from repro.core import chaotic_iterate

        A, b, part, scheme = _problem()
        cache = FactorizationCache()
        args = (A, b, part, scheme, get_solver("scipy"))
        bad = dict(x0=np.zeros(3), trace=True, cache=cache)
        with get_executor("inline") as ex, pytest.raises(ValueError, match="x0"):
            if driver == "barrier":
                multisplitting_iterate(*args, executor=ex, **bad)
            else:
                chaotic_iterate(*args, executor=ex, **bad)
        assert ex.tracer is None
        assert cache._tracer is None
        assert cache.stats.misses == 0  # refused before any side effect
        # ...and a traced run that completes unwinds the same way.
        _solve(executor=ex, trace=True, cache=cache)
        assert ex.tracer is None
        assert cache._tracer is None

    def test_overhead_budget_inline(self):
        """Inline traced wall-clock stays within 5% of untraced (+ jitter floor)."""
        stopping = StoppingCriterion(tolerance=1e-300, max_iterations=40)

        def run(trace):
            t0 = time.perf_counter()
            _solve(trace=trace, stopping=stopping, n=600, L=4)
            return time.perf_counter() - t0

        run(None)  # warm caches/JIT paths
        # Alternate the two sides, which goes first alternating too, and
        # take each side's best of 6: one preemption cannot land on
        # every run of one side.
        plain, traced = [], []
        for i in range(6):
            for with_trace in (False, True) if i % 2 else (True, False):
                if with_trace:
                    traced.append(run(Tracer()))
                else:
                    plain.append(run(None))
        plain, traced = min(plain), min(traced)
        # 5% budget plus a 5ms absolute floor against scheduler jitter on
        # loaded CI hosts (the relative bound is meaningless at sub-ms).
        assert traced <= plain * 1.05 + 0.005, (
            f"tracing overhead {traced / plain - 1:.1%} exceeds the 5% budget "
            f"(plain {plain:.4f}s, traced {traced:.4f}s)"
        )


# ---------------------------------------------------------------------------
# deterministic fault spans under seeded chaos
# ---------------------------------------------------------------------------


class TestChaosSpans:
    def test_seeded_chaos_span_counts_deterministic(self):
        stopping = StoppingCriterion(tolerance=1e-300, max_iterations=10)

        def run():
            tracer = Tracer()
            chaos = ChaosExecutor(
                get_executor("inline"),
                FaultInjector(seed=3, delay_rounds=(1, 4), drop_rounds=(2, 6),
                              delay_seconds=0.001),
            )
            with chaos:
                result = _solve(executor=chaos, trace=tracer, stopping=stopping)
            return result, tracer

        r1, t1 = run()
        r2, t2 = run()
        np.testing.assert_array_equal(r1.x, r2.x)
        # Only schedule-driven span names are compared: barrier waits and
        # heartbeats are timing-dependent and excluded by construction.
        deterministic = ("chaos.delay", "chaos.drop", "solve", "round")
        c1, c2 = t1.counts(), t2.counts()
        for name in deterministic:
            assert c1.get(name, 0) == c2.get(name, 0), name
        assert c1["chaos.delay"] == 2
        assert c1["chaos.drop"] == 2
        assert c1["round"] == 10


# ---------------------------------------------------------------------------
# wire accounting on results
# ---------------------------------------------------------------------------


class TestWireStats:
    def test_socket_wire_bytes_on_result(self):
        stopping = StoppingCriterion(tolerance=1e-300, max_iterations=8)
        with get_executor("sockets", workers=2) as ex:
            result = _solve(executor=ex, stopping=stopping)
        wire = result.wire
        attach = wire["attach_payload_bytes"]
        assert set(attach) == {0, 1}
        assert all(v > 0 for v in attach.values())
        # 8 rounds x 4 blocks of task frames out, reply frames back
        assert wire["vector_bytes_sent"] > 0
        assert wire["vector_bytes_received"] > 0

    def test_facade_surfaces_wire(self):
        A = diagonally_dominant(96, dominance=1.5, bandwidth=4, seed=5)
        b, _ = rhs_for_solution(A, seed=6)
        with get_executor("sockets", workers=2) as ex:
            # Sequential mode runs the real iteration on the backend; the
            # simulated modes only use the executor for setup, so they
            # report no per-round wire traffic.
            solver = MultisplittingSolver(mode="sequential", backend=ex)
            result = solver.solve(A, b)
        assert result.wire.get("vector_bytes_sent", 0) > 0
        assert result.wire.get("attach_payload_bytes")

    def test_inline_reports_empty_wire(self):
        result = _solve()
        assert result.wire.get("attach_payload_bytes", {}) == {}


# ---------------------------------------------------------------------------
# the acceptance scenario: 4 socket workers, one merged timeline
# ---------------------------------------------------------------------------


class TestSocketTimeline:
    def test_four_worker_merged_timeline_exports(self, tmp_path):
        stopping = StoppingCriterion(tolerance=1e-300, max_iterations=10)
        tracer = Tracer()
        with get_executor("sockets", workers=4) as ex:
            result = _solve(
                executor=ex, trace=tracer, stopping=stopping,
                cache=FactorizationCache(), n=128, L=4,
            )
        assert result.iterations == 10
        spans = tracer.spans()
        lanes = {s.lane for s in spans}
        assert {"driver", "worker-0", "worker-1", "worker-2", "worker-3"} <= lanes

        by_lane: dict[str, set] = {}
        for s in spans:
            by_lane.setdefault(s.lane, set()).add(s.name)
        for w in range(4):
            names = by_lane[f"worker-{w}"]
            # every worker shipped compute, wire, and wait spans
            assert "solve" in names
            assert "wire.recv" in names and "wire.send" in names
            assert "barrier.wait" in names
            # factorization shows up as a factor span or a cache miss
            assert "factor" in names or "cache.miss" in names

        # merged clock: worker spans interleave the driver's round window
        rounds = [s for s in spans if s.name == "round"]
        assert len(rounds) == 10
        t0, t1 = rounds[0].t0, rounds[-1].t1()
        worker_solves = [
            s for s in spans if s.name == "solve" and s.lane.startswith("worker-")
        ]
        inside = [s for s in worker_solves if t0 <= s.t0 <= t1]
        assert len(inside) >= 0.9 * len(worker_solves)

        # wire spans carry byte counts
        assert all(
            s.args.get("bytes", 0) > 0
            for s in spans if s.name in ("wire.send", "wire.recv")
        )

        path = tmp_path / "socket_trace.json"
        obj = write_chrome_trace(spans, path)
        validate_chrome_trace(obj)
        validate_chrome_trace(json.loads(path.read_text()))
        timeline = round_timeline(spans)
        assert timeline.count("\n") == 10  # header + 10 rounds


# ---------------------------------------------------------------------------
# serve gateway tracing + scrape
# ---------------------------------------------------------------------------


class TestServeObservability:
    def test_gateway_trace_and_metrics(self):
        import asyncio

        from repro.serve import ServeGateway, SolverPool

        A = diagonally_dominant(48, dominance=1.5, bandwidth=3, seed=2)
        pool = SolverPool(size=2, processors=2)
        try:
            tracer = Tracer()
            gw = ServeGateway(pool, window=0.01, max_batch=8, trace=tracer)
            key = gw.register(A)
            rng = np.random.default_rng(0)

            async def scenario():
                bs = rng.standard_normal((6, 48))
                xs = await asyncio.gather(*(gw.submit(key, b) for b in bs))
                await gw.drain()
                return xs

            xs = asyncio.run(scenario())
            assert len(xs) == 6
            counts = tracer.counts()
            assert counts["serve.admit"] == 6
            assert counts["serve.reply"] == 6
            assert counts.get("serve.batch", 0) >= 1
            batches = [s for s in tracer.spans() if s.name == "serve.batch"]
            assert sum(s.args["size"] for s in batches) == 6
            assert all(s.args["reason"] in ("window", "max_batch", "tick", "drain")
                       for s in batches)

            text = gw.render_metrics(wall_seconds=1.0)
            assert "repro_serve_pending 0" in text
            assert "repro_serve_completed 6" in text
            assert 'repro_spans_total{name="serve.admit"} 6' in text
        finally:
            pool.close()
