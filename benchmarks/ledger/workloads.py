"""The four ledger workloads, as run inside one child process each.

``run.py`` pins the BLAS thread count and puts ``src/`` on the path
before importing this module; nothing here starts work at import.

Every solve op goes through the user-facing entry::

    MultisplittingSolver(mode="sequential", processors=4,
                         direct_solver="scipy", weighting="ownership",
                         tolerance=1e-8, backend=<Executor instance>)

The matrices belong to a workload's definition (generator seeds are
fixed): across generator seeds the iteration count of one matrix class
moves by a round or two in sixteen, which would read as a 6-10% change
of every timing.  ``--seed`` draws everything else -- each right-hand
side and each client's choice of tenant -- and the program under test
sees only the generated ``(A, b)``.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import probes
from repro import MultisplittingSolver
from repro.core.partition import uniform_bands
from repro.direct.cache import FactorizationCache
from repro.matrices.cage import cage_like
from repro.matrices.generators import diagonally_dominant, poisson_2d
from repro.observe import Tracer, validate_chrome_trace, write_chrome_trace
from repro.runtime import InlineExecutor, ProcessExecutor, SocketExecutor
from repro.serve import GatewayOverloaded, ServeGateway, SolverPool
from repro.serve.metrics import nearest_rank

#: Band count L of every solve, and worker count W of every fleet
#: (fixed, so that neither follows the host's core count).
PROCESSORS = 4
FLEET_WORKERS = 2

#: ``max|x - x_true| <= REL_ERROR * max|x_true|`` on every op.
REL_ERROR = 1e-5

#: A fixed-count run stops issuing ops once it has used this many times
#: ``--seconds`` (a much slower commit still ends inside the timeout).
OVERRUN = 1.5

#: One solve op in three is cold, so the median over all ops sits inside
#: the warm cluster and not in the gap between the two.
PATTERN = ("cold", "warm", "warm")


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, pct: float) -> float:
    return float(nearest_rank(sorted(values), pct)) if values else 0.0


def make_solver(executor, cache=True) -> MultisplittingSolver:
    return MultisplittingSolver(
        mode="sequential", processors=PROCESSORS, direct_solver="scipy",
        weighting="ownership", tolerance=1e-8, backend=executor, cache=cache,
    )


def close_enough(x, x_true) -> bool:
    if x is None or x.shape != x_true.shape:
        return False
    return bool(np.max(np.abs(x - x_true)) <= REL_ERROR * np.max(np.abs(x_true)))


class OrderedPairs:
    """Relative overhead from pairs of neighbouring ops, one with and one without.

    Neighbours share the host's drift, so it cancels in their difference.
    Which of the two runs first alternates, and the medians of the two
    orders are averaged, so what the first op leaves behind for the
    second (or a cold op for the op after it) cancels as well.
    """

    def __init__(self) -> None:
        self.by_order: tuple[list[float], list[float]] = ([], [])

    def add(self, order: int, with_s, without_s) -> None:
        if with_s is not None and without_s is not None:
            self.by_order[order].append((with_s - without_s) / without_s)

    def overhead(self) -> float:
        return (median(self.by_order[0]) + median(self.by_order[1])) / 2


class Tally:
    """Ops attempted and failed, with the reason of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, ok: bool, note: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)
        return ok


# ---------------------------------------------------------------------------
# the three solve workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolveSpec:
    backend: str  # "inline" | "processes" | "sockets"
    matrix: Callable[[], object]
    k: int  # right-hand sides per op
    triple_seconds: float  # one cold+warm+warm triple at the first run


def _executor(backend: str):
    if backend == "inline":
        return InlineExecutor()
    if backend == "processes":
        return ProcessExecutor(max_workers=FLEET_WORKERS)
    return SocketExecutor(workers=FLEET_WORKERS)


class SolveWorkload:
    """Cold and warm solves of one matrix on one executor.

    A cold op solves ``(2^e A, 2^e b)``: a power-of-two scale changes the
    content fingerprint, so every factor cache misses (worker caches
    included), while the iterates and the iteration count stay
    bit-identical to the unscaled solve.  A warm op solves the unscaled
    matrix against a freshly drawn right-hand side.
    """

    def __init__(self, name: str, spec: SolveSpec, seed: int, part: int, out: Path):
        self.name = name
        self.spec = spec
        self.out = out
        self.rng = np.random.default_rng([seed, part, 1])
        self.tally = Tally()
        self.inner = None
        self.layer: dict[str, float] = {}
        self._exponent = 0

    # -- inputs ------------------------------------------------------------
    def _draw(self):
        n = self.A.shape[0]
        shape = (n, self.spec.k) if self.spec.k > 1 else (n,)
        x_true = self.rng.uniform(-1.0, 1.0, size=shape)
        return self.A @ x_true, x_true

    def _next_scale(self) -> float:
        # 2, 1/2, 4, 1/4, ...: exact in floating point, never repeated.
        self._exponent += 1
        e = (self._exponent + 1) // 2
        if e > 300:
            raise RuntimeError("too many cold ops for distinct power-of-two scales")
        return 2.0 ** (e if self._exponent % 2 else -e)

    # -- lifecycle ---------------------------------------------------------
    def setup(self, traced: bool) -> None:
        t0 = time.perf_counter()
        self.A = self.spec.matrix()
        self.b_ref, self.x_ref_true = self._draw()
        self.layer["matrices.generate_s"] = time.perf_counter() - t0
        self.inner = _executor(self.spec.backend)
        self.workers = 1 if self.spec.backend == "inline" else FLEET_WORKERS
        if traced:
            self.spans = Tracer(capacity=1 << 20)
            self.tex = probes.TracingExecutor(self.inner, self.spans)
            cache = FactorizationCache(capacity=256)  # what cache=True builds
            self.solver = make_solver(self.inner, cache)
            self.probed = make_solver(self.tex, cache)
            self.warmup = self._traced_op(0, "cold", self.A, self.b_ref, self.x_ref_true)
        else:
            self.solver = make_solver(self.inner)
            self.warmup = self._op(self.solver, "cold", self.A, self.b_ref, self.x_ref_true)
        self.ref = None

    def reference(self, timed: bool) -> None:
        """Inline solve of the reference system (the fleets' bit-identity oracle)."""
        ex = InlineExecutor()
        try:
            solver = make_solver(ex)
            self.ref = solver.solve(self.A, self.b_ref)
            self.tally.record(
                self.ref.converged and close_enough(self.ref.x, self.x_ref_true),
                "inline reference did not reach the solution",
            )
            warmup = self.warmup[1]
            self.tally.record(
                warmup is not None and self._same_as_ref(warmup),
                "warm-up op differs from the inline reference",
            )
            if timed:
                times = []
                for _ in range(3):
                    t0 = time.perf_counter()
                    solver.solve(self.A, self.b_ref)
                    times.append(time.perf_counter() - t0)
                self.ref_warm_s = median(times)
        finally:
            ex.close()

    def close(self) -> None:
        if self.inner is not None:
            t0 = time.perf_counter()
            self.inner.close()
            self.layer["runtime.close_s"] = time.perf_counter() - t0
            self.inner = None

    # -- one op ------------------------------------------------------------
    def _same_as_ref(self, result) -> bool:
        return (
            result.x is not None
            and result.iterations == self.ref.iterations
            and np.array_equal(result.x, self.ref.x)
        )

    def _check(self, result, kind: str, x_true, on_ref: bool) -> tuple[bool, str]:
        if not result.converged:
            return False, f"{kind} op did not converge ({result.status})"
        if not close_enough(result.x, x_true):
            return False, f"{kind} op: error {result.error_vs(x_true):.3e} over the limit"
        misses = result.cache_stats.misses
        if (misses == 0) if kind == "cold" else (misses != 0):
            return False, f"{kind} op saw {misses} factor-cache misses"
        if on_ref and self.ref is not None and not self._same_as_ref(result):
            return False, f"{kind} op is not bit-identical to the inline reference"
        return True, ""

    def _op(self, solver, kind: str, A, b, x_true, on_ref: bool = False, trace=None):
        """Returns ``(seconds or None, result or None)``; a failed op has no time."""
        try:
            t0 = time.perf_counter()
            result = solver.solve(A, b, trace=trace)
            dt = time.perf_counter() - t0
            ok, note = self._check(result, kind, x_true, on_ref)
        except Exception as exc:  # the op failed; the run goes on and reports it
            ok, note, dt, result = False, f"{kind} op raised {exc!r}", None, None
        self.tally.record(ok, note)
        return (dt if ok else None), result

    def _traced_op(self, op: int, kind: str, A, b, x_true, on_ref: bool = False):
        self.tex.op = op
        t_op = time.perf_counter()
        try:
            t0 = time.perf_counter()
            result = self.probed.solve(A, b)
            dt = time.perf_counter() - t0
            self.spans.add(
                "core.solve", "core", t0, dt, lane="driver",
                op=op, parent="op", kind=kind, iterations=result.iterations,
            )
            ok, note = self._check(result, kind, x_true, on_ref)
        except Exception as exc:
            ok, note, dt, result = False, f"traced {kind} op raised {exc!r}", None, None
        finally:
            self.tex.op = None
        self.spans.add(
            "op", "op", t_op, time.perf_counter() - t_op, lane="driver",
            op=op, parent=None, kind=kind, ok=ok,
        )
        self.tally.record(ok, note)
        return (dt if ok else None), result

    def _inputs(self, kind: str):
        if kind == "cold":
            s = self._next_scale()
            return self.A * s, self.b_ref * s, self.x_ref_true, True
        b, x_true = self._draw()
        return self.A, b, x_true, False

    def _triples(self, seconds: float, at_least: int) -> int:
        return max(at_least, round(seconds / self.spec.triple_seconds))

    # -- the untraced run: end-to-end metrics ------------------------------
    def measure(self, seconds: float) -> dict:
        self.reference(timed=False)
        times = {"cold": [], "warm": []}
        began = time.perf_counter()
        for triple in range(self._triples(seconds, 2)):
            if triple >= 2 and time.perf_counter() - began > OVERRUN * seconds:
                break
            for kind in PATTERN:
                A, b, x_true, on_ref = self._inputs(kind)
                dt, _ = self._op(self.solver, kind, A, b, x_true, on_ref)
                if dt is not None:
                    times[kind].append(dt)
        every = times["cold"] + times["warm"]
        # One synchronous caller: the ops' own time is the window.
        return {"cold": times["cold"], "warm": times["warm"], "latency": every,
                "window": sum(every)}

    # -- the traced run: per-layer metrics ---------------------------------
    def measure_traced(self, seconds: float) -> None:
        self.reference(timed=True)
        untraced_warm: list[float] = []
        overheads = OrderedPairs()
        traced: list[tuple[int, str, object]] = []
        op = 0
        began = time.perf_counter()
        for triple in range(self._triples(seconds, 4)):
            if triple >= 4 and time.perf_counter() - began > OVERRUN * seconds:
                break
            # One traced and one untraced warm op next to each other in
            # every triple, the traced one first in every other triple.
            trace_it = (triple % 2 == 1, triple % 2 == 0, triple % 2 == 1)
            pair = {}
            for kind, with_spans in zip(PATTERN, trace_it):
                A, b, x_true, on_ref = self._inputs(kind)
                if with_spans:
                    op += 1
                    dt, result = self._traced_op(op, kind, A, b, x_true, on_ref)
                    if dt is not None:
                        traced.append((op, kind, result))
                else:
                    dt, _ = self._op(self.solver, kind, A, b, x_true, on_ref)
                if kind == "warm":
                    pair[with_spans] = dt
            if pair[False] is not None:
                untraced_warm.append(pair[False])
            overheads.add(triple % 2, pair[True], pair[False])
        self.layer["observe.probe_overhead_frac"] = overheads.overhead()
        self._fold_layers(median(untraced_warm), traced)
        self._run_probes()
        path = self.out / f"trace_{self.name}.json"
        validate_chrome_trace(write_chrome_trace(self.spans.spans(), path))

    def _fold_layers(self, untraced_warm: float, traced) -> None:
        by_op: dict[int, dict[str, list[float]]] = {}
        for span in self.spans.spans():
            by_op.setdefault(span.args["op"], {}).setdefault(span.name, []).append(span.dur)
        L = PROCESSORS
        warm, cold = [], []
        for op, kind, result in traced:
            spans = by_op[op]
            rounds = spans.get("runtime.round", [])
            attach = sum(spans.get("runtime.attach", []))
            detach = sum(spans.get("runtime.detach", []))
            solve = spans["core.solve"][0]
            stats = result.cache_stats
            wire = result.wire
            row = {
                "iterations": result.iterations,
                "attach": attach,
                "round": sum(rounds),
                "rounds": rounds,
                "detach": detach,
                "self": solve - attach - sum(rounds) - detach,
                "direct": sum(result.block_seconds.values()),
                "factor": stats.factor_seconds_spent,
                "hits": stats.hits,
                "misses": stats.misses,
                "evictions": stats.evictions,
                "serialize": wire.get("serialize_seconds", 0.0),
                "transmit": wire.get("transmit_seconds", 0.0),
                "bytes": wire.get("vector_bytes_sent", 0) + wire.get("vector_bytes_received", 0),
                "payload": sum(wire.get("attach_payload_bytes", {}).values()),
                "spans": sum(len(v) for v in spans.values()),
            }
            self.tally.record(row["self"] >= 0.0, f"op {op}: children outlast core.solve")
            (cold if kind == "cold" else warm).append(row)

        def mid(rows, key):
            return median(r[key] for r in rows)

        every_round = [d for r in warm for d in r["rounds"]]
        iterations = mid(warm, "iterations")
        hits = sum(r["hits"] for r in warm + cold)
        misses = sum(r["misses"] for r in warm + cold)
        self.layer.update({
            "core.iterations": iterations,
            "core.driver_self_s": mid(warm, "self"),
            "core.driver_self_per_round_us": median(
                r["self"] / r["iterations"] * 1e6 for r in warm
            ),
            "direct.factor_s": mid(cold, "factor"),
            "direct.solve_s": mid(warm, "direct"),
            "direct.solve_per_call_us": median(
                r["direct"] / (r["iterations"] * L) * 1e6 for r in warm
            ),
            "direct.cache_hits": mid(warm, "hits"),
            "direct.cache_misses": mid(cold, "misses"),
            "direct.cache_evictions": sum(r["evictions"] for r in warm + cold),
            "direct.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "runtime.attach_s": mid(warm, "attach"),
            "runtime.round_s": mid(warm, "round"),
            "runtime.round_p50_us": median(every_round) * 1e6,
            "runtime.round_p95_us": percentile(every_round, 95) * 1e6,
            "runtime.detach_s": mid(warm, "detach"),
            "runtime.round_overhead_s": median(
                r["round"] - r["direct"] / min(self.workers, L) for r in warm
            ),
            "runtime.wire_serialize_s": mid(warm, "serialize"),
            "runtime.wire_transmit_s": mid(warm, "transmit"),
            "runtime.wire_bytes_per_round": median(
                r["bytes"] / r["iterations"] for r in warm
            ),
            "runtime.attach_payload_bytes": mid(warm, "payload"),
            "runtime.first_attach_s": sum(by_op[0].get("runtime.attach", [])),
            "runtime.speedup_vs_inline": (
                self.ref_warm_s / untraced_warm if untraced_warm else 0.0
            ),
            "observe.spans_per_op": mid(warm, "spans"),
        })

    def _run_probes(self) -> None:
        sets = uniform_bands(self.A.shape[0], PROCESSORS).to_general().sets
        self.layer["core.build_s"] = probes.probe_core_build(self.A, self.b_ref, sets)
        factor_s, solve_us = probes.probe_kernel(self.A, sets[0], self.spec.k)
        self.layer["direct.kernel_factor_s"] = factor_s
        self.layer["direct.kernel_solve_us"] = solve_us
        self.layer["runtime.wire_roundtrip_us"] = probes.probe_wire_roundtrip(
            np.zeros(self.b_ref.shape)
        )
        # The program's own tracing: four pairs of neighbouring warm ops on
        # one right-hand side each, the traced one first in every other pair.
        overheads = OrderedPairs()
        for pair in range(4):
            A, b, x_true, _ = self._inputs("warm")
            times = {}
            for own_trace in (True, None) if pair % 2 else (None, True):
                times[own_trace], _ = self._op(
                    self.solver, "warm", A, b, x_true, trace=own_trace
                )
            overheads.add(pair % 2, times[True], times[None])
        self.layer["observe.trace_on_overhead_frac"] = overheads.overhead()


# ---------------------------------------------------------------------------
# serve_mix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServeSpec:
    n: int
    cold_tenants: int
    ramp: float  # seconds of each window dropped while the loop fills
    service_warm: int  # direct solve_batch probes, factors cached
    service_cold: int  # the same on a never-seen matrix


@dataclass
class Reply:
    submitted: float
    latency: float
    hot: bool
    key: bytes


HOT_CLIENTS = 5
COLD_CLIENTS = 3


class ServeWorkload:
    """Closed loop: 8 clients that each wait for their reply, then resubmit.

    Five hot clients share tenant 0; three cold clients draw uniformly
    from the other tenants, whose band factors (4 per tenant) are twice
    what the pool's cache holds, so they keep evicting each other.
    """

    def __init__(self, name: str, spec: ServeSpec, seed: int, part: int, out: Path):
        self.name = name
        self.spec = spec
        self.seed = seed
        self.part = part
        self.out = out
        self.rng = np.random.default_rng([seed, part, 2])
        self.tally = Tally()
        self.pool = None
        self.layer: dict[str, float] = {}

    def _draw(self, tenant: int, rng):
        x_true = rng.uniform(-1.0, 1.0, size=self.spec.n)
        return self.tenants[tenant] @ x_true, x_true

    def setup(self, traced: bool) -> None:
        t0 = time.perf_counter()
        self.tenants = [
            diagonally_dominant(
                self.spec.n, dominance=1.5, bandwidth=30, seed=t
            )
            for t in range(1 + self.spec.cold_tenants)
        ]
        self.layer["matrices.generate_s"] = time.perf_counter() - t0
        # Half of the cold tenants' band factors fit.
        self.pool = SolverPool(
            size=2, processors=PROCESSORS,
            cache_capacity=PROCESSORS * self.spec.cold_tenants // 2,
        )
        self.keys = [self.pool.register(A) for A in self.tenants]
        self._service_op("cold", 0, self.keys[0])

    def close(self) -> None:
        if self.pool is not None:
            t0 = time.perf_counter()
            self.pool.close()
            self.layer["runtime.close_s"] = time.perf_counter() - t0
            self.pool = None

    # -- service time with no queue in front -------------------------------
    def _service_op(self, kind: str, tenant: int, key: str, scale: float = 1.0):
        b, x_true = self._draw(tenant, self.rng)
        b = b * scale
        before = self.pool.cache_stats()
        try:
            t0 = time.perf_counter()
            X = self.pool.solve_batch(key, b[:, None])
            dt = time.perf_counter() - t0
            misses = self.pool.cache_stats().since(before).misses
            ok = close_enough(X[:, 0], x_true) and (misses > 0) == (kind == "cold")
            note = f"service {kind} op: {misses} misses or wrong solution"
        except Exception as exc:
            ok, note, dt = False, f"service {kind} op raised {exc!r}", None
        self.tally.record(ok, note)
        return dt if ok else None

    def _service_times(self) -> tuple[list[float], list[float]]:
        warm = [self._service_op("warm", 0, self.keys[0]) for _ in range(self.spec.service_warm)]
        cold = []
        for i in range(self.spec.service_cold):
            # Scaling A and b alike keeps the solution and changes the fingerprint.
            tenant = 1 + i % self.spec.cold_tenants
            scale = 2.0 ** (i + 1)
            key = self.pool.register(self.tenants[tenant] * scale)
            cold.append(self._service_op("cold", tenant, key, scale))
        return [t for t in cold if t is not None], [t for t in warm if t is not None]

    # -- the closed loop ---------------------------------------------------
    async def _client(self, cid: int, gateway, t_end: float, replies: list, tpool):
        hot = cid < HOT_CLIENTS
        rng = np.random.default_rng([self.seed, self.part, 3, cid])
        while time.perf_counter() < t_end:
            tenant = 0 if hot else int(rng.integers(1, 1 + self.spec.cold_tenants))
            b, x_true = self._draw(tenant, rng)
            t0 = time.perf_counter()
            try:
                x = await gateway.submit(self.keys[tenant], b)
            except GatewayOverloaded:
                self.shed += 1
                self.tally.record(False, "request shed")
                await asyncio.sleep(0.001)
                continue
            except Exception as exc:
                self.tally.record(False, f"request raised {exc!r}")
                continue
            latency = time.perf_counter() - t0
            if not self.tally.record(close_enough(x, x_true), "wrong reply"):
                continue
            key = probes.TracingPool.column_key(b)
            replies.append(Reply(t0, latency, hot, key))
            if tpool is not None:
                batch = tpool.carried.get(key, (None,))[0]
                tpool.spans.add(
                    "serve.request", "serve", t0, latency, lane=f"client-{cid}",
                    op=len(replies), parent=None, batch=batch, hot=hot,
                )

    async def _window(self, seconds: float, tpool=None):
        """One closed-loop window; returns the replies that ended inside it.

        With ``tpool`` (a :class:`probes.TracingPool` around the pool) the
        window is traced.
        """
        gateway = ServeGateway(
            tpool or self.pool, window=0.005, max_batch=32, max_pending=256
        )
        replies: list[Reply] = []
        self.shed = 0
        begin = time.perf_counter()
        t_end = begin + seconds
        clients = [
            asyncio.ensure_future(self._client(c, gateway, t_end, replies, tpool))
            for c in range(HOT_CLIENTS + COLD_CLIENTS)
        ]
        await asyncio.wait_for(asyncio.gather(*clients), timeout=seconds + 60.0)
        await asyncio.wait_for(gateway.drain(), timeout=60.0)
        t_from = begin + self.spec.ramp
        inside = [r for r in replies if t_from <= r.submitted + r.latency <= t_end]
        return inside, t_from, t_end

    def measure(self, seconds: float) -> dict:
        cold, warm = self._service_times()
        replies, t_from, t_end = asyncio.run(self._window(seconds))
        return {"cold": cold, "warm": warm, "latency": [r.latency for r in replies],
                "window": t_end - t_from}

    def measure_traced(self, seconds: float) -> None:
        plain, _, _ = asyncio.run(self._window(seconds / 2))
        tpool = probes.TracingPool(self.pool, Tracer(capacity=1 << 20))
        before = self.pool.cache_stats()
        replies, t_from, t_end = asyncio.run(self._window(seconds / 2, tpool))
        stats = self.pool.cache_stats().since(before)
        window = t_end - t_from
        latencies = [r.latency for r in replies]
        calls = [c for c in tpool.calls if t_from <= c[0] + c[1] <= t_end]
        waits = [
            r.latency - tpool.carried[r.key][1] for r in replies if r.key in tpool.carried
        ]
        self.tally.record(len(waits) == len(replies), "a reply without its batch span")
        plain_p50 = median(r.latency for r in plain)
        self.layer.update({
            "direct.factor_s": stats.factor_seconds_spent,
            "direct.cache_hits": stats.hits,
            "direct.cache_misses": stats.misses,
            "direct.cache_evictions": stats.evictions,
            "direct.cache_hit_rate": stats.hit_rate,
            "serve.latency_p95_ms": percentile(latencies, 95) * 1e3,
            "serve.hot_latency_p50_ms": median(r.latency for r in replies if r.hot) * 1e3,
            "serve.cold_latency_p50_ms": median(r.latency for r in replies if not r.hot) * 1e3,
            "serve.mean_batch": len(replies) / len(calls) if calls else 0.0,
            "serve.batches": len(calls),
            "serve.batch_solve_p50_ms": median(c[1] for c in calls) * 1e3,
            "serve.queue_wait_p50_ms": median(waits) * 1e3,
            "serve.pool_busy_frac": sum(
                max(0.0, min(c[0] + c[1], t_end) - max(c[0], t_from)) for c in tpool.calls
            ) / (window * self.pool.size),
            "serve.completed": len(replies),
            "serve.shed": self.shed,
            "observe.probe_overhead_frac": (
                (median(latencies) - plain_p50) / plain_p50 if plain_p50 else 0.0
            ),
            "observe.spans_per_op": (
                (len(replies) + len(calls)) / len(replies) if replies else 0.0
            ),
        })
        A = self.tenants[0]
        sets = uniform_bands(self.spec.n, PROCESSORS).to_general().sets
        b, _ = self._draw(0, self.rng)
        self.layer["core.build_s"] = probes.probe_core_build(A, b, sets)
        factor_s, solve_us = probes.probe_kernel(A, sets[0], 1)
        self.layer["direct.kernel_factor_s"] = factor_s
        self.layer["direct.kernel_solve_us"] = solve_us
        self.layer["runtime.wire_roundtrip_us"] = probes.probe_wire_roundtrip(b)
        path = self.out / f"trace_{self.name}.json"
        validate_chrome_trace(write_chrome_trace(tpool.spans.spans(), path))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

SPECS = {
    "full": {
        "seq_cage": SolveSpec("inline", lambda: cage_like(6000, seed=0), 1, 1.5),
        "proc_rounds": SolveSpec("processes", lambda: poisson_2d(64), 1, 2.0),
        "sock_fat": SolveSpec("sockets", lambda: poisson_2d(32), 32, 2.7),
        "serve_mix": ServeSpec(1500, 8, ramp=0.5, service_warm=16, service_cold=8),
    },
    "selftest": {
        "seq_cage": SolveSpec("inline", lambda: cage_like(1200, seed=0), 1, 1.0),
        "proc_rounds": SolveSpec("processes", lambda: poisson_2d(10), 1, 1.0),
        "sock_fat": SolveSpec("sockets", lambda: poisson_2d(8), 4, 1.0),
        "serve_mix": ServeSpec(300, 8, ramp=0.2, service_warm=4, service_cold=2),
    },
}


def build(name: str, scale: str, seed: int, part: int, out: Path):
    """``part`` tells apart the child processes of one run: same matrices,
    other right-hand sides."""
    spec = SPECS[scale][name]
    cls = ServeWorkload if isinstance(spec, ServeSpec) else SolveWorkload
    return cls(name, spec, seed, part, out)
