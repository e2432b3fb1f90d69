"""The :class:`MetricsRegistry`: one scrape surface for every counter.

Before this module the stack had four unrelated stat carriers --
``RunStats`` (simulator), ``FaultStats`` (resilience), ``ServeStats``
(gateway), and the cache's ``CacheStats`` -- each printed by whoever
held it.  The registry unifies them: the dataclasses stay as the
*transport* (they are pickled across process/socket boundaries, where a
shared registry object cannot live), and become **views into** one
namespace here -- via :meth:`MetricsRegistry.ingest` for completed-run
snapshots and via callable-backed *view gauges* (``gauge(fn=...)``)
for live state such as the serve gateway's admission queue, which is
read at scrape time instead of being book-kept twice.

:func:`render_metrics` emits the Prometheus text exposition format, so
the snapshot is scrapeable/diffable with stock tooling; the serve
gateway exposes it directly (``ServeGateway.render_metrics()``).
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from dataclasses import fields

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "render_metrics"]

#: Default histogram buckets (seconds): 100us .. 30s, log-ish spacing.
DEFAULT_BUCKETS = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0,
)


def _fmt_labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def _fmt_value(v) -> str:
    if isinstance(v, float) and v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v) if isinstance(v, float) else str(v)


class Counter:
    """Monotonic counter."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labels: dict | None = None):
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def render(self) -> list[str]:
        return [f"{self.name}{_fmt_labels(self.labels)} {_fmt_value(self._value)}"]


class Gauge:
    """Settable instantaneous value -- or a live *view* over ``fn``.

    With ``fn`` given, the gauge owns no state: every scrape calls
    ``fn()`` and reports whatever the underlying subsystem says right
    now.  This is how existing stat holders become views rather than
    parallel bookkeeping.
    """

    kind = "gauge"

    def __init__(
        self, name: str, help: str = "", labels: dict | None = None, fn=None
    ):
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self._fn = fn
        self._value = 0.0

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise RuntimeError(f"gauge {self.name} is a view; it cannot be set")
        self._value = float(value)

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value

    def render(self) -> list[str]:
        return [f"{self.name}{_fmt_labels(self.labels)} {_fmt_value(self.value)}"]


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: dict | None = None,
        buckets: tuple = DEFAULT_BUCKETS,
    ):
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self.buckets = tuple(sorted(buckets))
        self._counts = [0] * (len(self.buckets) + 1)  # + overflow
        self._sum = 0.0
        self._total = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        i = bisect_right(self.buckets, value)
        with self._lock:
            self._counts[i] += 1
            self._sum += value
            self._total += 1

    @property
    def count(self) -> int:
        return self._total

    @property
    def sum(self) -> float:
        return self._sum

    def render(self) -> list[str]:
        lines = []
        cumulative = 0
        for le, c in zip(self.buckets, self._counts):
            cumulative += c
            labels = dict(self.labels, le=repr(le))
            lines.append(f"{self.name}_bucket{_fmt_labels(labels)} {cumulative}")
        labels = dict(self.labels, le="+Inf")
        lines.append(f"{self.name}_bucket{_fmt_labels(labels)} {self._total}")
        lines.append(
            f"{self.name}_sum{_fmt_labels(self.labels)} {_fmt_value(self._sum)}"
        )
        lines.append(f"{self.name}_count{_fmt_labels(self.labels)} {self._total}")
        return lines


class MetricsRegistry:
    """Get-or-create home for counters/gauges/histograms + text scrape."""

    def __init__(self):
        self._metrics: dict[tuple, object] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name, help, labels, **kwargs):
        key = (name, tuple(sorted((labels or {}).items())))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, help=help, labels=labels, **kwargs)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def counter(self, name: str, help: str = "", labels: dict | None = None) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(
        self, name: str, help: str = "", labels: dict | None = None, fn=None
    ) -> Gauge:
        gauge = self._get_or_create(Gauge, name, help, labels)
        if fn is not None:
            gauge._fn = fn
        return gauge

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: dict | None = None,
        buckets: tuple = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels, buckets=buckets)

    # -- unified ingestion: the old stat carriers become views ------------
    def _ingest_fields(self, prefix: str, carrier) -> None:
        """Fold every numeric field of a stat carrier in.

        ``carrier`` is a stats dataclass or a counters dict (``None`` or
        empty: nothing to fold).  Each field lands on the counter
        ``<prefix>_<field>_total``; a dict-valued field (per-worker
        ``attach_payload_bytes``) contributes its sum, and a negative
        delta (``factor_seconds_saved`` across an eviction) counts as
        zero.  Walking the fields -- instead of naming them here -- is
        what keeps the scrape complete when a carrier grows one.
        """
        if not carrier:
            return
        if not isinstance(carrier, dict):
            carrier = {f.name: getattr(carrier, f.name) for f in fields(carrier)}
        for name, value in carrier.items():
            if isinstance(value, dict):
                value = sum(value.values())
            if isinstance(value, (int, float)):
                self.counter(f"{prefix}_{name}_total").inc(max(0, value))

    def ingest_cache(self, stats) -> None:
        """Fold a :class:`repro.direct.cache.CacheStats` delta in."""
        self._ingest_fields("repro_cache", stats)

    def ingest_result(self, result) -> None:
        """Fold a finished solve (:class:`repro.core.result.SolveResult`) in.

        Run counters land under ``repro_solve_*`` (with the gauge
        ``repro_solve_contraction`` for an in-process run); the result's
        ``cache_stats``, ``fault_stats``
        (:class:`repro.runtime.resilience.FaultStats`) and ``wire`` (an
        executor's ``wire_stats()`` dict) under ``repro_cache_*``,
        ``repro_fault_*`` and ``repro_wire_*``.
        """
        prefix = "repro_solve"
        self.counter(f"{prefix}_runs_total").inc()
        self.counter(f"{prefix}_iterations_total").inc(result.iterations)
        if result.contraction is not None:
            # A rate, not a count: the last solve's, as a gauge.
            self.gauge(f"{prefix}_contraction").set(result.contraction)
        self.counter(
            f"{prefix}_runs_by_backend_total", labels={"backend": result.backend}
        ).inc()
        for l, seconds in result.block_seconds.items():
            self.counter(
                f"{prefix}_block_seconds_total", labels={"block": str(l)}
            ).inc(seconds)
        self.ingest_cache(result.cache_stats)
        self._ingest_fields("repro_fault", result.fault_stats)
        self._ingest_fields("repro_wire", result.wire)

    def ingest_serve(self, stats) -> None:
        """Fold a completed :class:`repro.serve.metrics.ServeStats` in."""
        if stats is None:
            return
        prefix = "repro_serve"
        self.counter(f"{prefix}_completed_total").inc(getattr(stats, "completed", 0))
        self.counter(f"{prefix}_shed_total").inc(getattr(stats, "shed", 0))
        self.counter(f"{prefix}_batches_total").inc(getattr(stats, "batches", 0))
        for q in ("p50", "p95", "p99"):
            value = getattr(stats, q, None)
            if value is not None:
                self.gauge(f"{prefix}_latency_seconds", labels={"quantile": q}).set(value)
        hist = self.histogram(f"{prefix}_latency_hist_seconds")
        for latency in getattr(stats, "latencies", None) or ():
            hist.observe(latency)
        self.ingest_cache(getattr(stats, "cache_stats", None))

    def ingest_spans(self, spans) -> None:
        """Fold a span list in: counts per name, seconds per category."""
        for span in spans:
            self.counter("repro_spans_total", labels={"name": span.name}).inc()
            if span.dur > 0:
                self.histogram(
                    "repro_span_seconds", labels={"cat": span.cat}
                ).observe(span.dur)

    # -- scrape ----------------------------------------------------------
    def render(self) -> str:
        """Prometheus text exposition snapshot of every metric."""
        with self._lock:
            metrics = list(self._metrics.values())
        lines: list[str] = []
        seen_header: set[str] = set()
        for metric in sorted(metrics, key=lambda m: (m.name, sorted(m.labels.items()))):
            if metric.name not in seen_header:
                seen_header.add(metric.name)
                if metric.help:
                    lines.append(f"# HELP {metric.name} {metric.help}")
                lines.append(f"# TYPE {metric.name} {metric.kind}")
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"


def render_metrics(registry: MetricsRegistry) -> str:
    """Text snapshot of ``registry`` (Prometheus exposition format)."""
    return registry.render()
