"""Serving observability: per-request records and :class:`ServeStats`.

The gateway's performance claim -- coalesced ``(n, k)`` rounds beat
request-at-a-time solving -- is measured, not asserted: every completed
request leaves a :class:`RequestRecord` (queueing + solve latency, the
batch it rode in), and :meth:`ServeStats.from_records` reduces them to
the numbers an operator actually watches (throughput, p50/p95/p99
latency, mean batch size, shed count, cache counters).

Percentiles use the nearest-rank definition: ``p99`` of 100 samples is
the 99th smallest, not an interpolation -- tail latencies are reported
as observed values, never invented between two samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.direct.cache import CacheStats

__all__ = ["RequestRecord", "ServeStats", "nearest_rank"]


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample.

    ``pct`` is in (0, 100].  Empty samples return ``nan`` rather than
    raising so a shed-everything run still renders a table.
    """
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"pct must be in (0, 100], got {pct}")
    if not sorted_values:
        return float("nan")
    rank = max(1, -(-len(sorted_values) * pct // 100))  # ceil without math
    return sorted_values[int(rank) - 1]


@dataclass(frozen=True)
class RequestRecord:
    """One completed request, as the gateway observed it."""

    tenant: str
    latency: float
    """Seconds from admission to result delivery (queueing + batching
    window + solve)."""
    batch_size: int
    """How many right-hand sides shared this request's solve round."""


@dataclass(frozen=True)
class ServeStats:
    """Aggregate counters of one serving interval.

    ``completed + shed`` is every request the gateway saw; ``batches``
    counts the solve rounds actually dispatched, so
    ``completed / batches`` (``mean_batch_size``) is the coalescing
    factor the admission policy achieved.
    """

    completed: int
    shed: int
    batches: int
    wall_seconds: float
    latencies: tuple[float, ...] = field(repr=False, default=())
    cache_stats: CacheStats | None = None

    @classmethod
    def from_records(
        cls,
        records: list[RequestRecord],
        *,
        shed: int,
        batches: int,
        wall_seconds: float,
        cache_stats: CacheStats | None = None,
    ) -> "ServeStats":
        return cls(
            completed=len(records),
            shed=shed,
            batches=batches,
            wall_seconds=wall_seconds,
            latencies=tuple(sorted(r.latency for r in records)),
            cache_stats=cache_stats,
        )

    # -- derived ---------------------------------------------------------
    @property
    def offered(self) -> int:
        """Requests the gateway saw (completed + shed)."""
        return self.completed + self.shed

    @property
    def throughput_rps(self) -> float:
        """Completed requests per wall-clock second."""
        return self.completed / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def mean_batch_size(self) -> float:
        """Completed requests per dispatched solve round."""
        return self.completed / self.batches if self.batches else 0.0

    def latency_pct(self, pct: float) -> float:
        """Nearest-rank latency percentile in seconds."""
        return nearest_rank(list(self.latencies), pct)

    @property
    def p50(self) -> float:
        return self.latency_pct(50)

    @property
    def p95(self) -> float:
        return self.latency_pct(95)

    @property
    def p99(self) -> float:
        return self.latency_pct(99)

    def summary(self) -> str:
        """One human-readable line (the ``repro-serve`` report row)."""
        return (
            f"{self.completed} ok / {self.shed} shed in {self.wall_seconds:.2f}s "
            f"({self.throughput_rps:.1f} req/s, mean batch "
            f"{self.mean_batch_size:.1f}) "
            f"p50={self.p50 * 1e3:.1f}ms p95={self.p95 * 1e3:.1f}ms "
            f"p99={self.p99 * 1e3:.1f}ms"
        )
