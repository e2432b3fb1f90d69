"""Event tracing and run statistics.

A :class:`TraceRecorder` can be handed to :meth:`Cluster.make_engine`; it
collects the engine's event records (compute spans, sends, deliveries,
allocations) and summarises them into the quantities the paper discusses:
time spent computing vs communicating, bytes moved across the WAN, and
per-host utilisation.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

__all__ = ["TraceEvent", "TraceRecorder", "RunStats"]


@dataclass(frozen=True)
class TraceEvent:
    """One recorded simulator event."""

    kind: str
    time: float
    fields: tuple[tuple[str, object], ...]

    def get(self, key: str, default=None):
        """Dictionary-style access to the event payload."""
        for k, v in self.fields:
            if k == key:
                return v
        return default


@dataclass
class RunStats:
    """What the grid simulator measured over one run.

    Simulated quantities only: the makespan, compute time per process,
    and the messages and bytes the simulated network carried.  The real
    execution's provenance (cache, fault and wire counters, backend,
    per-block solve seconds, placement) lives on the run's
    :class:`repro.core.result.SolveResult`, not here.
    """

    makespan: float = 0.0
    total_compute_time: float = 0.0
    messages: int = 0
    bytes_sent: int = 0
    events_by_kind: Counter = field(default_factory=Counter)
    compute_time_by_pid: dict[int, float] = field(default_factory=dict)
    bytes_by_pair: dict[tuple[int, int], int] = field(default_factory=dict)


class TraceRecorder:
    """Callable trace sink with bounded memory.

    Parameters
    ----------
    keep_events:
        Maximum number of raw events retained (aggregation always covers
        every event).  ``0`` disables raw retention.
    """

    def __init__(self, *, keep_events: int = 100_000):
        if keep_events < 0:
            raise ValueError("keep_events must be non-negative")
        self.keep_events = keep_events
        self.events: list[TraceEvent] = []
        self._compute_by_pid: defaultdict[int, float] = defaultdict(float)
        self._bytes_by_pair: defaultdict[tuple[int, int], int] = defaultdict(int)
        self._counter: Counter = Counter()
        self._messages = 0
        self._bytes = 0
        self._last_time = 0.0

    def __call__(self, kind: str, time: float, **fields) -> None:
        self._counter[kind] += 1
        self._last_time = max(self._last_time, time)
        if kind == "compute":
            self._compute_by_pid[fields.get("pid", -1)] += fields.get("duration", 0.0)
        elif kind == "send":
            self._messages += 1
            nbytes = int(fields.get("nbytes", 0))
            self._bytes += nbytes
            pair = (int(fields.get("src", -1)), int(fields.get("dst", -1)))
            self._bytes_by_pair[pair] += nbytes
        if self.keep_events and len(self.events) < self.keep_events:
            self.events.append(TraceEvent(kind, time, tuple(sorted(fields.items()))))

    def stats(self) -> RunStats:
        """Summarise everything recorded so far."""
        return RunStats(
            makespan=self._last_time,
            total_compute_time=sum(self._compute_by_pid.values()),
            messages=self._messages,
            bytes_sent=self._bytes,
            events_by_kind=Counter(self._counter),
            compute_time_by_pid=dict(self._compute_by_pid),
            bytes_by_pair=dict(self._bytes_by_pair),
        )

    def events_of_kind(self, kind: str) -> list[TraceEvent]:
        """Return retained raw events of one kind (subject to the cap)."""
        return [e for e in self.events if e.kind == kind]
