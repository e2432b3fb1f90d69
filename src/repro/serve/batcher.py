"""Content-keyed micro-batching: the admission coalescing policy.

:class:`MicroBatcher` is the pure data-structure half of the gateway's
admission path: requests are appended to a per-matrix pending list, and
the batcher tells the caller *when* a list must flush -- immediately on
reaching ``max_batch``, otherwise when the batching ``window`` the
caller is timing expires.  It owns no clocks, timers or event loop, so
its coalescing semantics are testable synchronously; the asyncio
gateway supplies the timing.

``window=0`` with ``max_batch=1`` degenerates to request-at-a-time
dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["MicroBatcher", "PendingRequest"]


@dataclass
class PendingRequest:
    """One admitted request waiting for its solve round."""

    rhs: Any
    """Right-hand side vector (``(n,)`` or ``(n, k)`` column block)."""
    future: Any
    """Completion handle (an ``asyncio.Future``; opaque here)."""
    arrival: float
    """Admission timestamp on the caller's clock (latency anchor)."""


@dataclass
class MicroBatcher:
    """Per-key pending lists plus the flush-now policy.

    Parameters
    ----------
    max_batch:
        Hard cap on right-hand sides per solve round.  A list reaching
        it flushes immediately (no point waiting out the window: the
        round is full).
    """

    max_batch: int = 32
    _pending: dict[str, list[PendingRequest]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be positive")

    def add(self, key: str, request: PendingRequest) -> str:
        """Queue ``request`` under ``key``; returns the required action.

        * ``"flush"``  -- the list hit ``max_batch``: dispatch it now;
        * ``"opened"`` -- first request of a fresh list: the caller
          should start its window timer for this key;
        * ``"queued"`` -- joined an already-open list: nothing to do.
        """
        queue = self._pending.setdefault(key, [])
        queue.append(request)
        if len(queue) >= self.max_batch:
            return "flush"
        return "opened" if len(queue) == 1 else "queued"

    def take(self, key: str) -> list[PendingRequest]:
        """Remove and return ``key``'s pending list (empty if none).

        Flush paths race benignly (window timer vs. max-batch): the
        second taker gets an empty list and dispatches nothing.
        """
        return self._pending.pop(key, [])

    def open_keys(self) -> list[str]:
        """Keys with a non-empty pending list (drain/teardown sweep)."""
        return [k for k, q in self._pending.items() if q]

    @property
    def pending_requests(self) -> int:
        """Total queued requests across every key."""
        return sum(len(q) for q in self._pending.values())
