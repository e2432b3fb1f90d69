"""The one result record every driver and the facade return.

In-process drivers (:func:`~repro.core.sequential.multisplitting_iterate`,
:func:`~repro.core.sequential.chaotic_iterate`), the simulated pair
(:func:`~repro.core.sync.run_synchronous`,
:func:`~repro.core.asynchronous.run_asynchronous`) and
:class:`~repro.core.solver.MultisplittingSolver` all hand back a
:class:`SolveResult`; fields a driver has nothing to say about keep
their defaults.  Every counter lives in exactly one place: the result
carries the cache / fault / wire / placement / timing provenance, and
``stats`` holds only what the grid simulator measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.direct.cache import CacheStats
from repro.grid.trace import RunStats

__all__ = ["SolveResult", "STATUS_OK", "STATUS_NEM", "STATUS_MAXITER"]

#: Status values of a run.
STATUS_OK = "ok"
STATUS_NEM = "nem"  # not enough memory -- the paper's Table 3 outcome
STATUS_MAXITER = "max-iterations"


@dataclass
class SolveResult:
    """Outcome of one multisplitting run, whichever driver produced it.

    Attributes
    ----------
    x:
        Final combined iterate (core-owned components of each
        processor), shape ``(n,)`` or ``(n, k)`` for batched right-hand
        sides; ``None`` for a "nem" outcome.
    converged:
        True when the stopping rule / detection protocol fired before
        ``max_iterations``.
    status:
        ``"ok"``, ``"nem"`` (simulated out-of-memory) or
        ``"max-iterations"``.
    iterations:
        Outer iterations (max across processors where they differ: the
        synchronous count is identical on every rank, asynchronous
        counts "widely differ", as the paper notes).
    residual:
        Final true residual ``||b - A x||_inf`` (max over columns when
        batched), computed by the driver after the run.
    mode / nprocs:
        Execution mode (set by the simulated drivers and the facade) and
        number of band systems.
    per_proc_iterations:
        Per-rank counts (simulated modes only).
    simulated_time:
        Simulated seconds until the last processor finished -- the
        number comparable to the paper's table entries (``None``
        in-process).
    factorization_time:
        Simulated seconds until every band was factored, the paper's
        separate "factorization time" column (``None`` in-process).
    detection_messages:
        Total detection-protocol messages (cost of the termination
        layer; simulated asynchronous mode).
    stats:
        What the grid simulator measured (messages, bytes, compute
        time); ``None`` in-process and for "nem" outcomes.
    history:
        Per-round monitor values (diff max-norms or residuals, per the
        stopping metric).  Empty for the simulated modes, whose monitors
        are per-rank.
    contraction:
        The contraction factor per round that ``history`` shows
        (:func:`repro.core.stopping.observed_contraction`); ``None``
        below 3 rounds and in the simulated modes.
    cache_stats:
        Factorization-cache counters attributable to this run (``None``
        when no cache was supplied).
    fault_stats:
        Fault-tolerance and elastic-membership counters of the run
        (:class:`repro.runtime.resilience.FaultStats`); ``None`` when
        the backend tracks no faults (inline, threads) or the mode never
        attaches one (simulated).
    backend:
        Name of the :mod:`repro.runtime` backend the block solves ran on.
    block_seconds:
        Real cumulative wall-clock seconds spent solving each block
        (measured where the solve executed -- worker-side for the
        process backend).
    placement:
        Summary of the :class:`repro.schedule.Placement` the run was
        pinned with (strategy, band sizes, block-to-worker assignment;
        plus the actual ``hosts`` in the simulated modes), or ``None``
        for the implicit layout.
    wire:
        Real byte counters of the run's data movement (the executor's
        :meth:`~repro.runtime.Executor.wire_stats`):
        ``attach_payload_bytes`` per worker plus per-round vector
        traffic on the distributed backends; ``{}`` in-process and for
        the simulated modes (which attach no fleet).
    trace:
        The :class:`repro.observe.Tracer` holding the run's merged span
        timeline when tracing was on; ``None`` otherwise.
    """

    x: np.ndarray | None
    converged: bool
    status: str
    iterations: int
    residual: float
    mode: str = ""
    nprocs: int = 0
    per_proc_iterations: list[int] = field(default_factory=list)
    simulated_time: float | None = None
    factorization_time: float | None = None
    detection_messages: int = 0
    stats: RunStats | None = None
    history: list[float] = field(default_factory=list)
    contraction: float | None = None
    cache_stats: CacheStats | None = None
    fault_stats: "object | None" = None
    backend: str = "inline"
    block_seconds: dict[int, float] = field(default_factory=dict)
    placement: dict | None = None
    wire: dict = field(default_factory=dict)
    trace: "object | None" = None

    def error_vs(self, x_true: np.ndarray) -> float:
        """Max-norm error against a known solution."""
        if self.x is None:
            return float("nan")
        return float(np.max(np.abs(self.x - np.asarray(x_true))))
