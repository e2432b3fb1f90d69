"""Live calibration: measure real worker speeds through the Executor API.

The simulated planners size bands from *modeled* host rates; a real
deployment (thread pool, worker processes, socket peers on other
machines) has no model -- it has workers whose effective speed depends
on hardware, load, and `nice` levels.  This module measures them with a
micro-benchmark expressed purely through the public
:class:`repro.runtime.Executor` contract, so every backend (present and
future) is calibratable without backend-specific hooks:

1. build a small block-tridiagonal probe system with one identical band
   per worker;
2. attach it with an *identity* placement (block ``w`` pinned to worker
   ``w``), so on a fleet (processes, sockets) each worker solves exactly
   its own probe band; the in-process backends (inline, threads)
   validate the pinning and ignore it -- every probe band runs on the
   one shared pool, so there the probe measures one machine;
3. run a warm-up round (first-touch costs: page faults, pool spin-up),
   then time ``repeats`` full rounds through the executor's own
   ``block_seconds()`` accounting -- the time is measured where the
   solve ran, worker-side for process/socket backends;
4. invert and normalise: ``speed_w ~ 1 / seconds_w``, scaled to mean 1.

:func:`calibrated_placement` feeds the measured speeds straight into the
cost-model planner, closing the loop: measure, plan, pin.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.schedule.plan import Placement, WorkerSlot, cost_model_placement

__all__ = ["measure_worker_speeds", "calibrated_placement"]

#: A probe round slower than this multiple of its worker's median round
#: is an outlier and left out of the worker's mean.
_OUTLIER_FACTOR = 4.0


def _probe_system(nworkers: int, probe_size: int):
    """A block-tridiagonal, diagonally dominant probe: identical work per band."""
    n = nworkers * probe_size
    main = np.full(n, 4.0)
    off = np.full(n - 1, -1.0)
    A = sp.diags([off, main, off], offsets=(-1, 0, 1), format="csr")
    b = np.ones(n)
    sets = [
        np.arange(w * probe_size, (w + 1) * probe_size, dtype=np.int64)
        for w in range(nworkers)
    ]
    return A, b, sets


def measure_worker_speeds(
    executor,
    nworkers: int,
    *,
    probe_size: int = 1024,
    repeats: int = 5,
) -> list[float]:
    """Measure relative worker speeds with an identity-pinned probe.

    Returns one positive relative speed per worker, normalised to mean
    1.0 (only ratios matter to the planners).  The executor is attached
    to a throwaway probe system for the duration and detached after --
    worker pools survive, so calibrating a long-lived executor is cheap.

    Robustness: each of the ``repeats`` rounds is timed *individually*
    (per-worker deltas of ``block_seconds``), and a worker's estimate is
    the mean of its rounds after an outlier guard -- rounds slower than
    four times the worker's median round are discarded.
    One round poisoned by a transient (a cron job, a page-cache stall, a
    CPU-frequency excursion on a loaded grid host) therefore cannot bend
    the plan: the median is untouched by a single outlier, and the guard
    keeps the poisoned sample out of the final average.

    The probe kernel is ``"dense"`` (LAPACK ``getrs``): each band's
    solve reads all ``probe_size^2`` entries of its LU, an identical
    per-band cost.  The default ``probe_size`` keeps that cost near a
    millisecond; below about 45 us a call is swamped by interpreter-lock
    hand-offs on the threaded backend and the measured speeds stop
    ranking the workers.  Raise ``probe_size``/``repeats`` on noisy
    hosts.
    """
    from repro.direct.base import get_solver

    if nworkers < 1:
        raise ValueError("nworkers must be positive")
    if probe_size < 2:
        raise ValueError("probe_size must be at least 2")
    if repeats < 1:
        raise ValueError("repeats must be positive")
    A, b, sets = _probe_system(nworkers, probe_size)
    plan = Placement(
        strategy="probe",
        n=A.shape[0],
        workers=tuple(WorkerSlot(name=f"probe-{w}") for w in range(nworkers)),
        sizes=(probe_size,) * nworkers,
        assignment=tuple(range(nworkers)),
    )
    tracer = getattr(executor, "tracer", None)
    t_cal = tracer.now() if tracer is not None else 0.0
    executor.attach(A, b, sets, get_solver("dense"), placement=plan)
    try:
        z = np.zeros(A.shape[0])
        executor.solve_round([z] * nworkers)  # warm-up, not timed
        samples: list[list[float]] = [[] for _ in range(nworkers)]
        prev = executor.block_seconds()
        for _ in range(repeats):
            executor.solve_round([z] * nworkers)
            cur = executor.block_seconds()
            for w in range(nworkers):
                samples[w].append(
                    max(cur.get(w, 0.0) - prev.get(w, 0.0), 1e-9)
                )
            prev = cur
    finally:
        executor.detach()
        if tracer is not None:
            tracer.add(
                "calibrate", "compute", t_cal, tracer.now() - t_cal,
                lane="driver", workers=nworkers, repeats=repeats,
                probe_size=probe_size,
            )
    seconds = []
    for rounds in samples:
        # A non-finite delta (a clock anomaly, a worker restarted
        # mid-probe) would poison the median -- every comparison with
        # NaN is False, so the guard below would discard *all* samples.
        finite = [s for s in rounds if np.isfinite(s)]
        med = float(np.median(finite)) if finite else 1e-9
        kept = [s for s in finite if s <= _OUTLIER_FACTOR * med]
        if not kept:
            # The guard discarded everything (single poisoned round,
            # no finite samples at all): fall back to the raw median
            # rather than dividing by zero.
            kept = [med]
        seconds.append(sum(kept) / len(kept))
    raw = [1.0 / s for s in seconds]
    mean = sum(raw) / len(raw)
    return [r / mean for r in raw]


def calibrated_placement(
    executor,
    n: int,
    nworkers: int,
    *,
    overlap: int = 0,
    probe_size: int = 1024,
    repeats: int = 5,
) -> Placement:
    """Measure the executor's workers, then plan cost-balanced bands.

    The returned plan pins block ``l`` to worker ``l`` (identity) with
    band sizes equalising estimated time under the *measured* speeds --
    hand it to any driver (``placement=``) and to the same executor's
    ``attach`` so the measured workers get the bands sized for them.
    """
    speeds = measure_worker_speeds(
        executor, nworkers, probe_size=probe_size, repeats=repeats
    )
    workers = tuple(
        WorkerSlot(name=f"worker-{w:02d}", speed=speeds[w]) for w in range(nworkers)
    )
    return cost_model_placement(n, speeds, overlap=overlap, workers=workers)
