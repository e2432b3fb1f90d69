"""Emit the fault counters of one seeded chaos run, as JSON.

CI's chaos job runs this twice and diffs the output: the fault schedule
is seeded and the recovery bookkeeping deterministic, so the two reports
must be byte-identical -- `same seed => same fault schedule => same
counters`, over all four execution backends.  The two fleets (processes,
sockets) lose a worker and drop replies; inline and threads have no
workers to lose, so they drop replies only.

Usage::

    PYTHONPATH=src python scripts/chaos_determinism.py
"""

from __future__ import annotations

import json

import numpy as np

from repro.core import make_weighting, multisplitting_iterate, uniform_bands
from repro.core.stopping import StoppingCriterion
from repro.direct import get_solver
from repro.matrices import diagonally_dominant, rhs_for_solution
from repro.runtime import ChaosExecutor, FaultInjector, FaultPolicy, get_executor

BACKEND_KWARGS = {
    "inline": {},
    "threads": {"max_workers": 2},
    "processes": {"max_workers": 2},
    "sockets": {"workers": 2},
}

#: The backends with workers a crash can kill.
FLEETS = ("processes", "sockets")


def main() -> int:
    A = diagonally_dominant(96, dominance=1.5, bandwidth=4, seed=5)
    b, _ = rhs_for_solution(A, seed=6)
    part = uniform_bands(96, 4).to_general()
    scheme = make_weighting("ownership", part)
    report = {}
    for backend, kwargs in BACKEND_KWARGS.items():
        inner = get_executor(backend, **kwargs)
        try:
            crash_rounds = (2,) if backend in FLEETS else ()
            injector = FaultInjector(
                seed=42, crash_rounds=crash_rounds, drop_rate=0.25
            )
            chaos = ChaosExecutor(inner, injector)
            res = multisplitting_iterate(
                A, b, part, scheme, get_solver("scipy"),
                stopping=StoppingCriterion(tolerance=1e-300, max_iterations=8),
                executor=chaos,
                fault_policy=FaultPolicy(heartbeat_interval=0.1),
            )
        finally:
            inner.close()
        f = res.fault_stats
        report[backend] = {
            "workers_lost": f.workers_lost,
            "blocks_requeued": f.blocks_requeued,
            "replies_dropped": f.replies_dropped,
            "schedule": [
                [ev.kind, ev.round, ev.worker, ev.block] for ev in injector.log
            ],
            "x_digest": repr(float(np.abs(res.x).sum())),
        }
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
