"""Committed counterexamples: explorer-found schedules as regressions.

Each trace below was found by ``repro.check``'s exploration campaign
and is replayed here verbatim -- one deterministic run per bug, no
exploration, so this file stays fast and needs no budget.  A trace is
the list of scheduler choices (index into the ready set at each step);
``replay`` pads past its end with choice 0, so a trace stops at the
violating step.

If a model edit breaks one of these, re-derive the trace by running the
fixture through ``python -m repro.check <name>`` and commit the new
replay line -- traces are schedule-sensitive by design (that is what
makes them exact).
"""

from __future__ import annotations

import pytest

from repro.check import replay
from repro.check.models import REGISTRY

# (registry fixture, explorer-found trace, verdict kind, invariant name)
COUNTEREXAMPLES = [
    # The PR 4 bug the chaos harness originally hit by luck: worker 0
    # SIGKILLed inside the shared reply queue's critical section leaks
    # the put lock; the survivor can never reply, recovery requeues onto
    # it anyway, and the driver waits forever.
    (
        "wire.shared-queue",
        [0, 0, 0, 2, 2, 2, 1, 0, 0],
        "deadlock",
        None,
    ),
    # Found by the explorer while the pipe model was being written: a
    # worker killed *after* piping its reply but *before* the driver
    # drained it gets its block requeued, and both generations fold.
    # The real protocol's "a requeued block may answer twice" guard
    # (processes.py) is exactly what the disabled knob removes.
    (
        "wire.unguarded-requeue",
        [2, 2, 1, 0, 1, 3, 2, 0, 2, 1, 1, 0, 0, 0],
        "invariant",
        "no-double-fold",
    ),
    # Epoch filtering off: the stale frame an aborted binding left in
    # the pipe reaches the fold on the very first drain.
    (
        "wire.stale-epoch",
        [0],
        "invariant",
        "current-epoch-folds-only",
    ),
    # Deadline recovery without the ticket guard: the hung-but-alive
    # worker's late reply lands after its block was re-dispatched, and
    # the round folds the dead generation's piece.
    (
        "recovery.unfiltered-reply",
        [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
        "invariant",
        "fresh-generation-folds",
    ),
    # Recovery consulting the attach-time assignment instead of the
    # live owner map: a block adopted in recovery #1 is orphaned for
    # good when its adopter dies in recovery #2.
    (
        "recovery.stale-assignment",
        [3, 3, 0, 2, 4, 3, 3, 2, 3, 1, 0, 0, 1, 0, 0],
        "invariant",
        "no-orphans-at-quiescence",
    ),
]


@pytest.mark.parametrize(
    "name, trace, kind, invariant",
    COUNTEREXAMPLES,
    ids=[c[0] for c in COUNTEREXAMPLES],
)
def test_counterexample_replays(name, trace, kind, invariant):
    factory, expect_violation, _ = REGISTRY[name]
    assert expect_violation, f"{name} is not registered as a known-bug fixture"
    res = replay(factory, trace)
    assert res.violation is not None, f"{name}: trace no longer violates"
    assert res.violation.kind == kind
    if invariant is not None:
        assert res.violation.detail == invariant


def test_traces_do_not_trip_current_protocols():
    """The same schedules run clean once the guards are back on.

    Replaying each fixture's counterexample against the corresponding
    *current-protocol* model (all knobs default) must not violate: the
    schedule is the attack, the guard is the fix.
    """
    current = {
        "wire.shared-queue": "wire.pipes",  # protocol replaced outright
        "wire.unguarded-requeue": "wire.pipes",
        "wire.stale-epoch": "wire.pipes",
        "recovery.unfiltered-reply": "recovery.late-reply",
        "recovery.stale-assignment": "recovery.readoption",
    }
    for name, trace, _, _ in COUNTEREXAMPLES:
        factory, _, _ = REGISTRY[current[name]]
        res = replay(factory, trace)
        assert res.ok, f"{current[name]} failed under {name}'s schedule:\n{res.violation}"
