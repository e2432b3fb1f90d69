"""Protocol models for the interleaving explorer.

Each module ports one runtime protocol to explicit-trap coroutines:

* :mod:`repro.check.models.wire` -- the executor wire protocol
  (per-worker reply pipes, strict send/recv pairing, epoch straggler
  filtering), plus the **old** shared-reply-queue protocol as the
  known-bug fixture (the PR 4 SIGKILL deadlock the chaos harness found
  by luck -- the explorer finds it exhaustively);
* :mod:`repro.check.models.recovery` -- the ``FaultPolicy`` state
  machine: deadline detection, re-homing/adoption, re-dispatch, and the
  requeue-vs-reply and double-adoption races;
* :mod:`repro.check.models.elastic` -- the elastic membership protocol:
  grow/shrink migration must land on a quiescent round boundary, since
  it moves ownership *without* bumping the epoch (mid-round adoption
  double-folds a block or splices a stale round's piece).

Every model class takes keyword knobs selecting the *current* protocol
(the default -- explored clean) or a historical/hypothetical broken
variant (the fixtures proving the checker detects that bug class).
``REGISTRY`` maps CLI names to ``(factory, expect_violation, budget)``
triples for ``python -m repro.check``.
"""

from __future__ import annotations

from repro.check.models.elastic import ElasticModel
from repro.check.models.recovery import ReadoptionModel, RecoveryModel
from repro.check.models.wire import PipeReplyModel, SharedQueueModel

__all__ = [
    "REGISTRY",
    "ElasticModel",
    "PipeReplyModel",
    "ReadoptionModel",
    "RecoveryModel",
    "SharedQueueModel",
]

#: name -> (model factory, expected verdict, exploration budget).
#: ``expect_violation`` distinguishes the current-protocol models (must
#: explore clean) from the known-bug fixtures (must reproduce their bug:
#: a fixture that stops failing means the checker lost its teeth).
#:
#: Budgets are tuned from measured schedule-tree sizes: ``wire.pipes``
#: (157,812 schedules) and ``recovery.late-reply`` (145,503) are small
#: enough to settle *conclusively* (``exhausted=True``); the
#: readoption tree runs past 400k schedules, so it gets a bounded DFS
#: plus seeded walks.  Fixture budgets are just enough to reproduce
#: with margin: the shared-queue deadlock needs the walks (bounded DFS
#: explores thread-order-biased corners first).
REGISTRY: dict[str, tuple] = {
    # -- current protocols: must be violation-free -------------------
    "wire.pipes": (
        lambda: PipeReplyModel(),
        False,
        {"max_runs": 200_000, "walks": 200},
    ),
    "recovery.late-reply": (
        lambda: RecoveryModel(),
        False,
        {"max_runs": 200_000, "walks": 200},
    ),
    "recovery.readoption": (
        lambda: ReadoptionModel(),
        False,
        {"max_runs": 20_000, "walks": 300},
    ),
    "elastic.migration": (
        lambda: ElasticModel(),
        False,
        {"max_runs": 20_000, "walks": 300},
    ),
    # -- known-bug fixtures: must reproduce their violation ----------
    "wire.shared-queue": (
        lambda: SharedQueueModel(),
        True,
        {"max_runs": 1_000, "walks": 200},
    ),
    "wire.unguarded-requeue": (
        lambda: PipeReplyModel(requeue_guard=False),
        True,
        {"max_runs": 1_000, "walks": 400},
    ),
    "wire.stale-epoch": (
        lambda: PipeReplyModel(filter_epochs=False),
        True,
        {"max_runs": 200, "walks": 100},
    ),
    "recovery.unfiltered-reply": (
        lambda: RecoveryModel(late_reply_guard=False),
        True,
        {"max_runs": 1_000, "walks": 200},
    ),
    "recovery.stale-assignment": (
        lambda: ReadoptionModel(track_adoptions=False),
        True,
        {"max_runs": 1_000, "walks": 200},
    ),
    "elastic.mid-round-migration": (
        lambda: ElasticModel(boundary_guard=False),
        True,
        {"max_runs": 2_000, "walks": 300},
    ),
}
