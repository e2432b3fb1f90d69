"""The concurrency spec: invariant predicates shared by models and tests.

Each predicate is a pure function over plain data (dicts, sets,
sequences) so the *same* statement of correctness is checked in two
places:

* inside :mod:`repro.check.models`, after every step of every explored
  interleaving (the model checker);
* over the real executors' state in
  ``tests/test_runtime_conformance.py`` (the conformance suite).

A protocol change that breaks an invariant therefore fails both the
exploration of its model and the live executors it ships in -- the
models are the spec, not documentation.

Predicates return ``None`` when the invariant holds and a human-readable
message when it does not; ``holds()`` adapts them to the bool the engine
expects.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence

__all__ = [
    "holds",
    "no_double_fold",
    "no_orphans",
    "single_owner",
]


def holds(check: Callable[[], str | None]) -> Callable[[], bool]:
    """Adapt a message-returning invariant to the engine's bool predicate."""
    return lambda: check() is None


def single_owner(
    owners: Mapping[int, Iterable[int]],
) -> str | None:
    """Every block is owned by exactly one worker at a time.

    ``owners`` maps block -> collection of workers currently claiming it.
    Violated by double adoption: two recoveries re-homing the same
    orphan, or an adopt racing a late reply from the presumed-dead owner.
    """
    for block, claim in owners.items():
        claim = list(claim)
        if len(claim) != 1:
            return f"block {block} owned by {sorted(claim)} (want exactly 1)"
    return None


def no_orphans(
    owner: Mapping[int, int],
    live: Iterable[int],
) -> str | None:
    """After recovery settles, every block's owner is a live worker.

    ``owner`` maps block -> worker rank; ``live`` is the set of ranks
    still serving.  Violated when re-homing loses a block: the paper's
    fixed-point iteration silently stalls on the missing piece.
    """
    alive = set(live)
    lost = {l: w for l, w in owner.items() if w not in alive}
    if lost:
        return f"orphaned blocks (owner dead): {lost}"
    return None


def no_double_fold(folds: Sequence[int]) -> str | None:
    """Each block's reply is folded into the round at most once.

    ``folds`` is the sequence of block labels folded so far this round.
    Violated by the requeue-vs-reply race: a hung-but-alive worker's
    late reply landing *after* its block was re-dispatched means the
    round combines two generations of the same piece.
    """
    seen: set[int] = set()
    for l in folds:
        if l in seen:
            return f"block {l} folded twice in one round"
        seen.add(l)
    return None
