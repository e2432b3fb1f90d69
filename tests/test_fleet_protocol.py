"""The fleet protocol's worker verb loop, driven in-thread.

:func:`repro.runtime.fleet.serve` is the one verb loop both fleet
transports run in their workers.  Here it runs on a thread over an
in-memory channel, so the protocol itself -- frame shapes, reply shapes,
error frames, what survives an error -- is checked without a process, a
pipe, or a socket in the way.
"""

from __future__ import annotations

import pickle
import queue
import threading

import numpy as np
import pytest

from repro.core import uniform_bands
from repro.direct import get_solver
from repro.direct.cache import FactorizationCache
from repro.linalg.sparse import as_csr
from repro.matrices import diagonally_dominant, rhs_for_solution
from repro.runtime import FlakySolver, InlineExecutor
from repro.runtime.api import owned_rows_spec
from repro.runtime.fleet import serve

_TIMEOUT = 30.0


class _MemoryChannel:
    """The six-method worker channel over two in-process queues.

    Solve frames carry ``z`` inline and ``done`` replies carry the
    piece (the socket transport's shapes), and the open/release calls
    are recorded so the test can see the loop manage binding resources.
    """

    def __init__(self):
        self.inbox: queue.Queue = queue.Queue()
        self.outbox: queue.Queue = queue.Queue()
        self.calls: list[str] = []

    def recv(self):
        frame = self.inbox.get(timeout=_TIMEOUT)
        if isinstance(frame, BaseException):
            raise frame
        return frame

    def send(self, reply) -> None:
        self.outbox.put(reply)

    def open(self, meta) -> None:
        self.calls.append("open")

    def release(self) -> None:
        self.calls.append("release")

    def z_of(self, frame):
        return frame[3]

    def send_piece(self, epoch, l, piece, seconds) -> None:
        self.outbox.put(("done", epoch, l, piece, seconds))

    # -- driver side of the test ----------------------------------------
    def ask(self, frame):
        self.inbox.put(frame)
        return self.outbox.get(timeout=_TIMEOUT)


def _problem(n=48, L=4, seed=3):
    A = diagonally_dominant(n, dominance=1.5, bandwidth=3, seed=seed)
    b, _ = rhs_for_solution(A, seed=seed + 1)
    return A, b, uniform_bands(n, L).to_general()


def _spec_frame(
    verb, epoch, A, b, part, owned, solvers=None, use_cache=True, meta=None
):
    solvers = solvers or [get_solver("scipy")] * part.nprocs
    sets = [np.asarray(rows, dtype=np.int64) for rows in part.sets]
    spec = owned_rows_spec(as_csr(A), b, sets, solvers, owned, use_cache)
    meta = meta if meta is not None else {"trace": False}
    return (verb, epoch, meta, pickle.dumps(spec, protocol=5))


class _Served:
    """Run ``serve`` on a thread; ``result`` is its return or its raise."""

    def __init__(self, chan):
        self.chan = chan
        self.result: object = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        try:
            self.result = serve(self.chan, FactorizationCache())
        except BaseException as exc:  # recorded for the test to assert on
            self.result = exc

    def join(self):
        self._thread.join(timeout=_TIMEOUT)
        assert not self._thread.is_alive()
        return self.result


def test_full_verb_sequence_matches_inline():
    A, b, part = _problem()
    chan = _MemoryChannel()
    served = _Served(chan)
    z = np.linspace(-1.0, 1.0, b.shape[0])
    with InlineExecutor() as inline:
        inline.attach(A, b, part.sets, get_solver("scipy"))
        ref = inline.solve_round([z] * part.nprocs)

    assert chan.ask(_spec_frame("attach", 1, A, b, part, [0, 1])) == ("attached", 1)
    verb, epoch, l, piece, seconds = chan.ask(("solve", 1, 1, z))
    assert (verb, epoch, l) == ("done", 1, 1) and seconds >= 0.0
    np.testing.assert_array_equal(piece, ref[1])

    # adopt adds blocks to the binding; the ones already owned stay
    verb, epoch, refactor = chan.ask(_spec_frame("adopt", 1, A, b, part, [3]))
    assert (verb, epoch) == ("adopted", 1) and refactor >= 0.0
    for l in (0, 3):
        np.testing.assert_array_equal(chan.ask(("solve", 1, l, z))[3], ref[l])

    verb, epoch, delta = chan.ask(("stats", 1))
    assert (verb, epoch) == ("stats", 1)
    assert delta.misses == 3  # blocks 0, 1 at attach + block 3 at adopt
    assert delta.hits == 3  # one keyed lookup per solve

    verb, epoch, spans, worker_now = chan.ask(("trace", 1))
    assert (verb, epoch, spans) == ("trace", 1, []) and worker_now > 0.0

    assert chan.ask(("detach", 2)) == ("detached", 2)
    # detached: the blocks are gone, which is an error frame, not a crash
    assert chan.ask(("solve", 2, 0, z))[0] == "error"

    chan.inbox.put(("exit",))
    assert served.join() is True
    # attach releases any stale binding before opening its own; adopt
    # re-opens (idempotent for the transport); detach and exit release
    assert chan.calls == ["release", "open", "open", "release", "release"]


def test_errors_answer_an_error_frame_and_the_loop_keeps_serving():
    A, b, part = _problem()
    chan = _MemoryChannel()
    served = _Served(chan)
    z = np.zeros(b.shape)
    flaky = FlakySolver(get_solver("scipy"), fail_solves=(1,))
    solvers = [flaky] + [get_solver("scipy")] * (part.nprocs - 1)
    assert chan.ask(
        _spec_frame("attach", 5, A, b, part, [0, 1], solvers, use_cache=False)
    ) == ("attached", 5)

    verb, epoch, text = chan.ask(("solve", 5, 0, z))  # kernel exception
    assert (verb, epoch) == ("error", 5) and "InjectedFault" in text
    verb, epoch, text = chan.ask(("frobnicate", 5))  # unknown verb
    assert (verb, epoch) == ("error", 5) and "frobnicate" in text
    # still serving, binding intact: the flaky kernel's second call works
    assert chan.ask(("solve", 5, 0, z))[:3] == ("done", 5, 0)
    assert chan.ask(("solve", 5, 1, z))[:3] == ("done", 5, 1)
    # an uncached binding reports no cache delta
    assert chan.ask(("stats", 5)) == ("stats", 5, None)

    chan.inbox.put(ConnectionResetError("driver hung up"))
    assert served.join() is False  # channel ended without an exit verb


def test_keyboard_interrupt_propagates():
    """Only ``Exception`` becomes an error frame: an interrupt must kill
    the worker, not be serialized back to the driver."""

    class _Interrupting(_MemoryChannel):
        def z_of(self, frame):
            raise KeyboardInterrupt

    A, b, part = _problem()
    chan = _Interrupting()
    served = _Served(chan)
    assert chan.ask(_spec_frame("attach", 1, A, b, part, [0])) == ("attached", 1)
    chan.inbox.put(("solve", 1, 0, np.zeros(b.shape)))
    assert isinstance(served.join(), KeyboardInterrupt)
    assert chan.outbox.empty()  # no error frame was sent for it


@pytest.mark.parametrize("traced", [False, True])
def test_tracing_is_armed_per_binding_by_the_meta(traced):
    A, b, part = _problem()
    chan = _MemoryChannel()
    served = _Served(chan)
    meta = {"trace": traced, "lane": "worker-7"}
    assert chan.ask(
        _spec_frame("attach", 1, A, b, part, [0, 2], meta=meta)
    ) == ("attached", 1)
    chan.ask(("solve", 1, 2, np.zeros(b.shape)))
    chan.ask(_spec_frame("adopt", 1, A, b, part, [1], meta=meta))
    spans = chan.ask(("trace", 1))[2]
    chan.inbox.put(("exit",))
    assert served.join() is True
    if not traced:
        assert spans == []
        return
    assert {lane for _, _, _, _, lane, _ in spans} == {"worker-7"}
    names = [name for name, *_ in spans]
    assert names.count("solve") == 1 and names.count("wire.send") == 1
    assert names.count("wire.recv") == 3  # attach frame, z, adopt frame
    # adopt is one span with a duration on every transport
    (adopt,) = [s for s in spans if s[0] == "adopt"]
    assert adopt[3] >= 0.0 and adopt[5] == {"blocks": [1]}
