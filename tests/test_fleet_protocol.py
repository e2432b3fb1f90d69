"""The fleet protocol's worker verb loop, driven in-thread.

:func:`repro.runtime.fleet.serve` is the one verb loop both fleet
transports run in their workers.  Here it runs on a thread over an
in-memory channel, so the protocol itself -- frame shapes, reply shapes,
error frames, what survives an error -- is checked without a process, a
pipe, or a socket in the way.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import queue
import socket
import threading
import time

import numpy as np
import pytest

from repro.core import uniform_bands
from repro.direct import get_solver
from repro.direct.cache import FactorizationCache
from repro.linalg.sparse import as_csr
from repro.matrices import diagonally_dominant, rhs_for_solution
from repro.runtime import FlakySolver, InlineExecutor, fleet, processes, sockets
from repro.runtime.api import owned_rows_spec
from repro.runtime.fleet import linger, serve
from repro.runtime.wire import send_frame

_TIMEOUT = 30.0


class _MemoryChannel:
    """The six-method worker channel over two in-process queues.

    Solve frames carry the batch's halos inline and ``done`` replies
    carry the pieces (the socket transport's shapes), and the
    open/release calls are recorded so the test can see the loop manage
    binding resources.
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

    def tasks_of(self, frame):
        return frame[3]

    def send_done(self, epoch, blocks, pieces, seconds) -> None:
        self.outbox.put(("done", epoch, blocks, seconds, pieces))

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
    bands = [as_csr(A)[rows, :] for rows in sets]
    halos = part.boundary_columns(A)
    spec = owned_rows_spec(bands, halos, b, sets, solvers, owned, use_cache)
    meta = meta if meta is not None else {"trace": False}
    return (verb, epoch, meta, pickle.dumps(spec, protocol=5))


def _solve_frame(epoch, A, part, blocks, z):
    """``("solve", epoch, blocks, halos)``: what the driver ships of ``z``."""
    halos = part.boundary_columns(A)
    return ("solve", epoch, list(blocks), [z[halos[l]] for l in blocks])


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
    verb, epoch, blocks, seconds, pieces = chan.ask(_solve_frame(1, A, part, [1], z))
    assert (verb, epoch, blocks) == ("done", 1, [1]) and seconds[0] >= 0.0
    np.testing.assert_array_equal(pieces[0], ref[1])

    # adopt adds blocks to the binding; the ones already owned stay
    verb, epoch, refactor = chan.ask(_spec_frame("adopt", 1, A, b, part, [3]))
    assert (verb, epoch) == ("adopted", 1) and refactor >= 0.0
    # one frame, two blocks, one reply -- in frame order, not block order
    verb, epoch, blocks, seconds, pieces = chan.ask(
        _solve_frame(1, A, part, [3, 0], z)
    )
    assert (verb, epoch, blocks) == ("done", 1, [3, 0])
    assert len(seconds) == 2 and min(seconds) >= 0.0
    np.testing.assert_array_equal(pieces[0], ref[3])
    np.testing.assert_array_equal(pieces[1], ref[0])
    assert chan.outbox.empty()

    verb, epoch, delta = chan.ask(("stats", 1))
    assert (verb, epoch) == ("stats", 1)
    assert delta.misses == 3  # blocks 0, 1 at attach + block 3 at adopt
    assert delta.hits == 3  # one keyed lookup per solve

    verb, epoch, spans, worker_now = chan.ask(("trace", 1))
    assert (verb, epoch, spans) == ("trace", 1, []) and worker_now > 0.0

    assert chan.ask(("detach", 2)) == ("detached", 2)
    # detached: the blocks are gone, which is an error frame, not a crash
    assert chan.ask(_solve_frame(2, A, part, [0], z))[0] == "error"

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

    # a kernel exception mid-batch (block 1 solved, block 0 raises):
    # one error frame answers the whole batch, no partial "done"
    verb, epoch, text = chan.ask(_solve_frame(5, A, part, [1, 0], z))
    assert (verb, epoch) == ("error", 5) and "InjectedFault" in text
    assert chan.outbox.empty()
    verb, epoch, text = chan.ask(("frobnicate", 5))  # unknown verb
    assert (verb, epoch) == ("error", 5) and "frobnicate" in text
    # still serving, binding intact: the flaky kernel's second call works
    assert chan.ask(_solve_frame(5, A, part, [0, 1], z))[:3] == ("done", 5, [0, 1])
    # an uncached binding reports no cache delta
    assert chan.ask(("stats", 5)) == ("stats", 5, None)

    chan.inbox.put(ConnectionResetError("driver hung up"))
    assert served.join() is False  # channel ended without an exit verb


def test_keyboard_interrupt_propagates():
    """Only ``Exception`` becomes an error frame: an interrupt must kill
    the worker, not be serialized back to the driver."""

    class _Interrupting(_MemoryChannel):
        def tasks_of(self, frame):
            raise KeyboardInterrupt

    A, b, part = _problem()
    chan = _Interrupting()
    served = _Served(chan)
    assert chan.ask(_spec_frame("attach", 1, A, b, part, [0])) == ("attached", 1)
    chan.inbox.put(_solve_frame(1, A, part, [0], np.zeros(b.shape)))
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
    chan.ask(_solve_frame(1, A, part, [2, 0], np.zeros(b.shape)))
    chan.ask(_spec_frame("adopt", 1, A, b, part, [1], meta=meta))
    spans = chan.ask(("trace", 1))[2]
    chan.inbox.put(("exit",))
    assert served.join() is True
    if not traced:
        assert spans == []
        return
    assert {lane for _, _, _, _, lane, _ in spans} == {"worker-7"}
    names = [name for name, *_ in spans]
    # one solve span per block, one wire event per frame
    assert names.count("solve") == 2 and names.count("wire.send") == 1
    assert names.count("wire.recv") == 3  # attach frame, halos, adopt frame
    # adopt is one span with a duration on every transport
    (adopt,) = [s for s in spans if s[0] == "adopt"]
    assert adopt[3] >= 0.0 and adopt[5] == {"blocks": [1]}


# -- the linger between a reply and the next frame ---------------------------


def test_linger_returns_at_once_when_a_frame_waits_and_is_bounded_when_none_does():
    r, w = os.pipe()
    try:
        t0 = time.perf_counter()
        linger(r)
        idle = time.perf_counter() - t0
        assert fleet._LINGER <= idle < fleet._LINGER + 1.0
        os.write(w, b"x")
        t0 = time.perf_counter()
        linger(r)
        # One poll, not the whole allowance (generous: a loaded CI host).
        assert time.perf_counter() - t0 < 0.5
        assert os.read(r, 1) == b"x"  # polled, not consumed
    finally:
        os.close(r)
        os.close(w)


def _pipe_channel():
    ticket_recv, ticket_send = mp.Pipe(duplex=False)
    reply_recv, reply_send = mp.Pipe(duplex=False)
    chan = processes._PipeChannel(ticket_recv, reply_send)
    return chan, ticket_send.send, (ticket_recv, ticket_send, reply_recv, reply_send)


def _socket_channel():
    ours, theirs = socket.socketpair()
    chan = sockets._SocketChannel(theirs)
    return chan, lambda frame: send_frame(ours, frame), (ours, theirs)


@pytest.mark.parametrize("module, make", [(processes, _pipe_channel), (sockets, _socket_channel)])
def test_only_a_done_reply_arms_the_linger(monkeypatch, module, make):
    """A worker spins for its next frame after a solve batch and at no
    other time: an idle or binding fleet blocks at once."""
    lingered: list[int] = []
    monkeypatch.setattr(module, "linger", lingered.append)
    chan, post, ends = make()
    try:
        post(("stats", 1))
        assert chan.recv() == ("stats", 1) and lingered == []
        chan.send(("stats", 1, None))  # a control reply does not arm it
        post(("solve", 1, []))
        assert chan.recv()[0] == "solve" and lingered == []
        chan.send_done(1, [], [], [])
        post(("solve", 1, []))
        assert chan.recv()[0] == "solve" and len(lingered) == 1
        post(("detach", 1))  # armed by the reply, spent by one recv
        assert chan.recv() == ("detach", 1) and len(lingered) == 1
    finally:
        for end in ends:
            end.close()
