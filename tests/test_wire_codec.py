"""Round-trip and fuzz suite for the zero-copy wire codec.

Property-based (Hypothesis) coverage of :mod:`repro.runtime.wire`:

* arbitrary dtypes, shapes (including 0-sized), C- and F-order arrays,
  and nested containers survive a socket round trip **bit-identical**;
* truncated streams, oversized declared lengths and frames flagged with
  the retired in-band protocol are rejected with :class:`FrameError`
  (a ``ConnectionError``, so executors route garbage frames through
  their dead-peer fault paths);
* :class:`BufferPool` rotation really reuses slots -- and reallocates
  on size changes;
* the executor-level contract: ``SocketExecutor`` produces iterates
  bit-identical to inline with the zero-copy accounting
  (``copies_avoided``) non-zero, and both fleet backends re-send spec
  bytes from the shared pickle cache across a respawn.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.runtime.wire import (
    FLAG_LEGACY,
    FRAME_PREFIX,
    MAX_FRAME_BUFFER_BYTES,
    MAX_FRAME_BUFFERS,
    MAX_FRAME_HEAD_BYTES,
    BufferPool,
    FrameError,
    encode_frame,
    recv_frame,
    send_frame,
)

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _roundtrip(obj, *, transient=False, pool=None, key=None):
    """Send ``obj`` over a real socket pair, return ``(obj2, sinfo, rinfo)``.

    The sender runs on a thread so large frames can't deadlock on the
    pair's kernel buffers.
    """
    a, b = socket.socketpair()
    try:
        sinfo = {}

        def _send():
            sinfo.update(send_frame(a, obj, transient=transient))

        t = threading.Thread(target=_send)
        t.start()
        out, rinfo = recv_frame(b, pool=pool, key=key)
        t.join(timeout=30.0)
        assert not t.is_alive()
        return out, sinfo, rinfo
    finally:
        a.close()
        b.close()


def _feed_raw(payload: bytes):
    """A socket whose read side will see exactly ``payload`` then EOF."""
    a, b = socket.socketpair()
    try:
        a.sendall(payload)
        a.close()
        return b
    except BaseException:
        b.close()
        raise


def _assert_identical(x, y):
    """Structural bit-identity: arrays compared via raw bytes."""
    if isinstance(x, np.ndarray):
        assert isinstance(y, np.ndarray)
        assert x.dtype == y.dtype
        assert x.shape == y.shape
        assert np.asarray(x, order="C").tobytes() == np.asarray(y, order="C").tobytes()
    elif isinstance(x, (list, tuple)):
        assert type(x) is type(y) and len(x) == len(y)
        for xi, yi in zip(x, y):
            _assert_identical(xi, yi)
    elif isinstance(x, dict):
        assert set(x) == set(y)
        for k in x:
            _assert_identical(x[k], y[k])
    else:
        assert x == y


_DTYPES = st.sampled_from(
    [np.float64, np.float32, np.int64, np.int32, np.uint8, np.complex128, np.bool_]
)

_ARRAYS = _DTYPES.flatmap(
    lambda dt: hnp.arrays(
        dtype=dt,
        shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=6),
    )
)


# ---------------------------------------------------------------------------
# round-trip properties
# ---------------------------------------------------------------------------


class TestRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(arr=_ARRAYS, order=st.sampled_from(["C", "F"]))
    def test_array_roundtrip_bit_identical(self, arr, order):
        arr = np.asarray(arr, order=order)
        out, sinfo, rinfo = _roundtrip(("done", 3, 1, arr, 0.5))
        verb, epoch, block, arr2, dt = out
        assert (verb, epoch, block, dt) == ("done", 3, 1, 0.5)
        _assert_identical(arr, arr2)
        assert sinfo["payload"] == rinfo["payload"]

    @settings(max_examples=25, deadline=None)
    @given(
        payload=st.recursive(
            st.one_of(
                _ARRAYS,
                st.integers(-(2**40), 2**40),
                st.floats(allow_nan=False),
                st.text(max_size=8),
                st.none(),
            ),
            lambda inner: st.one_of(
                st.lists(inner, max_size=3),
                st.dictionaries(st.text(max_size=4), inner, max_size=3),
                st.tuples(inner, inner),
            ),
            max_leaves=6,
        ),
    )
    def test_nested_object_roundtrip(self, payload):
        out, _, _ = _roundtrip(payload)
        _assert_identical(payload, out)

    def test_timing_split_present(self):
        _, sinfo, _ = _roundtrip(np.arange(1024.0))
        assert sinfo["serialize_seconds"] >= 0.0
        assert sinfo["transmit_seconds"] > 0.0
        assert sinfo["t_transmit"] >= sinfo["t_serialize"]

    def test_zero_copy_goes_out_of_band(self):
        arr = np.arange(4096.0)
        out, sinfo, rinfo = _roundtrip(("solve", 0, 2, arr))
        assert sinfo["oob_buffers"] >= 1
        assert sinfo["oob_bytes"] >= arr.nbytes
        assert rinfo["oob_bytes"] == sinfo["oob_bytes"]
        _assert_identical(arr, out[3])

    def test_pooled_receive_backs_arrays(self):
        pool = BufferPool(depth=4)
        arr = np.arange(512.0)
        out, _, _ = _roundtrip(
            ("done", 0, 0, arr, 0.0), transient=True, pool=pool, key=7
        )
        _assert_identical(arr, out[3])
        # a second frame of the same key lands in a *different* slot, so
        # the first piece stays intact
        out2, _, _ = _roundtrip(
            ("done", 1, 0, arr + 1.0, 0.0), transient=True, pool=pool, key=7
        )
        _assert_identical(arr, out[3])
        _assert_identical(arr + 1.0, out2[3])

    def test_batch_reply_pools_each_piece_under_a_tuple_key(self):
        """The fleets' ``done`` frame: one transient frame, one buffer
        per piece of the batch (a zero-size one included), received
        under the batch's tuple key -- pooled per ``(key, i)``."""
        pool = BufferPool(depth=4)
        batch = (2, 5, 7)
        pieces = [np.arange(96.0), np.arange(40.0).reshape(20, 2), np.empty(0)]
        frame = ("done", 3, list(batch), [0.1, 0.2, 0.0], pieces)
        out, sinfo, rinfo = _roundtrip(frame, transient=True, pool=pool, key=batch)
        assert out[:4] == frame[:4]
        assert sinfo["oob_buffers"] == 3
        assert rinfo["oob_bytes"] == sum(p.nbytes for p in pieces)
        for sent, got in zip(pieces, out[4]):
            _assert_identical(sent, got)
        assert set(pool._slots) == {(batch, 0), (batch, 1), (batch, 2)}
        # the next round of the same batch rotates every slot: the
        # previous round's pieces stay intact
        again, _, _ = _roundtrip(
            ("done", 3, list(batch), [0.1, 0.2, 0.0], [p + 1.0 for p in pieces]),
            transient=True, pool=pool, key=batch,
        )
        for sent, old, new in zip(pieces, out[4], again[4]):
            _assert_identical(sent, old)
            _assert_identical(sent + 1.0, new)
        # a single-block batch of one of the same blocks is another key
        _roundtrip(
            ("done", 3, [5], [0.0], [pieces[1]]), transient=True, pool=pool, key=(5,)
        )
        assert ((5,), 0) in pool._slots and len(pool._slots) == 4

    def test_non_transient_frames_skip_pool(self):
        pool = BufferPool(depth=2)
        arr = np.arange(64.0)
        _roundtrip(("attach", arr), transient=False, pool=pool, key="x")
        assert pool._slots == {}


# ---------------------------------------------------------------------------
# malformed frames
# ---------------------------------------------------------------------------


class TestMalformedFrames:
    def test_frame_error_is_connection_error(self):
        assert issubclass(FrameError, ConnectionError)

    def test_truncated_prefix(self):
        sock = _feed_raw(b"\x00\x01\x02")
        try:
            with pytest.raises(FrameError):
                recv_frame(sock)
        finally:
            sock.close()

    @settings(max_examples=30, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=200), data=st.data())
    def test_truncated_stream_rejected(self, cut, data):
        arr = np.arange(16.0)
        segments, _, _, _ = encode_frame(("done", 0, 0, arr, 0.1))
        wire = b"".join(bytes(s) for s in segments)
        cut = min(cut, len(wire) - 1)
        sock = _feed_raw(wire[:cut])
        try:
            with pytest.raises(FrameError):
                recv_frame(sock)
        finally:
            sock.close()

    def test_oversized_head_rejected(self):
        prefix = FRAME_PREFIX.pack(MAX_FRAME_HEAD_BYTES + 1, 0, 0)
        sock = _feed_raw(prefix)
        try:
            with pytest.raises(FrameError, match="head"):
                recv_frame(sock)
        finally:
            sock.close()

    def test_oversized_buffer_count_rejected(self):
        prefix = FRAME_PREFIX.pack(8, MAX_FRAME_BUFFERS + 1, 0)
        sock = _feed_raw(prefix)
        try:
            with pytest.raises(FrameError, match="buffers"):
                recv_frame(sock)
        finally:
            sock.close()

    def test_oversized_buffer_length_rejected(self):
        prefix = FRAME_PREFIX.pack(8, 1, 0) + struct.pack(
            "!Q", MAX_FRAME_BUFFER_BYTES + 1
        )
        sock = _feed_raw(prefix)
        try:
            with pytest.raises(FrameError, match="buffer"):
                recv_frame(sock)
        finally:
            sock.close()

    @settings(max_examples=30, deadline=None)
    @given(junk=st.binary(min_size=1, max_size=64))
    def test_garbage_head_rejected(self, junk):
        try:
            pickle.loads(junk)
            return  # astronomically unlikely: junk that *is* a pickle
        except Exception:
            pass
        frame = FRAME_PREFIX.pack(len(junk), 0, 0) + junk
        sock = _feed_raw(frame)
        try:
            with pytest.raises(FrameError, match="undecodable"):
                recv_frame(sock)
        finally:
            sock.close()

    def test_retired_in_band_flag_rejected(self):
        """The pickled protocol is gone, but its flag bit is still
        outside input: a frame carrying it is refused, not decoded."""
        head = pickle.dumps(("done", 0, 0, 0.1), protocol=5)
        frame = FRAME_PREFIX.pack(len(head), 0, FLAG_LEGACY) + head
        sock = _feed_raw(frame)
        try:
            with pytest.raises(FrameError, match="retired"):
                recv_frame(sock)
        finally:
            sock.close()

    def test_too_many_buffers_rejected_on_send(self):
        arrs = [np.zeros(1) for _ in range(MAX_FRAME_BUFFERS + 1)]
        with pytest.raises(FrameError):
            encode_frame(arrs)


# ---------------------------------------------------------------------------
# BufferPool
# ---------------------------------------------------------------------------


class TestBufferPool:
    def test_rotation_reuses_slots(self):
        pool = BufferPool(depth=2)
        b1 = pool.take("k", 64)
        b2 = pool.take("k", 64)
        b3 = pool.take("k", 64)
        assert b1 is not b2
        assert b3 is b1  # depth-2 rotation wrapped around

    def test_size_change_reallocates(self):
        pool = BufferPool(depth=2)
        b1 = pool.take("k", 64)
        pool.take("k", 64)
        b3 = pool.take("k", 128)
        assert b3 is not b1 and len(b3) == 128

    def test_keys_are_independent(self):
        pool = BufferPool(depth=2)
        assert pool.take("a", 8) is not pool.take("b", 8)

    def test_min_depth_enforced(self):
        with pytest.raises(ValueError):
            BufferPool(depth=1)

    def test_clear_drops_slots(self):
        pool = BufferPool()
        b1 = pool.take("k", 8)
        pool.clear()
        b2 = pool.take("k", 8)
        assert b2 is not b1


# ---------------------------------------------------------------------------
# executor-level contract
# ---------------------------------------------------------------------------


def _executor_problem(n=96, L=4, seed=5):
    from repro.core import make_weighting, uniform_bands
    from repro.matrices import diagonally_dominant, rhs_for_solution

    A = diagonally_dominant(n, dominance=1.5, bandwidth=4, seed=seed)
    b, _ = rhs_for_solution(A, seed=seed + 1)
    part = uniform_bands(n, L).to_general()
    return A, b, part, make_weighting("ownership", part)


class TestFleetWire:
    def test_bit_identical_vs_inline(self):
        from repro.core import multisplitting_iterate
        from repro.core.stopping import StoppingCriterion
        from repro.direct import get_solver
        from repro.runtime import SocketExecutor
        from repro.runtime.inline import InlineExecutor

        A, b, part, scheme = _executor_problem()
        stopping = StoppingCriterion(tolerance=1e-300, max_iterations=6)
        ref = multisplitting_iterate(
            A, b, part, scheme, get_solver("scipy"),
            stopping=stopping, executor=InlineExecutor(),
        )
        with SocketExecutor(workers=2) as ex:
            res = multisplitting_iterate(
                A, b, part, scheme, get_solver("scipy"),
                stopping=stopping, executor=ex,
            )
            wire = ex.wire_stats()
        assert res.history == ref.history
        np.testing.assert_array_equal(res.x, ref.x)
        assert wire["serialize_seconds"] > 0.0
        assert wire["transmit_seconds"] > 0.0
        assert wire["copies_avoided"] > 0

    @pytest.mark.parametrize("backend", ["processes", "sockets"])
    def test_spec_bytes_shared_across_respawn(self, backend):
        """Recovery re-sends a worker's solve spec from the pickle cache."""
        from repro.direct import get_solver
        from repro.runtime import FaultPolicy, ProcessExecutor, SocketExecutor

        A, b, part, _ = _executor_problem()
        ex = (
            ProcessExecutor(max_workers=2)
            if backend == "processes"
            else SocketExecutor(workers=2)
        )
        try:
            ex.attach(
                A, b, part.sets, get_solver("scipy"),
                fault_policy=FaultPolicy(heartbeat_interval=0.1, respawn=True),
            )
            assert ex.wire_stats()["spec_pickles_reused"] == 0
            assert ex.kill_worker(0)
            z = np.zeros(b.shape)
            ex.solve_round([z] * part.nprocs)  # triggers detect + respawn
            assert ex.wire_stats()["spec_pickles_reused"] >= 1
        finally:
            ex.close()


# ---------------------------------------------------------------------------
# absolute receive deadlines + the receive-pool depth
# ---------------------------------------------------------------------------


class TestReceiveDeadline:
    """recv_frame's deadline is an *absolute* monotonic bound."""

    def test_generous_deadline_receives_normally(self):
        import time

        obj = {"x": np.arange(32.0)}
        a, b = socket.socketpair()
        try:
            t = threading.Thread(target=lambda: send_frame(a, obj))
            t.start()
            out, _ = recv_frame(b, deadline=time.monotonic() + 30.0)
            t.join(timeout=30.0)
            _assert_identical(out, obj)
        finally:
            a.close()
            b.close()

    def test_expired_deadline_fails_fast(self):
        import time

        a, b = socket.socketpair()
        try:
            a.sendall(b"\x00\x01")  # data waiting changes nothing
            with pytest.raises(FrameError, match="deadline"):
                recv_frame(b, deadline=time.monotonic() - 1.0)
        finally:
            a.close()
            b.close()

    def test_trickling_sender_cannot_extend_the_bound(self):
        """The hole the deadline closes: a per-syscall timeout restarts
        whenever any byte arrives, so a peer dribbling one byte per
        interval could wedge the driver forever while looking alive.
        The absolute bound expires regardless of arrival rate."""
        import time

        segments, _, _, _ = encode_frame({"x": np.arange(512.0)})
        payload = b"".join(bytes(s) for s in segments)
        a, b = socket.socketpair()
        stop = threading.Event()

        def _trickle():
            for i in range(len(payload)):
                if stop.is_set():
                    return
                try:
                    a.sendall(payload[i : i + 1])
                except OSError:
                    return
                time.sleep(0.02)

        t = threading.Thread(target=_trickle, daemon=True)
        t.start()
        try:
            t0 = time.monotonic()
            with pytest.raises(FrameError, match="deadline"):
                recv_frame(b, deadline=t0 + 0.3)
            elapsed = time.monotonic() - t0
            # Bytes kept arriving every 20 ms; only the absolute bound
            # can have fired, and promptly.
            assert elapsed < 5.0
        finally:
            stop.set()
            a.close()
            b.close()
            t.join(timeout=10.0)


class TestBufferPoolDepth:
    """Every receive pool rotates through the one shared depth."""

    def test_default_depth_is_the_shared_constant(self):
        from repro.runtime.wire import DEFAULT_POOL_DEPTH

        pool = BufferPool()
        assert pool.depth == DEFAULT_POOL_DEPTH

    def test_round_pieces_survive_until_the_pool_wraps(self):
        """A barrier round's pieces stay intact for ``depth - 1`` further
        rounds of the same batch; the next one reuses their buffers."""
        from repro.direct import get_solver
        from repro.runtime import SocketExecutor
        from repro.runtime.wire import DEFAULT_POOL_DEPTH

        A, b, part, _ = _executor_problem()
        rng = np.random.default_rng(0)
        ex = SocketExecutor(workers=2)
        try:
            ex.attach(A, b, part.sets, get_solver("scipy"))
            first = ex.solve_round([rng.standard_normal(b.shape[0])] * part.nprocs)
            kept = [p.copy() for p in first]
            for _ in range(DEFAULT_POOL_DEPTH - 1):
                ex.solve_round([rng.standard_normal(b.shape[0])] * part.nprocs)
            for piece, want in zip(first, kept):
                np.testing.assert_array_equal(piece, want)
            wrapped = ex.solve_round([rng.standard_normal(b.shape[0])] * part.nprocs)
        finally:
            ex.close()
        assert all(np.shares_memory(p, q) for p, q in zip(first, wrapped))
