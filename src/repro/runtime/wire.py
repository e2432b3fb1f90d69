"""Zero-copy frame codec for the socket runtime (pickle protocol 5).

The seed wire format pickled every message into one in-band blob:
``len | pickle(obj)``.  For the hot path that means every vector's
bytes are copied several times per hop -- once into the pickle stream,
once into the length-prefixed send buffer, and on the receive side
through chunk accumulation and back out of the unpickler.  On a
many-block problem the per-round traffic is ``L`` halos (the rows of the
local copy each block's ``Dep`` reads) plus ``L`` pieces, batched into
one frame per worker each way, so those copies *are* the per-round
overhead once the band solves are cheap.

This module replaces that with out-of-band frames:

``head_len:u64 | nbuf:u32 | flags:u8 | nbuf * buf_len:u64 | head | bufs``

* the **head** is ``pickle.dumps(obj, protocol=5, buffer_callback=...)``
  -- object structure only; every contiguous ndarray inside ``obj``
  leaves the pickle stream as a :class:`pickle.PickleBuffer`;
* each out-of-band buffer is transmitted as a raw :class:`memoryview`
  segment via vectored ``sendmsg`` (no serialization copy, no
  concatenation copy) and received **straight into** a preallocated
  buffer with ``recv_into`` (no chunk accumulation, no unpickle copy)
  -- ``pickle.loads(head, buffers=...)`` then rebuilds the arrays
  *backed by* those buffers, bit-identical;
* receive buffers may come from a :class:`BufferPool`: a per-key
  rotation of preallocated ``bytearray`` slots, so steady-state rounds
  allocate nothing on the receive side either.

Framing errors -- truncated streams, oversized declared lengths,
undecodable heads, the retired in-band flag -- raise
:class:`FrameError`, a ``ConnectionError`` subclass, so the executors'
existing broken-stream fault paths treat a garbage frame exactly like a
dead peer.
"""

from __future__ import annotations

import pickle
import struct
import time

__all__ = [
    "BufferPool",
    "DEFAULT_POOL_DEPTH",
    "FrameError",
    "MAX_FRAME_BUFFERS",
    "MAX_FRAME_BUFFER_BYTES",
    "MAX_FRAME_HEAD_BYTES",
    "encode_frame",
    "recv_frame",
    "send_frame",
    "transmit_frame",
]

#: Receive-pool rotation depth: how many takes of one key before a
#: buffer is reused.  The barrier rounds fold and assemble a round's
#: pieces before the next round of the same batch is received, so any
#: depth >= 2 reuses a buffer only after its piece was last read.
DEFAULT_POOL_DEPTH = 4

#: ``head_len:u64 | nbuf:u32 | flags:u8`` -- the fixed frame prefix.
FRAME_PREFIX = struct.Struct("!QIB")
#: One ``u64`` per out-of-band buffer, directly after the prefix.
_BUF_LEN = struct.Struct("!Q")

#: Flag bit: receive-side buffers may be pooled/reused (hot-path vector
#: frames).  Control frames (attach specs, stats) leave it clear -- their
#: arrays stay referenced by the binding and must own their memory.
FLAG_TRANSIENT = 0x01
#: Flag bit of the retired seed protocol (one in-band pickle, copying
#: IO).  Never sent; a received frame carrying it is rejected.
FLAG_LEGACY = 0x02

#: Hard frame limits: a corrupt or hostile length field must fail fast
#: instead of driving a multi-gigabyte allocation.
MAX_FRAME_HEAD_BYTES = 1 << 31
MAX_FRAME_BUFFERS = 4096
MAX_FRAME_BUFFER_BYTES = 1 << 34

#: sendmsg is capped at IOV_MAX segments per call (1024 on Linux);
#: batch conservatively below it.
_IOV_BATCH = 512


class FrameError(ConnectionError):
    """A malformed or truncated wire frame.

    Subclasses ``ConnectionError`` on purpose: every executor already
    routes broken streams into its fault/recovery path, and a peer that
    sends garbage is exactly as lost as one that hung up.
    """


class BufferPool:
    """Per-key rotating pool of preallocated receive buffers.

    ``take(key, nbytes)`` returns a ``bytearray`` of exactly ``nbytes``,
    cycling through ``depth`` slots per key.  A buffer handed out for a
    key is therefore guaranteed untouched until ``depth`` further takes
    of the *same* key -- with per-worker pools keyed by the reply's
    batch of blocks and the drivers' one-solve-per-block-per-round
    discipline that means a round's pieces stay valid until ``depth``
    further rounds of their batch are received.  Callers that retain
    pieces longer must copy them.
    """

    def __init__(self, depth: int = DEFAULT_POOL_DEPTH):
        if depth < 2:
            raise ValueError("depth must be at least 2 (one in use, one filling)")
        self.depth = depth
        self._slots: dict[object, tuple[list, int]] = {}

    def take(self, key, nbytes: int) -> bytearray:
        """A buffer of ``nbytes`` for ``key`` (reused once warm)."""
        slots, idx = self._slots.get(key, (None, 0))
        if slots is None:
            slots = [None] * self.depth
        buf = slots[idx]
        if buf is None or len(buf) != nbytes:
            buf = bytearray(nbytes)
            slots[idx] = buf
        self._slots[key] = (slots, (idx + 1) % self.depth)
        return buf

    def clear(self) -> None:
        """Drop every pooled buffer (e.g. at re-attach)."""
        self._slots.clear()


# ---------------------------------------------------------------------------
# encode / transmit
# ---------------------------------------------------------------------------


def encode_frame(obj, *, transient: bool = False):
    """Serialize ``obj`` into wire segments.

    Returns ``(segments, payload, oob_bytes, nbuf)``: a list of
    bytes-like segments to transmit in order (the big ones are raw
    memoryviews of the caller's arrays -- nothing is copied), the total
    payload byte count (head + buffers, the wire-accounting number), the
    out-of-band byte count (bytes that *avoided* a serialization copy),
    and the buffer count.
    """
    pbufs: list[pickle.PickleBuffer] = []
    head = pickle.dumps(obj, protocol=5, buffer_callback=pbufs.append)
    raws = [pb.raw() for pb in pbufs]
    if len(raws) > MAX_FRAME_BUFFERS:
        raise FrameError(f"frame has {len(raws)} buffers (max {MAX_FRAME_BUFFERS})")
    lens = b"".join(_BUF_LEN.pack(r.nbytes) for r in raws)
    flags = FLAG_TRANSIENT if transient else 0
    prefix = FRAME_PREFIX.pack(len(head), len(raws), flags) + lens
    oob = sum(r.nbytes for r in raws)
    return [prefix, head, *raws], len(head) + oob, oob, len(raws)


def transmit_frame(sock, segments) -> None:
    """Write the segments with vectored I/O (``sendmsg``), in order.

    Partial sends are resumed mid-segment; sockets without ``sendmsg``
    fall back to per-segment ``sendall``.
    """
    views = [memoryview(seg).cast("B") for seg in segments if len(seg)]
    sendmsg = getattr(sock, "sendmsg", None)
    if sendmsg is None:  # pragma: no cover - non-POSIX fallback
        for mv in views:
            sock.sendall(mv)
        return
    while views:
        sent = sendmsg(views[:_IOV_BATCH])
        while sent:
            first = views[0]
            if sent >= first.nbytes:
                sent -= first.nbytes
                views.pop(0)
            else:
                views[0] = first[sent:]
                sent = 0


def send_frame(sock, obj, *, transient: bool = False) -> dict:
    """Encode and transmit one frame; returns timing/accounting info.

    The info dict carries ``payload`` (head + buffer bytes),
    ``oob_bytes``/``oob_buffers`` (bytes that skipped the serialization
    copy), and the split timings the observability layer wants:
    ``t_serialize``/``serialize_seconds`` (building the pickle) and
    ``t_transmit``/``transmit_seconds`` (pushing bytes into the socket),
    both on the ``time.perf_counter`` clock tracers use.
    """
    t0 = time.perf_counter()
    segments, payload, oob, nbuf = encode_frame(obj, transient=transient)
    t1 = time.perf_counter()
    transmit_frame(sock, segments)
    t2 = time.perf_counter()
    return {
        "payload": payload,
        "oob_bytes": oob,
        "oob_buffers": nbuf,
        "t_serialize": t0,
        "serialize_seconds": t1 - t0,
        "t_transmit": t1,
        "transmit_seconds": t2 - t1,
    }


# ---------------------------------------------------------------------------
# receive
# ---------------------------------------------------------------------------


def _arm_deadline(sock, deadline: float | None) -> None:
    """Bound the next receive syscall by an *absolute* monotonic deadline.

    A per-syscall ``settimeout`` restarts whenever any byte arrives, so
    a peer trickling one chunk per interval can extend a "bounded" read
    forever.  Re-arming the socket with the *remaining* time before
    every syscall makes the bound absolute: when the deadline passes,
    the read fails as :class:`FrameError` no matter how chatty the
    stream has been.
    """
    if deadline is None:
        return
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise FrameError("reply deadline exceeded mid-frame")
    sock.settimeout(remaining)


def _recv_into_exact(sock, view: memoryview, deadline: float | None = None) -> None:
    """Fill ``view`` completely from the socket (zero-copy receive)."""
    off = 0
    total = view.nbytes
    while off < total:
        _arm_deadline(sock, deadline)
        try:
            n = sock.recv_into(view[off:])
        except TimeoutError as exc:
            if deadline is not None:
                # The armed remainder expired inside the syscall: same
                # verdict as catching it before (FrameError routes into
                # the caller's worker-gone recovery; TimeoutError not).
                raise FrameError("reply deadline exceeded mid-frame") from exc
            raise
        if n == 0:
            raise FrameError("socket closed mid-frame")
        off += n


def _read_exact(sock, nbytes: int, deadline: float | None = None) -> bytearray:
    buf = bytearray(nbytes)
    if nbytes:
        _recv_into_exact(sock, memoryview(buf), deadline)
    return buf


def recv_frame(
    sock,
    *,
    pool: BufferPool | None = None,
    key=None,
    deadline: float | None = None,
):
    """Read one frame; returns ``(obj, info)``.

    ``info`` carries ``payload`` (head + buffer bytes received, the
    twin of :func:`send_frame`'s count) and ``oob_bytes`` (bytes that
    arrived straight into their final buffers).  ``deadline`` (an
    absolute ``time.monotonic`` instant) bounds the *whole* frame read:
    every receive syscall is re-armed with the remaining time, so a
    trickling peer cannot stretch one reply past it (the batch reply
    deadline the executors' fault policies arm).  Out-of-band
    buffers are
    taken from ``pool`` under ``(key, i)`` when the frame is flagged
    transient and a pool is given; otherwise each gets a fresh
    ``bytearray`` (still received in place -- pooling only removes the
    allocation, not a copy).  Arrays rebuilt by ``pickle.loads(head,
    buffers=...)`` are *backed by* those buffers: a pooled piece stays
    valid for ``pool.depth`` further frames of the same key.
    """
    prefix = _read_exact(sock, FRAME_PREFIX.size, deadline)
    head_len, nbuf, flags = FRAME_PREFIX.unpack(bytes(prefix))
    if head_len > MAX_FRAME_HEAD_BYTES:
        raise FrameError(f"frame head of {head_len} bytes exceeds the limit")
    if nbuf > MAX_FRAME_BUFFERS:
        raise FrameError(f"frame declares {nbuf} buffers (max {MAX_FRAME_BUFFERS})")
    lens: list[int] = []
    if nbuf:
        table = _read_exact(sock, _BUF_LEN.size * nbuf, deadline)
        for i in range(nbuf):
            (n,) = _BUF_LEN.unpack_from(table, i * _BUF_LEN.size)
            if n > MAX_FRAME_BUFFER_BYTES:
                raise FrameError(f"frame buffer of {n} bytes exceeds the limit")
            lens.append(n)
    if flags & FLAG_LEGACY:
        raise FrameError("frame uses the retired in-band protocol")
    head = _read_exact(sock, head_len, deadline)
    bufs: list[bytearray] = []
    for i, n in enumerate(lens):
        if pool is not None and flags & FLAG_TRANSIENT:
            buf = pool.take((key, i), n)
        else:
            buf = bytearray(n)
        if n:
            _recv_into_exact(sock, memoryview(buf), deadline)
        bufs.append(buf)
    try:
        obj = pickle.loads(head, buffers=bufs)
    except FrameError:
        raise
    except Exception as exc:
        raise FrameError(f"undecodable frame head: {exc!r}") from exc
    oob = sum(lens)
    return obj, {"payload": head_len + oob, "oob_bytes": oob}
