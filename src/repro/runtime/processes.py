"""Worker-process transport: no GIL, matrices shipped once, vectors via shm.

The fleet protocol itself (verbs, attach transaction, recovery, elastic
membership, accounting) lives in :mod:`repro.runtime.fleet`; this module
is what is particular to same-host worker processes:

* **how a worker is reached** -- two *private* one-way pipes per
  worker: tickets in, replies out.  Not a shared reply queue: a shared
  queue's write-lock is a cross-process semaphore, and a worker
  SIGKILLed while holding it would deadlock every survivor's replies --
  precisely the fault this backend must recover from.  And not an ``mp.Queue`` for
  the tickets either: its feeder thread adds a hand-off and a wake-up
  to every round.  Private pipes have no shared state, and the hot-path
  frames are tens of bytes, far below ``PIPE_BUF``, so their writes are
  atomic and cannot block.  A pipe write, unlike a queue ``put``, can
  *fail* (the reader died) or *stall* (the reader stopped reading):
  a refused ticket marks the worker lost for the solve loop's sweep,
  and the only frames big enough to stall -- binding specs -- are
  written under the reply-wait bound (:meth:`ProcessExecutor._post`).
  A worker that has just answered a batch polls its ticket pipe for a
  few milliseconds before it blocks on it
  (:func:`~repro.runtime.fleet.linger`), so that between two thin
  rounds its CPU does not halt and the next ticket does not pay -- and
  a run's timing does not hang on -- a cross-CPU wake-up;
* **how vectors move** -- through two
  :class:`~repro.runtime.shm.SharedVectorPlane` segments per binding:
  the driver writes each block's halo ``z[halo_l]`` (the rows of the
  local copy its ``Dep`` reads) into its ``z`` slot and posts **one**
  ``("solve", epoch, blocks)`` ticket per worker; the worker solves
  its batch straight off the plane views, writes every ``XSub_l`` into
  its piece slot and acknowledges the batch with **one**
  ``("done", epoch, blocks, seconds)``.  Tickets order the slot
  accesses, so no locks are needed and nothing numeric is ever pickled
  on the hot path;
* **the data-plane primitives** -- sending a batch writes its halos
  into the ``z`` plane and posts the ticket; reading replies waits on
  all reply pipes at once (``multiprocessing.connection.wait``) and
  copies each answered batch's pieces off the piece plane.  The loop
  around them -- deadlines, liveness sweep, recovery, re-dispatch -- is
  the shared one in :class:`~repro.runtime.fleet.FleetExecutor`.

Trade-offs vs :class:`~repro.runtime.ThreadExecutor`: true core-level
parallelism independent of any GIL-releasing discipline in the kernels,
at the price of one pipe round-trip per worker plus a halo and a piece
copy per block per iteration, and of per-worker (not shared) factor
caches.  Pick processes when block solves are chunky; threads when they
are small or when a shared cache across blocks matters.
"""

from __future__ import annotations

import multiprocessing.connection as mp_connection
import os
import threading
import time

import numpy as np

from repro.direct.cache import FactorizationCache
from repro.runtime.fleet import FleetExecutor, WorkerGone, linger, serve
from repro.runtime.shm import SharedVectorPlane

__all__ = ["ProcessExecutor"]


class _PipeChannel:
    """Worker end of the transport: ticket pipe in, reply pipe + shm planes out."""

    def __init__(self, tickets, reply_conn):
        self._tickets = tickets
        self._conn = reply_conn
        self._z_plane: SharedVectorPlane | None = None
        self._piece_plane: SharedVectorPlane | None = None
        #: A batch was just answered: the next ticket is probably near.
        self._hot = False

    def recv(self):
        if self._hot:
            self._hot = False
            linger(self._tickets.fileno())
        return self._tickets.recv()

    def send(self, reply) -> None:
        self._conn.send(reply)

    def open(self, meta) -> None:
        if self._z_plane is None:
            self._z_plane = SharedVectorPlane(
                meta["z_shapes"], name=meta["z_name"], create=False
            )
            self._piece_plane = SharedVectorPlane(
                meta["piece_shapes"], name=meta["piece_name"], create=False
            )

    def release(self) -> None:
        if self._z_plane is not None:
            self._z_plane.close()
            self._piece_plane.close()
            self._z_plane = self._piece_plane = None

    def tasks_of(self, frame) -> list[np.ndarray]:
        # Views, not copies: the ticket ordering guarantees the driver
        # wrote the slots and will not rewrite them until the reply lands.
        return [self._z_plane.slot(l) for l in frame[2]]

    def send_done(self, epoch, blocks, pieces, seconds) -> None:
        for l, piece in zip(blocks, pieces):
            self._piece_plane.write(l, piece)
        self._conn.send(("done", epoch, blocks, seconds))
        self._hot = True


def _worker_main(tickets, reply_conn) -> None:
    """Entry point of one worker process (must be import-resolvable)."""
    serve(_PipeChannel(tickets, reply_conn), FactorizationCache(capacity=256))


class ProcessExecutor(FleetExecutor):
    """Run block solves in worker processes with shared-memory vectors.

    Parameters
    ----------
    max_workers:
        Worker-process count cap; defaults to ``os.cpu_count()``.  The
        pool grows lazily up to ``min(nblocks, max_workers)`` and
        persists across ``attach``/``detach`` cycles.  An explicit
        :class:`repro.schedule.Placement` overrides the cap: the plan
        names its worker slots, so attach binds exactly
        ``placement.nworkers`` processes (size the plan, not the cap,
        when pinning).
    start_method:
        ``multiprocessing`` start method; by default ``"fork"`` when the
        parent is still single-threaded at first spawn (cheapest), else
        ``"forkserver"``/``"spawn"`` (fork-with-threads can deadlock the
        child on an inherited lock).
    """

    name = "processes"

    def __init__(self, *, max_workers: int | None = None, start_method: str | None = None):
        super().__init__(start_method)
        self.max_workers = max_workers
        #: Per rank, the driver's ends of the worker's two pipes: the
        #: ticket pipe's write end and the reply pipe's read end.
        self._tickets: list = []
        self._conns: list = []
        self._z_plane: SharedVectorPlane | None = None
        self._piece_plane: SharedVectorPlane | None = None

    # -- transport primitives --------------------------------------------
    def _fleet_cap(self) -> int:
        return self.max_workers or os.cpu_count() or 1

    def _spawn(self, workers) -> list[int]:
        if not isinstance(workers, int):
            raise TypeError(
                "ProcessExecutor.grow takes a worker count; "
                "host lists are a SocketExecutor concept"
            )
        ctx = self._context()
        first = len(self._procs)
        for rank in range(first, first + workers):
            ticket_recv, ticket_send = ctx.Pipe(duplex=False)
            reply_recv, reply_send = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_worker_main,
                args=(ticket_recv, reply_send),
                daemon=True,
                name=f"repro-runtime-{rank}",
            )
            proc.start()
            # The parent keeps only its own ends; closing the worker's
            # here makes a dead worker's pipes report EOF / EPIPE, not
            # block.
            ticket_recv.close()
            reply_send.close()
            self._tickets.append(ticket_send)
            self._conns.append(reply_recv)
            self._procs.append(proc)
        return list(range(first, len(self._procs)))

    def _is_alive(self, w: int) -> bool:
        return self._procs[w].is_alive()

    def _ticket(self, w: int, frame: tuple) -> bool:
        """Write one tiny frame to worker ``w``; False on a broken pipe.

        A pipe whose reader died refuses the write where a queue would
        have buffered it; the caller decides what a refusal means.
        """
        try:
            self._tickets[w].send(frame)
        except OSError:
            return False
        return True

    def _post(self, w: int, frame: tuple) -> int:
        if len(frame) <= 3:  # a control verb: tens of bytes
            if not self._ticket(w, frame):
                raise WorkerGone(w, "broken pipe")
            return 0
        # A binding frame can be megabytes, and a pipe write blocks for
        # as long as the worker does not read (SIGSTOP, a wedged
        # kernel).  Write it from a helper, so that the wait is bounded
        # like every reply wait and a stuck worker fails the attach
        # transaction instead of wedging the driver.
        failed: list[str] = []

        def write() -> None:
            try:
                self._tickets[w].send(frame)
            except OSError as exc:
                # The text, not the exception: its traceback would hold
                # this closure, and the frame's buffers, in a cycle.
                failed.append(str(exc))

        helper = threading.Thread(
            target=write, name=f"repro-runtime-post-{w}", daemon=True
        )
        helper.start()
        helper.join(self._reply_wait_seconds())
        if helper.is_alive():
            # Killing the reader breaks the pipe, which ends the write.
            self._procs[w].kill()
            helper.join(10.0)
            raise WorkerGone(w, "stopped reading its pipe")
        if failed:
            raise WorkerGone(w, failed[0])
        return len(frame[3])

    def _reap(self, w: int) -> None:
        proc = self._procs[w]
        if proc.is_alive():  # a hung (deadline-breaching) worker
            proc.kill()
            proc.join(timeout=10.0)
        # Stale tickets die with the pipe.
        self._tickets[w].close()
        self._conns[w].close()

    def _retire(self, w: int) -> None:
        self._ticket(w, ("exit",))
        self._procs[w].join(timeout=10.0)
        self._reap(w)

    def _meta(self) -> dict:
        z, piece = self._z_plane, self._piece_plane
        return {
            "z_name": z.name,
            "z_shapes": z.shapes,
            "piece_name": piece.name,
            "piece_shapes": piece.shapes,
        }

    def _open_binding(self, b_shape: tuple, sets: list) -> None:
        tail = tuple(b_shape[1:])
        self._z_plane = SharedVectorPlane([(h.size,) + tail for h in self._halo])
        self._piece_plane = SharedVectorPlane([(rows.size,) + tail for rows in sets])

    def _close_binding(self) -> None:
        for plane in (self._z_plane, self._piece_plane):
            if plane is not None:
                plane.close()
                plane.unlink()
        self._z_plane = self._piece_plane = None

    def _send_solve(self, w: int, tasks) -> bool:
        """Publish the batch's halos in the ``z`` plane, then its ticket."""
        t0 = time.perf_counter()
        sent = 0
        for l, z in tasks:
            halo = z[self._halo[l]]
            self._z_plane.slot(l)[...] = halo
            sent += halo.nbytes
        self._transmit_seconds += time.perf_counter() - t0
        self._vector_bytes_sent += sent
        # The worker consumes these bytes as a plane view, not a copy.
        self._copies_avoided += sent
        return self._ticket(w, ("solve", self._epoch, [l for l, _ in tasks]))

    def _ready(self, workers, timeout: float):
        # Tickets order the slot accesses: a "done" means its worker
        # wrote the batch's piece slots and will not touch them again
        # before its next ticket, so they are copied off here.
        conns = {self._conns[w]: w for w in workers}
        frames: list[tuple[int, tuple]] = []
        broken: list[int] = []
        for conn in mp_connection.wait(list(conns), timeout=timeout):
            w = conns[conn]
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                broken.append(w)
                continue
            if msg[1] != self._epoch:
                continue
            if msg[0] == "done":
                pieces = [self._piece_plane.read(l) for l in msg[2]]
                self._vector_bytes_received += sum(p.nbytes for p in pieces)
                msg += (pieces,)
            frames.append((w, msg))
        return frames, broken

    # -- fault injection -------------------------------------------------
    def kill_worker(self, rank: int) -> bool:
        """Hard-kill worker ``rank`` (SIGKILL).  The chaos hook.

        Returns True when a live worker was killed.  Recovery is *not*
        triggered here -- the next :meth:`solve_blocks` sweep finds the
        corpse, exactly as a real mid-run crash would surface.
        """
        if rank not in self._live or not self._is_alive(rank):
            return False
        self._procs[rank].kill()
        self._procs[rank].join(timeout=10.0)
        return True

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Tear down the worker pool: idempotent, and safe after a crash.

        A worker that died mid-binding makes the polite shutdown path
        impossible (its detach reply never comes and a blocking join
        would hang), so everything here is best-effort and time-bounded:
        detach failures are swallowed, exit tickets are sent without
        waiting, and stragglers are terminated then killed.  ``close``
        never raises and may be called any number of times.
        """
        try:
            self.detach()
        except (RuntimeError, OSError):
            # A hung worker cannot acknowledge the detach (timeouts and
            # worker error frames surface as RuntimeError, broken pipes
            # as OSError); the planes were already reclaimed by detach's
            # finally clause.  Anything else is a programming error and
            # propagates instead of being silently classified as a
            # teardown casualty.
            pass
        for w in self.alive_workers():
            self._ticket(w, ("exit",))
        self._join_all()
        for w in self._live:
            self._reap(w)
        self._tickets = []
        self._conns = []
        self._forget_fleet()

