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
  a failed ticket write is left to the liveness sweep that follows it,
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
* **the data plane** -- one poll loop over all reply pipes doubling as
  the heartbeat: every ``heartbeat_interval`` it checks worker
  liveness, and the policy's ``deadline`` bounds how long any one
  block may go unanswered *per worker* -- a worker owing ``m`` blocks
  is overdue ``m x deadline`` after its last proof of life (a hung
  worker is killed and treated like a crashed one).  Lost batches are
  re-dispatched after the shared recovery re-homes their blocks;
  iterates are unaffected because a block solve is a pure function of
  ``(block, z)``.

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
from typing import Sequence

import numpy as np

from repro.direct.cache import FactorizationCache
from repro.runtime.fleet import (
    _REPLY_TIMEOUT,
    FleetExecutor,
    WorkerGone,
    linger,
    serve,
)
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
        # "done" replies read while gathering another kind (a survivor
        # keeps answering its solves while it adopts); the solve loop
        # consumes them first.
        self._early: list[tuple[int, tuple]] = []

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
        have buffered it.  On the solve path that is not an error yet:
        the liveness sweep that follows every dispatch finds the corpse
        and owns the diagnosis (same recovery, same counters).
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
        self._early = []
        tail = tuple(b_shape[1:])
        self._z_plane = SharedVectorPlane([(h.size,) + tail for h in self._halo])
        self._piece_plane = SharedVectorPlane([(rows.size,) + tail for rows in sets])

    def _close_binding(self) -> None:
        for plane in (self._z_plane, self._piece_plane):
            if plane is not None:
                plane.close()
                plane.unlink()
        self._z_plane = self._piece_plane = None

    def _heartbeat(self) -> float:
        return self._policy.heartbeat_interval if self._policy is not None else 1.0

    def _reply_wait_seconds(self) -> float:
        """Hard bound on one reply wait, governed by the armed policy.

        The module default ``_REPLY_TIMEOUT`` is a backstop for unarmed
        bindings.  When a :class:`FaultPolicy` with its own ``deadline``
        is armed, that deadline governs: a *generous* policy (deadline
        beyond the default) extends the hard bound so the round is never
        cut short by the hardcoded constant, while a *tight* deadline is
        enforced by the solve loop's per-block breach check (which reaps
        the hung worker long before either bound fires).
        """
        policy = self._policy
        if policy is not None and policy.deadline is not None:
            return max(_REPLY_TIMEOUT, policy.deadline)
        return _REPLY_TIMEOUT

    def _replies(self, kind: str, workers, timeout: float) -> list[tuple[int, tuple]]:
        """Every ready current-epoch ``kind`` reply from ``workers``.

        The one reader of the reply pipes: blocks up to ``timeout`` for
        the *first* reply, takes one frame off every pipe that is ready
        (a second frame on the same pipe makes the next call return at
        once), drops stragglers from older epochs, raises on error
        frames and on replies of the wrong kind (:meth:`_current`).  An
        empty return is the heartbeat signal (nobody had anything to
        say).  A pipe at EOF (its worker died) is skipped -- the
        caller's liveness check owns that diagnosis.
        """
        out: list[tuple[int, tuple]] = []
        if kind == "done" and self._early:
            early, self._early = self._early, []
            out = [(w, msg) for w, msg in early if self._current(w, msg, kind)]
            timeout = 0.0
        conns = {self._conns[w]: w for w in workers}
        for conn in mp_connection.wait(list(conns), timeout=timeout):
            w = conns[conn]
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                continue
            if msg[0] == "done" and kind != "done":
                self._early.append((w, msg))
            elif self._current(w, msg, kind):
                out.append((w, msg))
        return out

    def _gather(self, kind: str, workers) -> tuple[dict[int, tuple], list[int]]:
        replies: dict[int, tuple] = {}
        pending = set(workers)
        deadline = time.monotonic() + self._reply_wait_seconds()
        while pending:
            batch = self._replies(kind, pending, self._heartbeat())
            for w, msg in batch:
                replies[w] = msg
                pending.discard(w)
            if not batch:
                # Nothing to read: a silent worker that is dead -- or,
                # past the hard bound, merely hung -- will not answer.
                if time.monotonic() > deadline:
                    break
                pending = {w for w in pending if self._is_alive(w)}
        return replies, sorted(set(workers) - set(replies))

    # -- fault injection -------------------------------------------------
    def kill_worker(self, rank: int) -> bool:
        """Hard-kill worker ``rank`` (SIGKILL).  The chaos hook.

        Returns True when a live worker was killed.  Recovery is *not*
        triggered here -- the next :meth:`solve_blocks` heartbeat finds
        the corpse, exactly as a real mid-run crash would surface.
        """
        if rank not in self._live or not self._is_alive(rank):
            return False
        self._procs[rank].kill()
        self._procs[rank].join(timeout=10.0)
        return True

    # -- solving ---------------------------------------------------------
    def _write_z(self, tasks) -> int:
        """Publish the halo of each task's local copy; returns the bytes."""
        t0 = time.perf_counter()
        sent = 0
        for l, z in tasks:
            halo = self._local_copy(z)[self._halo[l]]
            self._z_plane.slot(l)[...] = halo
            sent += halo.nbytes
        self._transmit_seconds += time.perf_counter() - t0
        self._vector_bytes_sent += sent
        # The worker consumes these bytes as a plane view, not a copy.
        self._copies_avoided += sent
        return sent

    def _dispatch(self, blocks) -> dict[int, list[int]]:
        """Post one solve ticket per owning worker; returns worker -> batch."""
        batches: dict[int, list[int]] = {}
        for l in blocks:
            batches.setdefault(self._owner[l], []).append(l)
        for w, batch in batches.items():
            if self._ticket(w, ("solve", self._epoch, batch)):
                self._solve_frames_sent += 1
        return batches

    def solve_blocks(
        self, tasks: Sequence[tuple[int, np.ndarray]]
    ) -> list[np.ndarray]:
        self._require_attached()
        blocks = [l for l, _ in tasks]
        if len(set(blocks)) != len(blocks):
            raise ValueError("duplicate block in one solve_blocks call")
        tracer = self._tracer
        sent_bytes = self._write_z(tasks)
        if tracer is not None:
            tracer.event(
                "wire.send", cat="wire", lane="driver",
                bytes=int(sent_bytes), blocks=len(tasks),
            )
        #: worker -> the blocks it still owes, and its last proof of life
        #: (the dispatch, or its latest reply).
        owed = self._dispatch(blocks)
        t_dispatch = time.monotonic()
        since = dict.fromkeys(owed, t_dispatch)
        remaining = set(blocks)
        policy = self._policy
        hb = self._heartbeat()
        hard_deadline = t_dispatch + self._reply_wait_seconds()
        t_wait = tracer.now() if tracer is not None else 0.0
        while remaining:
            for w, (_, _, batch, seconds) in self._replies("done", self._live, hb):
                self._solve_frames_received += 1
                for l, dt in zip(batch, seconds):
                    if l in remaining:  # a requeued block may answer twice
                        remaining.discard(l)
                        self._block_seconds[l] += dt
                # A reply is proof of life for ITS worker only: it
                # restarts the clock of that worker's other batches (a
                # deep queue on a live worker is not a hang), but never
                # a peer's.
                if w in owed:
                    owed[w] = [l for l in owed[w] if l in remaining]
                    since[w] = time.monotonic()
            if not remaining:
                break
            # Corpse/deadline sweep runs every iteration, replies or not:
            # each worker keeps the clock of its dispatch (or its last
            # reply), so one chatty worker's steady replies cannot keep
            # resetting a shared round deadline and mask a hung peer
            # (the interleaving explorer's requeue-vs-reply model is the
            # spec for what recovery may do with the late reply).  A
            # reply proves life once per batch, so the allowance is the
            # policy's per-block deadline times the blocks still owed.
            now = time.monotonic()
            dead = [w for w in self._live if not self._is_alive(w)]
            if policy is None and dead:
                raise RuntimeError(f"runtime workers died: {dead}")
            if policy is not None and not dead and policy.deadline is not None:
                dead = sorted(
                    w for w, batch in owed.items()
                    if batch and now - since[w] > policy.deadline * len(batch)
                )
            if not dead:
                if now > hard_deadline:
                    raise RuntimeError(
                        f"timed out waiting for 'done' replies "
                        f"({len(blocks) - len(remaining)}/{len(blocks)} received)"
                    )
                continue
            self._recover(dead)
            # Whatever the dead workers still owed goes to the blocks'
            # new owners, whole (the z slots still hold the round's
            # halos, so the retried solves are bit-identical).  Fresh
            # clocks for every worker: recovery itself (respawn + adopt
            # acks) takes wall time no worker should be billed for.
            orphans = sorted(l for w in dead for l in owed.pop(w, ()))
            for w, batch in self._dispatch(orphans).items():
                owed[w] = owed.get(w, []) + batch
            now = time.monotonic()
            since = dict.fromkeys(owed, now)
            hard_deadline = now + self._reply_wait_seconds()
        if tracer is not None:
            tracer.add(
                "barrier.wait", "wait", t_wait, tracer.now() - t_wait,
                lane="driver", tasks=len(blocks),
            )
        pieces = [self._piece_plane.read(l) for l in blocks]
        recv_bytes = sum(p.nbytes for p in pieces)
        self._vector_bytes_received += recv_bytes
        if tracer is not None:
            tracer.event(
                "wire.recv", cat="wire", lane="driver",
                bytes=int(recv_bytes), blocks=len(blocks),
            )
        return pieces

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
        self._early = []
        self._forget_fleet()

