"""Worker-process transport: no GIL, matrices shipped once, vectors via shm.

The fleet protocol itself (verbs, attach transaction, recovery, elastic
membership, accounting) lives in :mod:`repro.runtime.fleet`; this module
is what is particular to same-host worker processes:

* **how a worker is reached** -- a task queue in, a *private* reply pipe
  out.  Not a shared reply queue: a shared queue's write-lock is a
  cross-process semaphore, and a worker SIGKILLed while holding it would
  deadlock every survivor's replies -- precisely the fault this backend
  must recover from.  Private pipes have no shared state, and the
  hot-path reply frames are far below ``PIPE_BUF`` so their writes are
  atomic;
* **how vectors move** -- through two
  :class:`~repro.runtime.shm.SharedVectorPlane` segments per binding:
  the driver writes block ``l``'s local copy into its ``z`` slot, posts
  a tiny ``("solve", epoch, l)`` ticket, and the worker solves straight
  off the plane view and writes ``XSub_l`` into the piece slot before
  acknowledging.  Tickets order the slot accesses, so no locks are
  needed and nothing numeric is ever pickled on the hot path;
* **the data plane** -- one poll loop over all reply pipes doubling as
  the heartbeat: every ``heartbeat_interval`` it checks worker
  liveness, and the policy's ``deadline`` bounds how long any one
  block may go unanswered *per worker* (a hung worker is killed and
  treated like a crashed one).  Lost solves are re-dispatched after
  the shared recovery re-homes their blocks; iterates are unaffected
  because a block solve is a pure function of ``(block, z)``.

Trade-offs vs :class:`~repro.runtime.ThreadExecutor`: true core-level
parallelism independent of any GIL-releasing discipline in the kernels,
at the price of one queue round-trip (~0.1 ms) plus two vector copies per
block per iteration, and of per-worker (not shared) factor caches.  Pick
processes when block solves are chunky; threads when they are small or
when a shared cache across blocks matters.
"""

from __future__ import annotations

import multiprocessing.connection as mp_connection
import os
import time
from collections import deque
from typing import Sequence

import numpy as np

from repro.direct.cache import FactorizationCache
from repro.runtime.api import SolveStream
from repro.runtime.fleet import _REPLY_TIMEOUT, FleetExecutor, serve
from repro.runtime.shm import SharedVectorPlane

__all__ = ["ProcessExecutor"]


class _PipeChannel:
    """Worker end of the transport: task queue in, pipe + shm planes out."""

    def __init__(self, task_q, reply_conn):
        self._task_q = task_q
        self._conn = reply_conn
        self._z_plane: SharedVectorPlane | None = None
        self._piece_plane: SharedVectorPlane | None = None

    def recv(self):
        return self._task_q.get()

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

    def z_of(self, frame) -> np.ndarray:
        # A view, not a copy: the ticket ordering guarantees the driver
        # wrote the slot and will not rewrite it until the reply lands.
        return self._z_plane.slot(frame[2])

    def send_piece(self, epoch, l, piece, seconds) -> None:
        self._piece_plane.write(l, piece)
        self._conn.send(("done", epoch, l, seconds))


def _worker_main(task_q, reply_conn) -> None:
    """Entry point of one worker process (must be import-resolvable)."""
    serve(_PipeChannel(task_q, reply_conn), FactorizationCache(capacity=256))


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
        self._task_qs: list = []
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
            task_q = ctx.Queue()
            recv_conn, send_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_worker_main,
                args=(task_q, send_conn),
                daemon=True,
                name=f"repro-runtime-{rank}",
            )
            proc.start()
            # The parent keeps only the read end; closing the write end
            # here makes a dead worker's pipe report EOF, not block.
            send_conn.close()
            self._task_qs.append(task_q)
            self._conns.append(recv_conn)
            self._procs.append(proc)
        return list(range(first, len(self._procs)))

    def _is_alive(self, w: int) -> bool:
        return self._procs[w].is_alive()

    def _post(self, w: int, frame: tuple) -> int:
        self._task_qs[w].put(frame)
        return len(frame[3]) if len(frame) > 3 else 0

    def _reap(self, w: int) -> None:
        proc = self._procs[w]
        if proc.is_alive():  # a hung (deadline-breaching) worker
            proc.kill()
            proc.join(timeout=10.0)
        # Stale tickets die with the worker: abandon its queue without
        # joining the feeder thread (a queue whose reader died may hold
        # buffered tickets; joining would block).
        self._task_qs[w].cancel_join_thread()
        self._task_qs[w].close()
        self._conns[w].close()

    def _retire(self, w: int) -> None:
        self._task_qs[w].put(("exit",))
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
        self._z_plane = SharedVectorPlane([b_shape] * len(sets))
        self._piece_plane = SharedVectorPlane(
            [(rows.size,) + tuple(b_shape[1:]) for rows in sets]
        )

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
        the *first* reply, drains whatever is ready, drops stragglers
        from older epochs, raises on error frames and on replies of the
        wrong kind (:meth:`_current`).  An empty return is the heartbeat
        signal (nobody had anything to say).  A pipe at EOF (its worker
        died) is skipped -- the caller's liveness check owns that
        diagnosis.
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
                while True:
                    msg = conn.recv()
                    if msg[0] == "done" and kind != "done":
                        self._early.append((w, msg))
                    elif self._current(w, msg, kind):
                        out.append((w, msg))
                    if not conn.poll():
                        break
            except (EOFError, OSError):
                continue
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
    def _write_z(self, l: int, z) -> int:
        """Publish block ``l``'s local copy on the plane; returns its bytes."""
        arr = np.asarray(z, dtype=float)
        t0 = time.perf_counter()
        self._z_plane.write(l, arr)
        self._transmit_seconds += time.perf_counter() - t0
        self._vector_bytes_sent += arr.nbytes
        # The worker consumes these bytes as a plane view, not a copy.
        self._copies_avoided += arr.nbytes
        return arr.nbytes

    def solve_blocks(
        self, tasks: Sequence[tuple[int, np.ndarray]]
    ) -> list[np.ndarray]:
        self._require_attached()
        blocks = [l for l, _ in tasks]
        if len(set(blocks)) != len(blocks):
            raise ValueError("duplicate block in one solve_blocks call")
        tracer = self._tracer
        sent_bytes = sum(self._write_z(l, z) for l, z in tasks)
        if tracer is not None:
            tracer.event(
                "wire.send", cat="wire", lane="driver",
                bytes=int(sent_bytes), blocks=len(tasks),
            )
        pending: dict[int, int] = {}
        dispatched: dict[int, float] = {}
        t_dispatch = time.monotonic()
        for l in blocks:
            w = self._owner[l]
            self._task_qs[w].put(("solve", self._epoch, l))
            pending[l] = w
            dispatched[l] = t_dispatch
        remaining = set(blocks)
        policy = self._policy
        hb = self._heartbeat()
        hard_deadline = t_dispatch + self._reply_wait_seconds()
        t_wait = tracer.now() if tracer is not None else 0.0
        while remaining:
            for w_from, (_, _, l, dt) in self._replies("done", self._live, hb):
                if l not in remaining:  # a requeued block may answer twice
                    continue
                remaining.discard(l)
                del pending[l]
                self._block_seconds[l] += dt
                # A reply is proof of life for ITS worker only: refresh
                # the clocks of that worker's other queued blocks (a
                # deep queue on a live worker is not a hang), but never
                # a peer's.
                t_reply = time.monotonic()
                for l2 in remaining:
                    if pending[l2] == w_from:
                        dispatched[l2] = t_reply
            if not remaining:
                break
            # Corpse/deadline sweep runs every iteration, replies or not:
            # each outstanding block keeps the clock of its dispatch (or
            # its worker's last reply), so one chatty worker's steady
            # replies cannot keep resetting a shared round deadline and
            # mask a hung peer (the interleaving explorer's
            # requeue-vs-reply model is the spec for what recovery may
            # do with the late reply).
            now = time.monotonic()
            dead = [w for w in self._live if not self._is_alive(w)]
            if policy is None and dead:
                raise RuntimeError(f"runtime workers died: {dead}")
            if policy is not None and not dead and policy.deadline is not None:
                dead = sorted(
                    {
                        pending[l]
                        for l in remaining
                        if now - dispatched[l] > policy.deadline
                    }
                )
            if not dead:
                if now > hard_deadline:
                    raise RuntimeError(
                        f"timed out waiting for 'done' replies "
                        f"({len(blocks) - len(remaining)}/{len(blocks)} received)"
                    )
                continue
            self._recover(dead)
            # Blocks whose ticket sat with a dead worker go to their new
            # owner (the z slot still holds the round's local copy, so
            # the retried solve is bit-identical).  Fresh clocks for
            # every still-outstanding block: recovery itself (respawn +
            # adopt acks) takes wall time no worker should be billed
            # for.
            now = time.monotonic()
            for l in sorted(remaining):
                if pending[l] in dead:
                    pending[l] = self._owner[l]
                    self._task_qs[pending[l]].put(("solve", self._epoch, l))
                dispatched[l] = now
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

    def open_stream(self) -> "_ProcessStream":
        self._require_attached()
        return _ProcessStream(self)

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
            try:
                self._task_qs[w].put_nowait(("exit",))
            except Exception:  # pragma: no cover - feeder already gone
                pass
        self._join_all()
        for w in self._live:
            self._reap(w)
        self._task_qs = []
        self._conns = []
        self._early = []
        self._forget_fleet()


class _ProcessStream(SolveStream):
    """Out-of-order solve stream over the shm planes.

    ``submit`` writes the block's z slot and enqueues its ticket
    immediately; ``next_done`` drains the reply pipes and hands back
    pieces in finish order (copied off the plane -- the slot is live
    shared state).  No mid-stream recovery: a worker death fails the
    stream (the barrier path owns the FaultPolicy machinery).
    """

    def __init__(self, ex: "ProcessExecutor"):
        self._ex = ex
        self._ready: deque[tuple[int, np.ndarray]] = deque()
        self._inflight = 0

    def submit(self, l: int, z: np.ndarray) -> None:
        ex = self._ex
        l = int(l)
        ex._write_z(l, z)
        ex._task_qs[ex._owner[l]].put(("solve", ex._epoch, l))
        self._inflight += 1

    def next_done(self) -> tuple[int, np.ndarray]:
        ex = self._ex
        if not self._ready:
            if self._inflight <= 0:
                raise RuntimeError("no solve in flight")
            deadline = time.monotonic() + ex._reply_wait_seconds()
            while not self._ready:
                for _, (_, _, l, dt) in ex._replies("done", ex._live, 1.0):
                    ex._block_seconds[l] += dt
                    piece = ex._piece_plane.read(l)
                    ex._vector_bytes_received += piece.nbytes
                    self._ready.append((l, piece))
                if self._ready:
                    break
                dead = [w for w in ex._live if not ex._is_alive(w)]
                if dead:
                    raise RuntimeError(
                        f"runtime workers died mid-stream: {dead} "
                        "(pipelined dispatch does not recover)"
                    )
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        "process stream timed out waiting for a piece"
                    )
        self._inflight -= 1
        return self._ready.popleft()

    def close(self) -> None:
        # Drain outstanding replies so stale tickets cannot bleed into a
        # later barrier round's accounting.
        try:
            while self._inflight > 0:
                self.next_done()
        except RuntimeError:
            self._inflight = 0
        self._ready.clear()
