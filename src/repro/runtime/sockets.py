"""Socket transport: the fleet's workers on other machines, over TCP.

The fleet protocol itself (verbs, attach transaction, recovery, elastic
membership, accounting) lives in :mod:`repro.runtime.fleet` -- the same
protocol the grid simulator *prices* (:mod:`repro.grid`) and the process
backend runs on one host.  This module is what is particular to
speaking it over real sockets, so worker processes may live anywhere:

* **how a worker is reached** -- one TCP stream per worker carrying the
  self-describing frames of :mod:`repro.runtime.wire`: pickle
  protocol-5 heads with the vector bytes shipped *out of band* (raw
  ``memoryview`` segments via vectored ``sendmsg`` writes, received
  straight into preallocated per-block buffers with ``recv_into``).
  TCP gives per-worker FIFO, and peer death is immediate: a broken
  stream (or a breached per-request deadline -- the armed policy's
  ``deadline`` becomes the receive bound) marks the worker lost;
* **how a worker is born** -- loopback (CI, laptops):
  ``SocketExecutor(workers=3)`` spawns three local worker processes on
  ephemeral 127.0.0.1 ports and connects; distributed: start
  ``python -m repro.runtime.sockets --port 5555`` on each machine, then
  ``SocketExecutor(addresses=[("hostA", 5555), ("hostB", 5555)])`` from
  the driver.  ``--crash-after N`` makes a worker kill itself after
  ``N`` block solves -- chaos-testing a real fleet's recovery path from
  the worker side.  Only owned loopback workers can be respawned, killed,
  or told to exit; external ones are merely disconnected (their accept
  loop waits for the next driver, factor cache intact);
* **the data plane** -- one io thread per worker stream, one
  ``solve`` frame out and one ``done`` frame back per round: the frame
  carries, for every block the worker owes, only the halo
  ``z[halo_l]`` its ``Dep`` reads.  The strict send-one/recv-one
  pairing can never deadlock and keeps the per-worker solve order
  deterministic; a stream that breaks mid-round hands its whole batch
  to the shared recovery and the lost solves are re-dispatched.
  Iterates are unaffected: a block solve is a pure function of
  ``(block, z)`` wherever it runs.  A worker that has just answered
  polls its stream briefly before blocking on it
  (:func:`~repro.runtime.fleet.linger`).

``close`` is idempotent and safe after a worker crash: exits are
fire-and-forget, sockets are torn down unconditionally, and spawned
processes are joined with a bound then terminated/killed.
"""

from __future__ import annotations

import argparse
import os
import pickle
import queue
import socket
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

from repro.direct.cache import FactorizationCache
from repro.runtime.fleet import (
    _REPLY_TIMEOUT,
    FleetExecutor,
    WorkerGone,
    linger,
    serve,
)
from repro.runtime.wire import BufferPool, recv_frame, send_frame

__all__ = ["SocketExecutor", "serve_worker"]

#: Seconds allowed for the TCP connect to each worker.
_CONNECT_TIMEOUT = 20.0


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


class _SocketChannel:
    """Worker end of the transport: one framed TCP stream, both ways."""

    def __init__(self, conn: socket.socket):
        self._conn = conn
        # The verb loop handles one frame at a time, and a batch's halos
        # are dead once scattered, so a single pooled key suffices:
        # receive buffers rotate instead of reallocating every round.
        # Spec frames are sent non-transient and bypass the pool (their
        # arrays stay referenced by the bound systems).
        self._pool = BufferPool()
        #: A batch was just answered: the next frame is probably near.
        self._hot = False

    def recv(self):
        if self._hot:
            self._hot = False
            linger(self._conn.fileno())
        return recv_frame(self._conn, pool=self._pool, key="recv")[0]

    def send(self, reply) -> None:
        send_frame(self._conn, reply)

    def open(self, meta) -> None:
        pass

    def release(self) -> None:
        pass

    def tasks_of(self, frame) -> list[np.ndarray]:
        return frame[3]

    def send_done(self, epoch, blocks, pieces, seconds) -> dict:
        # Transient on purpose: the driver pools its receive buffers
        # per batch, and rounds overwrite rounds.
        info = send_frame(
            self._conn, ("done", epoch, blocks, seconds, pieces), transient=True
        )
        self._hot = True
        return info


def serve_worker(
    port: int = 0,
    host: str = "127.0.0.1",
    *,
    on_bound: Callable[[int], None] | None = None,
    crash_after: int | None = None,
) -> None:
    """Run one socket worker: bind, accept drivers, speak the protocol.

    Serves one driver connection at a time; when a driver disconnects
    the worker waits for the next one (its factor cache intact).  An
    ``exit`` verb shuts the worker down.  ``on_bound`` receives the
    actual port (useful with ``port=0``).  ``crash_after`` makes the
    worker hard-exit after that many block solves (chaos testing).
    """
    listener = socket.create_server((host, port))
    if on_bound is not None:
        on_bound(listener.getsockname()[1])
    cache = FactorizationCache(capacity=256)
    try:
        while True:
            conn, _ = listener.accept()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            try:
                should_exit = serve(
                    _SocketChannel(conn), cache, crash_after=crash_after
                )
            finally:
                conn.close()
            if should_exit:
                return
    finally:
        listener.close()


def _local_worker_entry(port_queue) -> None:
    """Spawn target for loopback workers (must be import-resolvable).

    Reports ``(port, pid)`` so the driver can map each connection back
    to the process it owns (the fault-injection kill path needs it).
    """
    serve_worker(
        0, "127.0.0.1", on_bound=lambda p: port_queue.put((p, os.getpid()))
    )


# ---------------------------------------------------------------------------
# driver side
# ---------------------------------------------------------------------------


class SocketExecutor(FleetExecutor):
    """Run block solves on TCP worker processes (possibly on other hosts).

    Parameters
    ----------
    addresses:
        ``[(host, port), ...]`` of externally started workers (see
        :func:`serve_worker` / ``python -m repro.runtime.sockets``).
    workers:
        Spawn this many loopback worker processes on 127.0.0.1 instead;
        they are owned by (and die with) the executor.  At most one of
        ``addresses``/``workers`` may be given; with neither, the
        backend targets ``os.cpu_count()`` loopback workers (so
        ``backend="sockets"`` works by name, like the other backends),
        clamped at each attach to the binding's block count.
    reply_timeout:
        Seconds to wait on any single worker reply before declaring the
        worker dead (a binding's :class:`FaultPolicy` ``deadline``
        overrides this for solve replies).
    start_method:
        ``multiprocessing`` start method for spawned loopback workers
        (same auto-pick rules as :class:`~repro.runtime.ProcessExecutor`).
    """

    name = "sockets"

    def __init__(
        self,
        addresses: Sequence[tuple[str, int]] | None = None,
        *,
        workers: int | None = None,
        reply_timeout: float = _REPLY_TIMEOUT,
        start_method: str | None = None,
    ):
        if addresses is not None and workers is not None:
            raise ValueError("give at most one of addresses= or workers=")
        if addresses is not None and not addresses:
            raise ValueError("addresses must be non-empty")
        if addresses is None and workers is None:
            workers = os.cpu_count() or 1
        if workers is not None and workers < 1:
            raise ValueError("workers must be positive")
        super().__init__(start_method)
        self.addresses = list(addresses) if addresses is not None else None
        self.workers = workers
        self.reply_timeout = reply_timeout
        self._socks: list[socket.socket] = []
        #: rank -> owned loopback process (external workers have none).
        self._rank_proc: dict[int, object] = {}
        self._io_pool: ThreadPoolExecutor | None = None
        #: Per-worker receive-buffer pools (driver side): pieces land in
        #: rotating preallocated buffers instead of fresh allocations.
        self._pools: dict[int, BufferPool] = {}

    # -- transport primitives --------------------------------------------
    def _fleet_cap(self) -> int:
        return self.workers if self.addresses is None else len(self.addresses)

    def _spawn(self, workers) -> list[int]:
        first = len(self._socks)
        if not isinstance(workers, int):
            # Explicit (host, port) list: the only way a fixed address
            # fleet grows, since it has no processes to spawn.
            addrs = [(str(h), int(p)) for h, p in workers]
            self._connect(addrs, [None] * len(addrs))
            if self.addresses is not None:
                self.addresses.extend(addrs)
        elif self.addresses is None:
            self._connect(*self._spawn_loopback(workers))
        elif not self._socks:
            self._connect(self.addresses, [None] * len(self.addresses))
        return list(range(first, len(self._socks)))

    def _spawn_loopback(self, count: int) -> tuple[list, list]:
        """Start ``count`` owned loopback workers: (addresses, processes)."""
        ctx = self._context()
        port_q = ctx.Queue()
        started = {}
        for _ in range(count):
            proc = ctx.Process(
                target=_local_worker_entry,
                args=(port_q,),
                daemon=True,
                name=f"repro-socket-{len(self._procs)}",
            )
            proc.start()
            self._procs.append(proc)
            started[proc.pid] = proc
        reports = []
        deadline = time.monotonic() + _CONNECT_TIMEOUT
        while len(reports) < count:
            timeout = max(0.1, deadline - time.monotonic())
            try:
                reports.append(port_q.get(timeout=timeout))
            except queue.Empty:
                # Narrow on purpose: only the expected "no report within
                # the deadline" becomes the spawn-failure diagnosis; a
                # programming error in the queue path must propagate as
                # itself, not masquerade as a worker startup failure.
                self.close()
                raise RuntimeError(
                    "loopback socket workers failed to report their ports"
                ) from None
        reports.sort()
        return (
            [("127.0.0.1", port) for port, _ in reports],
            [started[pid] for _, pid in reports],
        )

    def _connect(self, addresses, procs) -> None:
        try:
            for addr, proc in zip(addresses, procs):
                sock = socket.create_connection(addr, timeout=_CONNECT_TIMEOUT)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.settimeout(self.reply_timeout)
                rank = len(self._socks)
                self._pools[rank] = BufferPool()
                self._socks.append(sock)
                if proc is not None:
                    self._rank_proc[rank] = proc
        except OSError as exc:
            self.close()
            raise RuntimeError(f"cannot connect to socket worker {addr}: {exc}")
        if self._io_pool is not None:
            self._io_pool.shutdown(wait=True)
        self._io_pool = ThreadPoolExecutor(
            max_workers=len(self._socks), thread_name_prefix="repro-socket-io"
        )

    def _is_alive(self, w: int) -> bool:
        # An external worker's death is only observable through I/O.
        proc = self._rank_proc.get(w)
        return proc is None or proc.is_alive()

    def _post(self, w: int, frame: tuple) -> int:
        # Control verbs (and adoption refactors) may legitimately take
        # longer than a tight solve deadline, so they always run under
        # the long protocol timeout.  Spec bytes travel out of band.
        frame = tuple(
            pickle.PickleBuffer(x) if isinstance(x, bytes) else x for x in frame
        )
        try:
            self._socks[w].settimeout(self.reply_timeout)
            info = send_frame(self._socks[w], frame)
        except OSError as exc:
            raise WorkerGone(w, exc) from None
        with self._wire_lock:
            self._serialize_seconds += info["serialize_seconds"]
            self._transmit_seconds += info["transmit_seconds"]
        return info["payload"]

    def _recv_reply(
        self, w: int, kind: str, *, key=None, deadline: float | None = None
    ) -> tuple:
        """Next current-epoch ``kind`` frame from worker ``w``.

        ``key`` opts into worker ``w``'s receive-buffer pool: a solve
        reply's pieces land in rotating preallocated buffers keyed by
        its batch (only frames the worker flagged transient are pooled,
        so control replies always own their memory).  ``deadline`` is an
        *absolute* monotonic bound on getting the expected reply: it
        spans straggler frames and partial receives alike, so neither a
        trickling peer nor a backlog of stale frames can stretch one
        batch's reply past the armed fault deadline.
        """
        pool = self._pools.get(w) if key is not None else None
        while True:
            try:
                msg, info = recv_frame(
                    self._socks[w], pool=pool, key=key, deadline=deadline
                )
            except OSError as exc:
                raise WorkerGone(w, exc) from None
            if not self._current(w, msg, kind):
                continue
            if kind == "done":
                with self._wire_lock:
                    self._solve_frames_received += 1
                    self._vector_bytes_received += info["payload"]
                    self._copies_avoided += info["oob_bytes"]
            return msg

    def _gather(self, kind: str, workers) -> tuple[dict[int, tuple], list[int]]:
        replies: dict[int, tuple] = {}
        gone: list[int] = []
        for w in sorted(workers):
            try:
                replies[w] = self._recv_reply(w, kind)
            except WorkerGone:
                gone.append(w)
        return replies, gone

    def _reap(self, w: int) -> None:
        proc = self._rank_proc.get(w)
        if proc is not None and proc.is_alive():
            proc.kill()  # a deadline breach: the worker is hung, not dead
            proc.join(timeout=10.0)
        self._sever(w)

    def _sever(self, w: int) -> None:
        try:
            self._socks[w].shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._socks[w].close()

    def _retire(self, w: int) -> None:
        # Owned loopback workers get the terminal ``exit`` verb;
        # external workers just lose this driver's connection.
        proc = self._rank_proc.get(w)
        if proc is not None:
            self._send_exit(w)
            proc.join(timeout=10.0)
        self._reap(w)

    def _send_exit(self, w: int) -> None:
        try:
            self._socks[w].settimeout(2.0)
            send_frame(self._socks[w], ("exit",))
        except OSError:
            pass

    def _open_binding(self, b_shape: tuple, sets: list) -> None:
        for pool in self._pools.values():
            pool.clear()

    # -- fault injection -------------------------------------------------
    def kill_worker(self, rank: int) -> bool:
        """Hard-kill worker ``rank``.  The chaos hook.

        An owned loopback worker's process is SIGKILLed; an external
        worker cannot be killed remotely, so its *connection* is severed
        instead (the observable failure is identical driver-side).
        Recovery is not triggered here -- the next solve round finds the
        broken stream, exactly as a real mid-run crash would surface.
        """
        if rank not in self._live or not self._is_alive(rank):
            return False
        proc = self._rank_proc.get(rank)
        if proc is None:
            self._sever(rank)
        else:
            proc.kill()
            proc.join(timeout=10.0)
        return True

    # -- solving ---------------------------------------------------------
    def _solve_timeout(self) -> float:
        """Per-request deadline -- for *solve* replies only.

        Only the hot path converts a slow reply into a recoverable
        fault; control verbs keep the long ``reply_timeout``.
        """
        if self._policy is not None and self._policy.deadline is not None:
            return self._policy.deadline
        return self.reply_timeout

    def _send_solve(self, w: int, tasks) -> None:
        """One solve frame to worker ``w``: its batch's halos (raises
        ``OSError`` if the stream is broken)."""
        info = send_frame(
            self._socks[w],
            (
                "solve",
                self._epoch,
                [l for l, _ in tasks],
                [self._local_copy(z)[self._halo[l]] for l, z in tasks],
            ),
            transient=True,
        )
        with self._wire_lock:
            self._solve_frames_sent += 1
            self._vector_bytes_sent += info["payload"]
            self._serialize_seconds += info["serialize_seconds"]
            self._transmit_seconds += info["transmit_seconds"]
            self._copies_avoided += info["oob_bytes"]

    def _run_worker_tasks(
        self, w: int, tasks: list[tuple[int, np.ndarray]]
    ) -> list[tuple[int, np.ndarray, float]] | None:
        """One frame out, one frame back on worker ``w``'s stream.

        At most one request and one reply in flight per stream: the
        pairing can never deadlock and keeps the per-worker solve order
        deterministic.  Returns the batch's ``(block, piece, seconds)``
        triples, or ``None`` when the stream broke -- it does not raise,
        so the caller can recover the batch elsewhere.  A send to a dead
        peer is a worker death exactly like a failed recv (whether it
        surfaces here or on the reply is a TCP timing accident), so
        both lose the batch.  The reply proves life once per batch, so
        its absolute receive deadline is the per-block bound times the
        batch size.  Worker-reported kernel error frames raise out of
        :meth:`_recv_reply` as ``RuntimeError`` and are deliberately NOT
        caught here: a broken kernel must surface to the caller, never
        be misread as a worker loss and "recovered" into an infinite
        refactor loop.
        """
        timeout = self._solve_timeout()
        blocks = tuple(l for l, _ in tasks)
        try:
            # Re-arm the base timeout per batch: a deadline-bounded
            # receive may leave the socket with whatever sliver of time
            # remained, and the next send must not inherit it.
            self._socks[w].settimeout(timeout)
            self._send_solve(w, tasks)
            _, _, batch, seconds, pieces = self._recv_reply(
                w, "done", key=blocks,
                deadline=time.monotonic() + timeout * len(tasks),
            )
        except (OSError, WorkerGone):
            return None
        return list(zip(batch, pieces, seconds))

    def solve_blocks(
        self, tasks: Sequence[tuple[int, np.ndarray]]
    ) -> list[np.ndarray]:
        self._require_attached()
        blocks = [l for l, _ in tasks]
        if len(set(blocks)) != len(blocks):
            raise ValueError("duplicate block in one solve_blocks call")
        pieces: dict[int, np.ndarray] = {}
        tracer = self._tracer
        if tracer is not None:
            with self._wire_lock:
                sent0, recv0 = self._vector_bytes_sent, self._vector_bytes_received
                ser0, tx0 = self._serialize_seconds, self._transmit_seconds
            t_wait = tracer.now()
        todo = list(tasks)
        while todo:
            by_worker: dict[int, list[tuple[int, np.ndarray]]] = {}
            for l, z in todo:
                by_worker.setdefault(self._owner[l], []).append((l, z))
            futures = {
                w: self._io_pool.submit(self._run_worker_tasks, w, wtasks)
                for w, wtasks in by_worker.items()
            }
            failed: list[int] = []
            errors: list[Exception] = []
            for w, fut in futures.items():
                try:
                    done = fut.result()
                except Exception as exc:  # kernel error frames raise through
                    errors.append(exc)
                    continue
                if done is None:
                    failed.append(w)
                    continue
                for l, piece, dt in done:
                    pieces[l] = piece
                    self._block_seconds[l] += dt
            if errors:
                raise errors[0]
            if not failed:
                break
            if self._policy is None:
                raise RuntimeError(
                    f"socket workers died mid-solve: {sorted(failed)} "
                    "(attach with a FaultPolicy to recover)"
                )
            failed.sort()
            self._recover(failed)
            todo = [t for w in failed for t in by_worker[w]]
        if tracer is not None:
            # One aggregated wait span + wire event pair per round on the
            # driver lane; the per-block detail lives on the worker lanes.
            tracer.add(
                "barrier.wait", "wait", t_wait, tracer.now() - t_wait,
                lane="driver", tasks=len(tasks),
            )
            with self._wire_lock:
                sent = self._vector_bytes_sent - sent0
                received = self._vector_bytes_received - recv0
                ser = self._serialize_seconds - ser0
                tx = self._transmit_seconds - tx0
            # Aggregated driver-lane split of the round's send cost:
            # serialize (pickling) vs transmit (socket writes).
            tracer.add(
                "wire.serialize", "wire", t_wait, ser, lane="driver", bytes=sent,
            )
            tracer.add(
                "wire.transmit", "wire", t_wait, tx, lane="driver", bytes=sent,
            )
            tracer.event("wire.send", cat="wire", lane="driver", bytes=sent)
            tracer.event("wire.recv", cat="wire", lane="driver", bytes=received)
        return [pieces[l] for l in blocks]

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Tear everything down: idempotent, and safe after a worker crash.

        Only *owned* loopback workers (spawned by this executor) receive
        the terminal ``exit`` verb; externally started workers
        (``addresses=``) are merely disconnected -- their accept loop
        waits for the next driver, so a shared remote fleet survives one
        driver's teardown.  Exit frames are fire-and-forget (a dead peer
        just errors the send), sockets are closed unconditionally, and
        spawned workers are joined with a bound then terminated/killed.
        The executor may be re-attached afterwards: the next ``attach``
        spawns/connects a fresh worker set.
        """
        for w in self._live:
            if w in self._rank_proc:
                self._send_exit(w)
        for w in range(len(self._socks)):
            self._sever(w)
        self._socks = []
        self._rank_proc = {}
        self._pools = {}
        if self._io_pool is not None:
            self._io_pool.shutdown(wait=True)
            self._io_pool = None
        self._join_all()
        self._forget_fleet()


def main(argv: list[str] | None = None) -> int:
    """CLI: run one socket worker (``python -m repro.runtime.sockets``)."""
    parser = argparse.ArgumentParser(
        prog="repro.runtime.sockets",
        description="Serve one multisplitting socket worker.",
    )
    parser.add_argument("--host", default="0.0.0.0", help="bind address")
    parser.add_argument("--port", type=int, default=5555, help="bind port")
    parser.add_argument(
        "--crash-after",
        type=int,
        default=None,
        metavar="N",
        help="chaos knob: hard-exit the worker after N block solves "
        "(mid-batch when N falls inside a round), simulating a mid-run "
        "node failure (for drills against a real fleet's FaultPolicy "
        "recovery)",
    )
    args = parser.parse_args(argv)
    chaos = (
        f" (chaos: crash after {args.crash_after} solves)"
        if args.crash_after is not None
        else ""
    )
    print(f"[pid {os.getpid()}] serving multisplitting worker on "
          f"{args.host}:{args.port}{chaos}", flush=True)
    serve_worker(
        args.port, args.host, on_bound=lambda p: None, crash_after=args.crash_after
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - manual deployment entry
    raise SystemExit(main())
