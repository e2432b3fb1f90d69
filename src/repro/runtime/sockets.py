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
  stream (or a reply still arriving past its batch's deadline) marks
  the worker lost;
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
* **the data-plane primitives** -- one ``solve`` frame out and one
  ``done`` frame back per worker per round, written and read by the
  calling thread: the frame carries, for every block the worker owes,
  only the halo ``z[halo_l]`` its ``Dep`` reads, and the reply its
  pieces.  Replies are found with ``select.poll`` over all streams and
  each is read whole under its batch's absolute deadline.  The loop
  around them is the shared one in
  :class:`~repro.runtime.fleet.FleetExecutor`, whose one-unanswered-
  frame-per-stream rule is what keeps a stream from deadlocking.  A
  worker that has just answered polls its stream briefly before
  blocking on it (:func:`~repro.runtime.fleet.linger`).

``close`` is idempotent and safe after a worker crash: exits are
fire-and-forget, sockets are torn down unconditionally, and spawned
processes are joined with a bound then terminated/killed.
"""

from __future__ import annotations

import argparse
import os
import pickle
import queue
import select
import socket
import time
from typing import Callable, Sequence

import numpy as np

from repro.direct.cache import FactorizationCache
from repro.runtime.fleet import FleetExecutor, WorkerGone, linger, serve
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
        self._socks: list[socket.socket] = []
        #: rank -> owned loopback process (external workers have none).
        self._rank_proc: dict[int, object] = {}
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
                rank = len(self._socks)
                self._pools[rank] = BufferPool()
                self._socks.append(sock)
                if proc is not None:
                    self._rank_proc[rank] = proc
        except OSError as exc:
            self.close()
            raise RuntimeError(f"cannot connect to socket worker {addr}: {exc}")

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
            self._socks[w].settimeout(self._reply_wait_seconds())
            info = send_frame(self._socks[w], frame)
        except OSError as exc:
            raise WorkerGone(w, exc) from None
        self._serialize_seconds += info["serialize_seconds"]
        self._transmit_seconds += info["transmit_seconds"]
        return info["payload"]

    def _send_solve(self, w: int, tasks) -> bool:
        frame = (
            "solve",
            self._epoch,
            [l for l, _ in tasks],
            [z[self._halo[l]] for l, z in tasks],
        )
        try:
            # Re-armed per frame: a deadline-bounded receive leaves the
            # socket with whatever sliver of time remained.
            self._socks[w].settimeout(self._reply_wait_seconds())
            info = send_frame(self._socks[w], frame, transient=True)
        except OSError:
            return False
        self._vector_bytes_sent += info["payload"]
        self._serialize_seconds += info["serialize_seconds"]
        self._transmit_seconds += info["transmit_seconds"]
        self._copies_avoided += info["oob_bytes"]
        return True

    def _ready(self, workers, timeout: float):
        ready = select.poll()  # not select(): fds may be >= 1024
        rank_of: dict[int, int] = {}
        broken: list[int] = []
        for w in workers:
            fd = self._socks[w].fileno()
            if fd < 0:  # severed by kill_worker
                broken.append(w)
                continue
            ready.register(fd, select.POLLIN)
            rank_of[fd] = w
        frames: list[tuple[int, tuple]] = []
        for fd, _ in ready.poll(timeout * 1000.0):
            w = rank_of[fd]
            # A solve reply's pieces land in the worker's rotating pool,
            # keyed by its batch (only frames the worker flagged
            # transient are pooled, so control replies own their
            # memory).  The deadline is absolute: neither a trickling
            # peer nor partial receives can stretch one reply past it.
            batch, due = self._owes.get(
                w, (None, time.monotonic() + self._reply_wait_seconds())
            )
            try:
                msg, info = recv_frame(
                    self._socks[w],
                    pool=self._pools[w] if batch is not None else None,
                    key=batch,
                    deadline=due,
                )
            except OSError:
                broken.append(w)
                continue
            if msg[1] != self._epoch:
                continue
            if msg[0] == "done":
                self._vector_bytes_received += info["payload"]
                self._copies_avoided += info["oob_bytes"]
            frames.append((w, msg))
        return frames, broken

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
