"""The fleet protocol: one copy, carried by two transports.

The paper's deployment is one process per machine that factors its band
once and afterwards exchanges only ``XSub`` vectors.  That protocol does
not depend on what carries the bytes, so it lives here exactly once:

* :func:`serve` -- the worker's verb loop.  A worker executes a fixed
  verb set (never arbitrary closures) over a small *channel* object the
  transport supplies:

  ==========  ===================================  ==============================================
  verb        frame                                reply frame
  ==========  ===================================  ==============================================
  ``attach``  ``(verb, epoch, meta, spec_bytes)``  ``("attached", epoch)``
  ``adopt``   ``(verb, epoch, meta, spec_bytes)``  ``("adopted", epoch, seconds)``
  ``solve``   ``(verb, epoch, blocks[, halos])``   ``("done", epoch, blocks, seconds[, pieces])``
  ``trace``   ``(verb, epoch)``                    ``("trace", epoch, spans, worker_now)``
  ``stats``   ``(verb, epoch)``                    ``("stats", epoch, cache_delta)``
  ``detach``  ``(verb, epoch)``                    ``("detached", epoch)``
  ``exit``    ``(verb,)``                          none -- the worker ends
  ==========  ===================================  ==============================================

  A ``solve`` frame is a *batch*: every block the worker owes this
  round, answered by one ``done`` frame (``seconds`` per block, in
  frame order).  What moves is each block's halo ``z[halo_l]`` -- the
  columns its ``Dep`` reads, fixed at attach -- never the full-length
  local copy; the vectors ride in the frame (sockets) or in shared
  memory (processes), which is the bracketed part.

  Any failure while serving a verb answers ``("error", epoch,
  traceback)`` and the loop keeps serving.  Replies carry no rank: the
  driver knows which channel it read.  Every frame after the verb
  carries the binding epoch and replies echo it, so the driver can
  discard stragglers from an aborted binding.

* :class:`FleetExecutor` -- the driver's side: binding state, the
  attach transaction, detach, trace collection, elastic membership
  (grow / shrink / migrate), the re-homing decision after a loss, the
  cache / fault / wire accounting, and the data plane: one
  ``solve_blocks`` loop that posts every worker's batch from the
  calling thread, then polls all reply channels with a per-worker
  deadline and re-dispatches a lost batch whole after recovery.  A
  transport subclass supplies only how a worker is born, killed and
  reached (the primitives listed on the class), including the two
  data-plane primitives: send one batch, and read the replies that are
  ready.

  One invariant keeps a stream from deadlocking: at most one unanswered
  frame per channel.  A driver writing a large frame to a worker that
  is itself writing a large reply would wait on a peer waiting on it
  once both directions' buffers fill, so before any frame goes to a
  worker that still owes a ``done`` -- the next batch, or an ``adopt``
  spec during recovery -- that ``done`` is read first and kept for the
  solve loop (:meth:`FleetExecutor._settle`).

Ranks only ever append: a lost or retired worker's rank is never
reused, so per-rank accounting cannot alias, and a later binding takes
the first live ranks it needs and spawns only the shortfall.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import select
import threading
import time
import traceback
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.local import build_local_system, halo_columns
from repro.direct.cache import CacheStats
from repro.observe import estimate_clock_offset
from repro.runtime.api import Executor, owned_rows_spec
from repro.runtime.resilience import FaultPolicy, FaultStats, reassign_orphans

__all__ = ["FleetExecutor", "WorkerGone", "linger", "serve"]

#: Seconds a driver waits on one worker reply before declaring it dead.
_REPLY_TIMEOUT = 300.0

#: Seconds a worker that has just answered a solve polls for its next
#: frame before it blocks (:func:`linger`).
_LINGER = 0.003


class WorkerGone(RuntimeError):
    """A worker stopped answering (death, broken stream, or deadline)."""

    def __init__(self, rank: int, cause: object):
        super().__init__(f"runtime worker {rank} died: {cause}")
        self.rank = rank


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


def linger(fd: int) -> None:
    """Poll ``fd`` for the worker's next frame, briefly, before blocking on it.

    Between two rounds a worker idles for the few hundred microseconds
    the driver folds in.  Blocking at once lets its CPU halt, and the
    next frame then pays a cross-CPU wake-up that, on a virtualised or
    shared host, costs as much as a thin round and differs from run to
    run: measured on the 2-core reference host, that wake-up was what
    made a fleet's timings spread once the round itself was cheap.  So
    a channel calls this after a ``done`` reply, and only then: the
    worker polls for up to ``_LINGER`` seconds, yielding the CPU between
    polls (a driver or peer sharing the core runs at once), then falls
    back to the blocking read.  An idle fleet never spins.
    """
    ready = select.poll()  # not select(): a forked worker's fd may be >= 1024
    ready.register(fd, select.POLLIN)
    give_up = time.perf_counter() + _LINGER
    while not ready.poll(0):
        if time.perf_counter() > give_up:
            return
        os.sched_yield()


def serve(chan, cache, *, crash_after: int | None = None) -> bool:
    """Speak the verb protocol on one driver channel.

    ``chan`` is the transport's worker-side channel: ``recv()`` the next
    frame (raising ``ConnectionError``/``OSError``/``EOFError`` once the
    driver is gone), ``send(reply)``, ``open(meta)``/``release()`` the
    binding's transport resources, ``tasks_of(frame)`` to obtain a solve
    batch's halos (one per block of the frame, in order), and
    ``send_done(epoch, blocks, pieces, seconds)`` to return the batch
    (optionally yielding :func:`repro.runtime.wire.send_frame` timing
    info).  ``cache`` is the worker's factor cache; it outlives the
    channel -- that is the re-attach economy.

    Returns True when the driver sent ``exit``, False when the channel
    simply ended.  ``crash_after`` hard-exits the whole process right
    after that many block solves -- mid-batch when the count falls
    inside one, before any reply (the worker-side chaos hook).
    """
    systems: dict[int, object] = {}
    halos: dict[int, np.ndarray] = {}
    # The full-length local copy the kernels read.  A round scatters
    # each block's halo into it; ``dep @ z`` reads no other column, so
    # one copy serves every block of the binding, bit-identically.
    scratch: np.ndarray | None = None
    use_cache = False
    cache_before: CacheStats | None = None
    solves = 0
    # Worker-local tracer, armed per binding by the meta's "trace" flag.
    # Spans are recorded on this process's own perf_counter clock and
    # shipped back on the "trace" verb with a clock sample, so the
    # driver can merge them offset-corrected.
    tracer = None
    lane = "worker"
    while True:
        t_wait = time.perf_counter()
        try:
            msg = chan.recv()
        except (ConnectionError, OSError, EOFError):
            return False
        if tracer is not None:
            # Time blocked waiting for the next frame: between rounds
            # this is the worker's barrier wait.
            tracer.add(
                "barrier.wait", "wait", t_wait, time.perf_counter() - t_wait,
                lane=lane,
            )
        kind = msg[0]
        if kind == "exit":
            chan.release()
            return True
        epoch = msg[1]
        try:
            if kind in ("attach", "adopt"):
                # Worker-specific knobs ride in the small meta dict so
                # the spec bytes stay shareable across workers (the
                # driver pickles each owned set exactly once).
                meta, spec = msg[2], pickle.loads(msg[3])
                if meta.get("trace"):
                    if tracer is None:
                        from repro.observe import Tracer

                        tracer = Tracer()
                    lane = meta.get("lane", lane)
                    cache.set_tracer(tracer, lane=lane)
                    tracer.event(
                        "wire.recv", cat="wire", lane=lane,
                        bytes=len(msg[3]), verb=kind,
                    )
                else:
                    tracer = None
                    cache.set_tracer(None)
                use_cache = spec["use_cache"]
                if kind == "attach":
                    systems, halos, scratch = {}, {}, None
                    chan.release()
                    cache_before = cache.stats.snapshot() if use_cache else None
                elif use_cache and cache_before is None:
                    # A respawned replacement's first frame is an adopt.
                    cache_before = cache.stats.snapshot()
                chan.open(meta)
                # Only the owned rows A[J_l, :] / b[J_l] ever arrive --
                # never the full matrix.
                t0 = time.perf_counter()
                for l in spec["owned"]:
                    tb = time.perf_counter()
                    systems[l] = build_local_system(
                        None,
                        None,
                        spec["sets"][l],
                        l,
                        spec["solvers"][l],
                        cache=cache if use_cache else None,
                        band=spec["bands"][l],
                        b_sub=spec["b_subs"][l],
                    )
                    halos[l] = spec["halos"][l]
                    if scratch is None:
                        scratch = np.zeros(
                            spec["bands"][l].shape[1:] + spec["b_subs"][l].shape[1:]
                        )
                    if tracer is not None and not use_cache:
                        # Cached bindings get their factor spans from
                        # the cache itself (misses only).
                        tracer.add(
                            "factor", "compute", tb,
                            time.perf_counter() - tb, lane=lane, block=l,
                        )
                dt = time.perf_counter() - t0
                if kind == "attach":
                    chan.send(("attached", epoch))
                else:
                    if tracer is not None:
                        tracer.add(
                            "adopt", "fault", t0, dt, lane=lane,
                            blocks=list(spec["owned"]),
                        )
                    chan.send(("adopted", epoch, dt))
            elif kind == "solve":
                blocks = msg[2]
                zs = chan.tasks_of(msg)
                if tracer is not None:
                    tracer.event(
                        "wire.recv", cat="wire", lane=lane,
                        bytes=sum(int(z.nbytes) for z in zs), blocks=list(blocks),
                    )
                pieces, seconds = [], []
                try:
                    for i, l in enumerate(blocks):
                        scratch[halos[l]] = zs[i]
                        t0 = time.perf_counter()
                        piece = np.asarray(systems[l].solve_with(scratch), dtype=float)
                        dt = time.perf_counter() - t0
                        if tracer is not None:
                            tracer.add("solve", "compute", t0, dt, lane=lane, block=l)
                        pieces.append(piece)
                        seconds.append(dt)
                        solves += 1
                        if crash_after is not None and solves >= crash_after:
                            # Simulate a mid-run node failure: no goodbye
                            # frame, no cleanup -- the driver sees a broken
                            # stream.
                            os._exit(1)
                finally:
                    # Drop the halos before replying, and before an error
                    # frame too: they may be live views of a transport
                    # buffer the driver is about to reclaim, and a plane
                    # with a live view cannot be unmapped at detach.
                    del zs
                info = chan.send_done(epoch, blocks, pieces, seconds)
                if tracer is not None:
                    if info is not None:
                        tracer.add(
                            "wire.serialize", "wire", info["t_serialize"],
                            info["serialize_seconds"], lane=lane,
                        )
                        tracer.add(
                            "wire.transmit", "wire", info["t_transmit"],
                            info["transmit_seconds"], lane=lane,
                        )
                    tracer.event(
                        "wire.send", cat="wire", lane=lane,
                        bytes=sum(int(p.nbytes) for p in pieces),
                        blocks=list(blocks),
                    )
            elif kind == "trace":
                batch = tracer.export_batch() if tracer is not None else []
                chan.send(("trace", epoch, batch, time.perf_counter()))
            elif kind == "stats":
                delta = (
                    cache.stats.since(cache_before)
                    if use_cache and cache_before is not None
                    else None
                )
                chan.send(("stats", epoch, delta))
            elif kind == "detach":
                systems, halos, scratch = {}, {}, None
                chan.release()
                chan.send(("detached", epoch))
            else:
                chan.send(("error", epoch, f"unknown verb {kind!r}"))
        except Exception:
            # Exception (not BaseException): kernel and programming
            # errors are serialized back to the driver as error frames,
            # but a KeyboardInterrupt/SystemExit must still kill the
            # worker -- swallowing it would leave an unkillable loop.
            try:
                chan.send(("error", epoch, traceback.format_exc()))
            except OSError:  # pragma: no cover - driver already gone
                return False


# ---------------------------------------------------------------------------
# driver side
# ---------------------------------------------------------------------------


class FleetExecutor(Executor):
    """Driver half of the fleet protocol, over transport primitives.

    A transport subclass implements:

    * ``_spawn(workers)`` -- bring up workers (an int count, or whatever
      address form the transport accepts) and return their new ranks;
      ``[]`` when the fleet cannot create any;
    * ``_post(w, frame)`` -- ship one control/binding frame to worker
      ``w``, returning the bytes shipped; a broken channel raises
      :class:`WorkerGone`;
    * ``_send_solve(w, tasks)`` -- ship one solve batch (the halo of
      each task's local copy) to worker ``w``; False when the channel
      refused it;
    * ``_ready(workers, timeout)`` -- wait up to ``timeout`` seconds for
      any of the workers' channels, then read one frame off each ready
      one, as ``(replies, broken)``: current-epoch ``(w, frame)``
      pairs, a ``done`` frame extended to ``(..., seconds, pieces)``,
      and the workers whose channel broke;
    * ``_is_alive(w)``, ``_reap(w)`` (kill a lost or hung worker and
      drop its channel), ``_retire(w)`` (let an idle worker exit
      gracefully), ``_fleet_cap()`` (default worker count);
    * optionally ``_meta()`` (transport knobs for a binding frame) and
      ``_open_binding`` / ``_close_binding`` (per-binding transport
      resources);
    * ``close``, plus the ``kill_worker`` chaos hook.
    """

    def __init__(self, start_method: str | None):
        self.start_method = start_method
        self._mp_ctx = None
        #: Every worker process this executor spawned (for teardown).
        self._procs: list = []
        #: Ranks not yet declared lost or retired, ascending; fleet-wide
        #: (it persists across bindings).
        self._live: list[int] = []
        self._owner: dict[int, int] = {}
        self._block_seconds: dict[int, float] = {}
        self._attached = False
        self._use_cache = False
        self._epoch = 0
        self._policy: FaultPolicy | None = None
        self._fault = FaultStats()
        self._placement = None
        self._slot_of: dict[int, int] = {}
        # ``(bands, halos, b, sets, solvers)``, retained for re-homing:
        # an adoption re-ships exactly this context, trimmed to the
        # moved blocks.
        self._spec_ctx: tuple | None = None
        #: Per block, the sorted columns of the iterate its solve reads
        #: (``Dep_l``'s non-zero columns): all a round ships of ``z``.
        self._halo: list[np.ndarray] = []
        self._b_shape: tuple = ()
        #: Spec pickle bytes per owned tuple -- one pickle per distinct
        #: owned set per binding, shared across attach and recovery.
        self._spec_cache: dict[tuple[int, ...], bytes] = {}
        # Fleet membership generation: bumped by attach, grow, shrink,
        # and recovery.  Lifetime-monotone (never reset), so an elastic
        # re-planner detects change with one integer compare.
        self._membership_version = 0
        # Monotonic cache accounting (per binding): counters banked from
        # retired/dead workers, each live worker's last-polled delta
        # (banked at loss so a crash cannot move the aggregate
        # backwards), and the set of workers bound this epoch (only
        # they hold current-epoch counters -- polling an idle worker
        # would read some older binding's delta).
        self._cache_retired = CacheStats()
        self._cache_last: dict[int, CacheStats] = {}
        self._bound_workers: set[int] = set()
        #: Serialized payload bytes of the last attach, per worker rank
        #: -- the observable for the owned-rows-only shipping guarantee.
        self.attach_payload_bytes: dict[int, int] = {}
        #: Per worker with an unanswered solve frame: the frame's batch
        #: and the instant it is overdue.  At most one per channel.
        self._owes: dict[int, tuple[tuple[int, ...], float]] = {}
        #: ``done`` replies read before the solve loop asked for them
        #: (an adopter heard out before its ``adopt`` spec).
        self._early: list[tuple[int, tuple]] = []
        self._reset_wire()

    def _reset_wire(self) -> None:
        self._vector_bytes_sent = 0
        self._vector_bytes_received = 0
        self._solve_frames_sent = 0
        self._solve_frames_received = 0
        self._serialize_seconds = 0.0
        self._transmit_seconds = 0.0
        self._copies_avoided = 0
        self._spec_pickles_reused = 0

    # -- transport hooks with a default ----------------------------------
    def _meta(self) -> dict:
        return {}

    def _open_binding(self, b_shape: tuple, sets: list) -> None:
        """Per-binding transport resources (``self._halo`` is already set)."""

    def _close_binding(self) -> None:
        pass

    # -- worker pool -----------------------------------------------------
    def _context(self):
        """Pick the start method at first spawn, and keep it.

        ``fork`` is the cheapest, but forking a *multi-threaded* parent
        can clone a child while another thread (a ThreadExecutor pool, a
        BLAS pool) holds an internal lock, deadlocking the worker before
        it reaches its verb loop.  So ``fork`` is only chosen when the
        parent is still single-threaded; otherwise ``forkserver`` (or
        ``spawn``) launches workers from a clean process.  Cached: a
        mid-run grow must spawn the way the attach did, not re-decide
        from whatever threads exist by then.
        """
        if self._mp_ctx is None:
            method = self.start_method
            if method is None:
                available = mp.get_all_start_methods()
                if "fork" in available and threading.active_count() == 1:
                    method = "fork"
                elif "forkserver" in available:
                    method = "forkserver"
                else:
                    method = "spawn"
            self._mp_ctx = mp.get_context(method)
        return self._mp_ctx

    def _add_workers(self, workers) -> list[int]:
        new = self._spawn(workers)
        self._live.extend(new)
        return new

    def _join_all(self) -> None:
        """Reap every spawned process: join, then terminate, then kill."""
        for proc in self._procs:
            proc.join(timeout=10.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - unkillable worker
                proc.kill()
                proc.join(timeout=5.0)

    def _unbind(self) -> None:
        """Drop the driver's side of the binding (workers untouched)."""
        self._attached = False
        self._spec_ctx = None
        self._halo = []
        self._spec_cache = {}
        self._placement = None
        self._owes = {}
        self._early = []
        self._close_binding()

    def _forget_fleet(self) -> None:
        """Reset driver state once every worker is gone (end of close)."""
        self._unbind()
        self._procs = []
        self._live = []
        self._owner = {}
        self._block_seconds = {}
        self._cache_last = {}
        self._bound_workers = set()

    def alive_workers(self) -> list[int]:
        """Ranks not declared lost whose workers are (as far as the
        driver can tell) alive.  The chaos victim pool."""
        return [w for w in self._live if self._is_alive(w)]

    # -- replies ---------------------------------------------------------
    def _heartbeat(self) -> float:
        return self._policy.heartbeat_interval if self._policy is not None else 1.0

    def _reply_wait_seconds(self) -> float:
        """Hard bound on one reply wait, governed by the armed policy.

        The module default ``_REPLY_TIMEOUT`` is a backstop for unarmed
        bindings.  When a :class:`FaultPolicy` with its own ``deadline``
        is armed, that deadline governs: a *generous* policy (deadline
        beyond the default) extends the hard bound so the round is never
        cut short by the hardcoded constant, while a *tight* deadline is
        enforced per batch by the solve loop (:meth:`_due`), which reaps
        the hung worker long before either bound fires.
        """
        policy = self._policy
        if policy is not None and policy.deadline is not None:
            return max(_REPLY_TIMEOUT, policy.deadline)
        return _REPLY_TIMEOUT

    def _due(self, nblocks: int) -> float:
        """The instant a batch of ``nblocks`` posted now is overdue.

        A reply proves life once per batch, so a worker owing ``m``
        blocks is allowed ``m`` times the policy's per-block
        ``deadline``; without one, the flat backstop applies.
        """
        policy = self._policy
        if policy is not None and policy.deadline is not None:
            return time.monotonic() + policy.deadline * nblocks
        return time.monotonic() + _REPLY_TIMEOUT

    def _check(self, w: int, msg: tuple, kind: str) -> None:
        """Raise ``RuntimeError`` unless ``msg`` is the awaited ``kind``
        reply: an error frame carries the worker's traceback."""
        if msg[0] == "error":
            raise RuntimeError(f"runtime worker {w} failed:\n{msg[2]}")
        if msg[0] != kind:  # pragma: no cover - protocol violation
            raise RuntimeError(
                f"expected {kind!r} from worker {w}, got {msg[0]!r}"
            )

    def _replies(self, workers, timeout: float):
        """:meth:`_ready`, with the bookkeeping every read shares.

        A worker with an unanswered solve frame was sent nothing else,
        so whatever it says next answers that frame.
        """
        frames, broken = self._ready(workers, timeout)
        for w, msg in frames:
            self._owes.pop(w, None)
            if msg[0] == "done":
                self._solve_frames_received += 1
        return frames, broken

    def _gather(self, kind: str, workers) -> tuple[dict[int, tuple], list[int]]:
        """One current-epoch ``kind`` reply from each worker.

        Returns ``(replies, gone)``: error frames raise (:meth:`_check`);
        a worker whose channel broke, whose process died, or that stays
        silent past the reply-wait bound is listed in ``gone``.
        """
        replies: dict[int, tuple] = {}
        pending = set(workers)
        give_up = time.monotonic() + self._reply_wait_seconds()
        while pending:
            frames, broken = self._replies(pending, self._heartbeat())
            for w, msg in frames:
                # Control verbs go out at quiescent points, so a "done"
                # here is a late answer to an aborted round: dropped.
                if msg[0] != "done":
                    self._check(w, msg, kind)
                    replies[w] = msg
                    pending.discard(w)
            pending.difference_update(broken)
            if not frames:
                if time.monotonic() > give_up:
                    break
                pending = {w for w in pending if self._is_alive(w)}
        return replies, sorted(set(workers) - set(replies))

    def _collect(self, kind: str, workers) -> dict[int, tuple]:
        """:meth:`_gather`, for exchanges where a death is a failure."""
        replies, gone = self._gather(kind, workers)
        if gone:
            raise WorkerGone(gone[0], f"no {kind!r} reply")
        return replies

    def _settle(self, workers) -> list[int]:
        """Read into ``_early`` the solve reply each of ``workers`` owes.

        The channel invariant: called before any frame goes to a worker
        that may still owe a ``done``.  Each wait is bounded by the
        batch's deadline.  Returns the workers lost instead of
        answering (broken channel, dead process, or overdue); their
        batches stay on record in ``_owes``.
        """
        pending = [w for w in workers if w in self._owes]
        lost: list[int] = []
        while pending:
            frames, broken = self._replies(pending, self._heartbeat())
            self._early += frames
            now = time.monotonic()
            for w in pending:
                if w in self._owes and (
                    w in broken or now > self._owes[w][1] or not self._is_alive(w)
                ):
                    lost.append(w)
            pending = [w for w in pending if w in self._owes and w not in lost]
        return lost

    def _require_attached(self) -> None:
        if not self._attached:
            raise RuntimeError(f"{type(self).__name__} is not attached")

    def _local_copy(self, z) -> np.ndarray:
        """``z`` as a float array of the binding's shape.

        Checked here because only ``z[halo_l]`` travels: a worker can no
        longer notice a local copy of the wrong length.
        """
        z = np.asarray(z, dtype=float)
        if z.shape != self._b_shape:
            raise ValueError(
                f"local copy has shape {z.shape}, the binding's b has {self._b_shape}"
            )
        return z

    # -- binding ---------------------------------------------------------
    def _spec_bytes(self, owned: list[int]) -> bytes:
        """The pickled spec for one owned set -- pickled exactly once.

        Cached by owned tuple for the binding's lifetime: recovery
        (respawn or adoption of the same block set) reuses the
        attach-time bytes instead of re-walking the matrices.
        """
        key = tuple(owned)
        payload = self._spec_cache.get(key)
        if payload is not None:
            self._spec_pickles_reused += 1
            return payload
        t0 = time.perf_counter()
        payload = pickle.dumps(
            owned_rows_spec(*self._spec_ctx, owned, self._use_cache), protocol=5
        )
        self._serialize_seconds += time.perf_counter() - t0
        self._spec_cache[key] = payload
        return payload

    def _post_spec(self, verb: str, w: int, owned: list[int]) -> int:
        """Ship one binding frame to worker ``w``; returns bytes shipped."""
        meta = {
            "trace": self._tracer is not None,
            "lane": f"worker-{w}",
            **self._meta(),
        }
        return self._post(w, (verb, self._epoch, meta, self._spec_bytes(owned)))

    def attach(
        self, A, b, sets, solver, *, cache=None, placement=None, fault_policy=None
    ) -> None:
        from repro.linalg.sparse import as_csr

        self.detach()
        csr = as_csr(A)
        b = np.asarray(b, dtype=float)
        L = len(sets)
        if L == 0:
            raise ValueError("at least one block required")
        self._check_placement(placement, L)
        if isinstance(solver, (list, tuple)):
            solvers = list(solver)
            if len(solvers) != L:
                raise ValueError(f"{len(solvers)} kernels for {L} blocks")
        else:
            solvers = [solver] * L
        sets_list = [np.asarray(rows, dtype=np.int64) for rows in sets]
        # An explicit plan names its worker slots and overrides the cap.
        want = (
            placement.nworkers
            if placement is not None
            else max(1, min(L, self._fleet_cap()))
        )
        # Corpses left by an earlier binding are dropped, not revived:
        # the binding takes the first ``want`` live ranks and spawns
        # only the shortfall, so a recovered fault leaves no idle spare.
        for w in [w for w in self._live if not self._is_alive(w)]:
            self._drop(w)
        if len(self._live) < want:
            self._add_workers(want - len(self._live))
        live = self._live[:want]
        if not live:
            raise RuntimeError(
                "no live workers to attach to (the whole fixed address "
                "set was lost); recreate the executor"
            )
        if placement is not None:
            if placement.nworkers > len(live):
                raise ValueError(
                    f"placement schedules {placement.nworkers} workers but "
                    f"only {len(live)} are connected (fixed address sets "
                    "cannot grow)"
                )
            # Plan slot i is served by the i-th live rank.
            self._slot_of = {w: i for i, w in enumerate(live)}
            owner = {l: live[int(placement.assignment[l])] for l in range(L)}
        else:
            self._slot_of = {}
            owner = {l: live[l % len(live)] for l in range(L)}
        self._owner = owner
        self._placement = placement
        self._use_cache = cache is not None
        self._policy = fault_policy
        self._fault = FaultStats()
        self._cache_retired = CacheStats()
        self._cache_last = {}
        self._membership_version += 1
        self._epoch += 1
        # Each A[J_l, :] is sliced once: the same band yields the block's
        # halo and, pickled, its share of the attach payload.
        bands = [csr[rows, :] for rows in sets_list]
        self._halo = [halo_columns(band, rows) for band, rows in zip(bands, sets_list)]
        self._spec_ctx = (bands, self._halo, b, sets_list, solvers)
        self._b_shape = b.shape
        self._spec_cache = {}
        self.attach_payload_bytes = {}
        self._reset_wire()
        active = sorted(set(owner.values()))
        self._bound_workers = set(active)
        self._open_binding(b.shape, sets_list)
        try:
            # Each active worker receives only its owned rows (and the
            # matching b entries): attach traffic is ~one matrix across
            # all workers instead of one full copy per worker.
            posted: list[int] = []
            gone: list[int] = []
            for w in active:
                owned = [l for l in range(L) if owner[l] == w]
                try:
                    self.attach_payload_bytes[w] = self._post_spec("attach", w, owned)
                    posted.append(w)
                except WorkerGone:
                    gone.append(w)
            gone += self._gather("attached", posted)[1]
            if gone:
                # Transactional attach: without a policy a worker death
                # fails fast (there is no half-bound binding the caller
                # could use; the corpse is dropped so the *next* attach
                # replaces it); with one, its blocks are re-homed
                # through the same recovery a mid-solve death takes.
                if fault_policy is None:
                    for w in gone:
                        self._drop(w)
                    raise RuntimeError(
                        f"runtime workers {sorted(gone)} died during attach"
                    )
                self._recover(sorted(gone))
        except BaseException:
            # Aborted binding: reclaim the transport resources; workers
            # release their stale state on their next attach, and any
            # straggler replies are filtered out by the epoch check.
            self._unbind()
            raise
        self._block_seconds = {l: 0.0 for l in range(L)}
        self._attached = True

    def detach(self) -> None:
        if not self._attached:
            return
        # A fresh epoch for the detach round: if a solve aborted on a
        # worker error, the survivors' same-epoch "done" replies are
        # still queued -- bumping the epoch makes the straggler filter
        # drop them instead of tripping the detached-reply check (which
        # would mask the original error).
        self._epoch += 1
        bound = [w for w in self.alive_workers() if w in self._bound_workers]
        try:
            self._collect_trace(bound)
            # Best-effort per worker: detach runs in drivers' finally
            # blocks, so a *dead peer* must not raise here and replace
            # the informative original failure.  Only deaths are
            # swallowed: a worker-reported error frame or a protocol
            # violation is a real bug and propagates.
            posted = []
            for w in bound:
                try:
                    self._post(w, ("detach", self._epoch))
                    posted.append(w)
                except WorkerGone:
                    continue
            self._gather("detached", posted)
        finally:
            self._unbind()

    def _collect_trace(self, workers: list[int]) -> None:
        """Pull worker-recorded spans onto the driver timeline.

        Runs at detach (after the epoch bump, before the detach verbs)
        so every worker's whole binding history arrives in one batch.
        The request/reply round trip doubles as the clock sample: the
        worker stamps its reply with its own perf_counter, and
        Cristian's midpoint estimate over the driver's send/receive
        instants yields the offset that maps the batch onto the driver
        clock.  Best-effort by design -- a dead or wedged worker loses
        its spans, never the detach.
        """
        tracer = self._tracer
        if tracer is None:
            return
        for w in workers:
            t_send = tracer.now()
            try:
                self._post(w, ("trace", self._epoch))
            except WorkerGone:
                continue
            reply = self._gather("trace", [w])[0].get(w)
            if reply is not None:
                offset = estimate_clock_offset(t_send, reply[3], tracer.now())
                tracer.ingest(reply[2], clock_offset=offset)

    @property
    def nblocks(self) -> int:
        return len(self._owner) if self._attached else 0

    # -- elastic membership ----------------------------------------------
    def membership_version(self) -> int:
        """Monotone counter bumped whenever fleet membership changes.

        Attach, grow, shrink, and mid-solve recovery (a worker lost and
        its blocks re-homed) each bump it, so an elastic re-planning
        loop detects "the fleet changed since I last planned" with one
        integer compare per round.
        """
        return self._membership_version

    def owner_map(self) -> dict:
        """The live block-to-worker assignment (block -> worker rank).

        The plan the elastic re-planner diffs a fresh assignment
        against.  A copy: mutating it changes nothing.
        """
        return dict(self._owner)

    def grow(self, workers=1) -> list[int]:
        """Add workers to the live fleet; returns their new ranks.

        ``workers`` is an int count of backend-owned workers to spawn,
        or (socket fleets) a list of ``(host, port)`` addresses of
        externally started workers.  New workers join idle at brand-new
        ranks; route blocks onto them with :meth:`migrate`.
        """
        self._require_attached()
        if isinstance(workers, int) and workers <= 0:
            return []
        added = self._add_workers(workers)
        if not added:
            if isinstance(workers, int):
                raise ValueError(
                    "a fixed address set cannot grow by count; pass the "
                    "new workers' (host, port) addresses"
                )
            return []
        self._fault.grow_events += 1
        self._membership_version += 1
        if self._tracer is not None:
            self._tracer.event(
                "elastic.grow", cat="elastic", lane="driver",
                workers=list(added),
            )
        return added

    def shrink(self, workers) -> list[int]:
        """Gracefully retire live workers, re-homing their blocks first.

        ``workers`` is an explicit list of ranks or an int count (the
        highest-ranked live workers are chosen).  Retirement is
        scheduling, not fault: the retirees' cache counters are banked
        before they go (``run_cache_stats`` stays monotonic), their
        blocks migrate to the deterministic least-loaded survivors via
        ``adopt``, and only then is each retiree let go.  Must be
        called at a quiescent round boundary (no solves in flight).
        Returns the ranks actually retired.
        """
        self._require_attached()
        alive = self.alive_workers()
        if isinstance(workers, int):
            victims = alive[-workers:] if workers > 0 else []
        else:
            wanted = {int(w) for w in workers}
            victims = [w for w in alive if w in wanted]
        if not victims:
            return []
        survivors = [w for w in alive if w not in victims]
        if not survivors:
            raise ValueError("shrink would retire the whole fleet")
        if self._use_cache:
            polled = [w for w in victims if w in self._bound_workers]
            for w in polled:
                self._post(w, ("stats", self._epoch))
            for w, msg in self._collect("stats", polled).items():
                self._cache_retired.merge_in(msg[2])
                self._cache_last.pop(w, None)
        orphans = sorted(l for l, w in self._owner.items() if w in victims)
        self._dispatch_migration(
            reassign_orphans(orphans, self._owner, survivors)
        )
        for w in victims:
            # Dropped from liveness only; the fault counters are
            # untouched (this is not a failure).
            self._live.remove(w)
            self._bound_workers.discard(w)
            self._retire(w)
        self._fault.shrink_events += 1
        self._membership_version += 1
        if self._tracer is not None:
            self._tracer.event(
                "elastic.shrink", cat="elastic", lane="driver",
                workers=list(victims), blocks=len(orphans),
            )
        return victims

    def migrate(self, assignment: dict) -> int:
        """Re-home blocks per ``assignment`` (block -> live worker rank).

        Only entries that move an existing block to a *different* live
        worker are shipped; each adopter re-factors its new blocks
        through its local cache via ``adopt``.  Returns the number of
        blocks moved.
        """
        self._require_attached()
        alive = set(self.alive_workers())
        moved: dict[int, int] = {}
        for l, w in assignment.items():
            l, w = int(l), int(w)
            if l not in self._owner:
                raise KeyError(f"unknown block {l}")
            if w not in alive:
                raise ValueError(f"migration target {w} is not a live worker")
            moved[l] = w
        return self._dispatch_migration(moved)

    def _adopt(self, new_owner: dict[int, int]) -> float:
        """Ship ``adopt`` frames for ``new_owner`` and wait for the acks.

        Returns the adopters' summed re-factor seconds.  The refactor
        may legitimately exceed a tight solve deadline, so it runs
        under the long control-verb timeout like every ``_post``.
        """
        by_adopter: dict[int, list[int]] = {}
        for l, w in sorted(new_owner.items()):
            by_adopter.setdefault(w, []).append(l)
        lost = self._settle(by_adopter)
        if lost:
            raise WorkerGone(lost[0], "no 'done' reply before its adoption")
        for w, owned in sorted(by_adopter.items()):
            self._post_spec("adopt", w, owned)
        replies = self._collect("adopted", sorted(by_adopter))
        self._owner.update(new_owner)
        self._bound_workers.update(by_adopter)
        return sum(msg[2] for msg in replies.values())

    def _dispatch_migration(self, new_owner: dict[int, int]) -> int:
        """A planned (non-fault) re-homing of the blocks that move.

        The elastic counterpart of :meth:`_recover`: same verb, same
        owned-rows spec bytes, but billed to the migration counters
        (``blocks_migrated`` / ``migration_seconds``) instead of the
        fault ones -- nothing was lost, the next dispatch simply lands
        elsewhere.
        """
        moved = {
            l: w for l, w in new_owner.items() if self._owner.get(l) != w
        }
        if not moved:
            return 0
        self._fault.migration_seconds += self._adopt(moved)
        self._fault.blocks_migrated += len(moved)
        if self._tracer is not None:
            self._tracer.event(
                "elastic.migrate", cat="elastic", lane="driver",
                blocks=len(moved), adopters=sorted(set(moved.values())),
            )
        return len(moved)

    # -- recovery --------------------------------------------------------
    def _drop(self, w: int) -> None:
        """Reap worker ``w`` and strike it from the fleet (no accounting)."""
        self._reap(w)
        self._live.remove(w)
        self._bound_workers.discard(w)

    def _candidates(self, dead_rank: int, live: list[int]) -> list[int]:
        """Candidate adopters, re-derived from the placement plan.

        With a plan, survivors in the dead worker's co-location group
        are preferred (the orphan's exchanges stay on the cheap local
        links); the shared least-loaded/lowest-rank rule then picks
        within them.
        """
        plan, slot_of = self._placement, self._slot_of
        if plan is not None and dead_rank in slot_of:
            group = plan.workers[slot_of[dead_rank]].group
            same = [
                r for r in live
                if r in slot_of and plan.workers[slot_of[r]].group == group
            ]
            if same:
                return same
        return live

    def _recover(self, dead: list[int]) -> None:
        """Account the lost workers and re-home their blocks.

        The one recovery path, shared by mid-attach and mid-solve
        losses on every transport: reap the corpses, enforce the
        policy's loss budget, pick new owners (respawned replacements
        under ``respawn=True`` when the fleet can spawn, else the
        deterministic least-loaded survivors, same co-location group
        first), and have the adopters re-factor the orphaned blocks
        through their caches.  Returns once every block has a live,
        bound owner; re-dispatching the lost round is the data plane's.
        """
        policy, tracer = self._policy, self._tracer
        dead = [w for w in dead if w in self._live]
        for w in dead:
            self._drop(w)
            self._fault.workers_lost += 1
            # A dead worker can no longer answer a stats poll: bank its
            # last-polled cache delta so the aggregate stays monotonic.
            self._cache_retired.merge_in(self._cache_last.pop(w, None))
            if tracer is not None:
                tracer.event("worker.lost", cat="fault", lane="driver", worker=w)
        self._membership_version += 1
        if (
            policy.max_worker_losses is not None
            and self._fault.workers_lost > policy.max_worker_losses
        ):
            raise RuntimeError(
                f"fault policy exhausted: {self._fault.workers_lost} workers "
                f"lost (max {policy.max_worker_losses})"
            )
        orphans = sorted(l for l, w in self._owner.items() if w in dead)
        fresh = self._add_workers(len(dead)) if policy.respawn else []
        if fresh:
            replacement = dict(zip(dead, fresh))
            self._fault.respawns += len(fresh)
            if tracer is not None:
                for old, new in replacement.items():
                    tracer.event(
                        "respawn", cat="fault", lane="driver",
                        worker=new, replaces=old,
                    )
            new_owner = {l: replacement[self._owner[l]] for l in orphans}
        else:
            live = list(self._live)
            new_owner = reassign_orphans(
                orphans, self._owner, live,
                candidates_for=lambda l: self._candidates(self._owner[l], live),
            )
        self._fault.blocks_requeued += len(orphans)
        self._fault.refactor_seconds += self._adopt(new_owner)

    # -- data plane ------------------------------------------------------
    def _post_batches(self, blocks, z_of: dict) -> list[int]:
        """Post one solve frame per owning worker, from this thread.

        Returns the workers lost on the way: their channel refused the
        frame, or they were lost while the reply they still owed was
        read first (:meth:`_settle`).  Their batches go on record in
        ``_owes`` all the same, so the sweep re-homes them.
        """
        batches: dict[int, list[int]] = {}
        for l in blocks:
            batches.setdefault(self._owner[l], []).append(l)
        lost = self._settle(batches) if self._owes else []
        for w, batch in batches.items():
            if w not in lost:
                if self._send_solve(w, [(l, z_of[l]) for l in batch]):
                    self._solve_frames_sent += 1
                else:
                    lost.append(w)
            self._owes[w] = (tuple(batch), self._due(len(batch)))
        return lost

    def solve_blocks(
        self, tasks: Sequence[tuple[int, np.ndarray]]
    ) -> list[np.ndarray]:
        self._require_attached()
        # Checked before anything is sent: a bad copy must not leave a
        # batch half posted.
        z_of = {l: self._local_copy(z) for l, z in tasks}
        if len(z_of) != len(tasks):
            raise ValueError("duplicate block in one solve_blocks call")
        tracer = self._tracer
        sent0 = self._vector_bytes_sent
        recv0 = self._vector_bytes_received
        pieces: dict[int, np.ndarray] = {}
        try:
            lost = set(self._post_batches(list(z_of), z_of))
            # Replies read while posting answered an aborted round.
            self._early = []
            if tracer is not None:
                tracer.event(
                    "wire.send", cat="wire", lane="driver",
                    bytes=int(self._vector_bytes_sent - sent0), blocks=len(tasks),
                )
                t_wait = tracer.now()
            while True:
                if self._early:
                    frames, self._early = self._early, []
                else:
                    frames, broken = self._replies(list(self._owes), self._heartbeat())
                    lost.update(broken)
                for w, msg in frames:
                    self._check(w, msg, "done")
                    for l, dt, piece in zip(msg[2], msg[3], msg[4]):
                        if l in z_of and l not in pieces:
                            pieces[l] = piece
                            self._block_seconds[l] += dt
                if len(pieces) == len(z_of):
                    break
                # The liveness sweep runs every iteration, replies or
                # not: each batch keeps the deadline of its own post, so
                # one chatty worker's steady replies cannot postpone a
                # hung peer's (the interleaving explorer's
                # requeue-vs-reply model is the spec for what recovery
                # may do with the late reply).
                now = time.monotonic()
                lost.update(w for w in self._live if not self._is_alive(w))
                lost.update(w for w, (_, due) in self._owes.items() if now > due)
                if not lost:
                    continue
                if self._policy is None:
                    raise RuntimeError(
                        f"runtime workers died mid-solve: {sorted(lost)} "
                        "(attach with a FaultPolicy to recover)"
                    )
                # Whatever the lost workers still owed goes to the blocks'
                # new owners, whole; a block solve is a pure function of
                # (block, z), so the retried solves are bit-identical.
                orphans = [l for w in lost for l in self._owes.pop(w, ((), 0.0))[0]]
                self._recover(sorted(lost))
                lost = set(self._post_batches(sorted(orphans), z_of))
                # Fresh deadlines: recovery itself (respawn + adopt acks)
                # takes wall time no worker should be billed for.
                self._owes = {
                    w: (batch, self._due(len(batch)))
                    for w, (batch, _) in self._owes.items()
                }
        except RuntimeError:
            # Hear out the other batches before raising, so that no reply
            # of this round is left for the next one to take as its own.
            self._settle(list(self._owes))
            self._early = []
            raise
        if tracer is not None:
            tracer.add(
                "barrier.wait", "wait", t_wait, tracer.now() - t_wait,
                lane="driver", tasks=len(tasks),
            )
            tracer.event(
                "wire.recv", cat="wire", lane="driver",
                bytes=int(self._vector_bytes_received - recv0), blocks=len(tasks),
            )
        return [pieces[l] for l in z_of]

    # -- observability ---------------------------------------------------
    def map(self, fn: Callable, items: Iterable) -> list:
        # Workers speak a fixed verb set, not closures; setup-phase maps
        # run inline (the per-binding factorization already happens
        # worker-side, in parallel, during attach).
        return [fn(item) for item in items]

    def block_seconds(self) -> dict[int, float]:
        return dict(self._block_seconds)

    def fault_stats(self) -> FaultStats:
        return self._fault.snapshot()

    def wire_stats(self) -> dict:
        return {
            "attach_payload_bytes": dict(self.attach_payload_bytes),
            "vector_bytes_sent": int(self._vector_bytes_sent),
            "vector_bytes_received": int(self._vector_bytes_received),
            # Solve batches out and "done" replies in: one each per
            # active worker per barrier round.
            "solve_frames_sent": int(self._solve_frames_sent),
            "solve_frames_received": int(self._solve_frames_received),
            "serialize_seconds": float(self._serialize_seconds),
            "transmit_seconds": float(self._transmit_seconds),
            # Vector bytes the receiver consumed in place (a plane
            # view, an out-of-band buffer) instead of through a
            # serialization copy.
            "copies_avoided": int(self._copies_avoided),
            "spec_pickles_reused": int(self._spec_pickles_reused),
        }

    def run_cache_stats(self) -> CacheStats | None:
        if not self._attached or not self._use_cache:
            return None
        # Only workers bound this epoch hold current-epoch counters --
        # and a bound worker stays polled even after migration empties
        # it, so its hits never vanish from the aggregate.
        polled = [w for w in self.alive_workers() if w in self._bound_workers]
        for w in polled:
            self._post(w, ("stats", self._epoch))
        # Start from the counters banked from retired/dead workers, then
        # add each live worker's cumulative per-binding delta -- respawn,
        # grow, and shrink can never move the aggregate backwards.
        merged = self._cache_retired.snapshot()
        for w, msg in self._collect("stats", polled).items():
            merged.merge_in(msg[2])
            if msg[2] is not None:
                self._cache_last[w] = msg[2]
        return merged
