"""Unit tests of the fault-tolerance subsystem (repro.runtime.resilience).

The conformance suite (tests/test_runtime_conformance.py) proves the
backends behave identically under one injected schedule; this file
drills into the machinery itself: direct worker kills without the chaos
wrapper, deadline-based hung-worker recovery, respawn, loss budgets, the
injector's determinism, the flaky/straggler kernels, the socket
backend's band-rows-only attach payloads, the calibrate satellite's
outlier guard, and the chaos wrapper's refusal of crash and churn where
there are no workers.
"""

from __future__ import annotations

import pickle
import time

import numpy as np
import pytest

from repro.core import make_weighting, multisplitting_iterate, uniform_bands
from repro.core.stopping import StoppingCriterion
from repro.direct import get_solver
from repro.direct.base import DirectSolver
from repro.linalg.sparse import as_csr
from repro.matrices import diagonally_dominant, rhs_for_solution
from repro.runtime import (
    ChaosExecutor,
    CrashOnceSolver,
    FaultInjector,
    FaultPolicy,
    FaultStats,
    FlakySolver,
    InlineExecutor,
    ProcessExecutor,
    SocketExecutor,
    StallOnceSolver,
    StragglerSolver,
    ThreadExecutor,
)
from repro.schedule import Placement, WorkerSlot, measure_worker_speeds

pytestmark = pytest.mark.filterwarnings(
    # A SIGKILLed worker cannot close its shared-memory handles; the
    # resource tracker's shutdown sweep reclaims them and warns.
    "ignore:resource_tracker:UserWarning"
)

_POLICY = FaultPolicy(heartbeat_interval=0.1)


def _problem(n=96, L=4, seed=5):
    A = diagonally_dominant(n, dominance=1.5, bandwidth=4, seed=seed)
    b, _ = rhs_for_solution(A, seed=seed + 1)
    part = uniform_bands(n, L).to_general()
    scheme = make_weighting("ownership", part)
    return A, b, part, scheme


def _reference(A, b, part, scheme, iters=6):
    stopping = StoppingCriterion(tolerance=1e-300, max_iterations=iters)
    return multisplitting_iterate(
        A, b, part, scheme, get_solver("scipy"), stopping=stopping
    )


def _serve_entry(port_q, crash_after):
    """Spawn target for external-fleet tests (module-level: picklable)."""
    from repro.runtime.sockets import serve_worker

    serve_worker(0, "127.0.0.1", on_bound=port_q.put, crash_after=crash_after)


class TestPolicyAndStats:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            FaultPolicy(deadline=0.0)
        with pytest.raises(ValueError):
            FaultPolicy(heartbeat_interval=-1.0)
        with pytest.raises(ValueError):
            FaultPolicy(max_worker_losses=-1)

    def test_stats_merge_and_snapshot(self):
        a = FaultStats(workers_lost=1, blocks_requeued=2, refactor_seconds=0.5)
        b = a.snapshot()
        b.merge_in(FaultStats(workers_lost=2, replies_dropped=3))
        assert (b.workers_lost, b.blocks_requeued, b.replies_dropped) == (3, 2, 3)
        assert a.workers_lost == 1  # snapshot is independent
        b.merge_in(None)  # tolerated, like CacheStats
        assert b.workers_lost == 3
        assert b.any_faults and not FaultStats().any_faults

    def test_injector_determinism_and_guards(self):
        inj = FaultInjector(seed=4, crash_rounds=(2,), drop_rate=0.5, max_crashes=1)
        seq1 = [inj.events_for(r, [0, 1, 2], [0, 1, 2, 3]) for r in range(1, 8)]
        inj.reset()
        seq2 = [inj.events_for(r, [0, 1, 2], [0, 1, 2, 3]) for r in range(1, 8)]
        assert seq1 == seq2
        assert inj.crashes_injected() == 1
        # Never schedules a crash against the last live worker.
        inj2 = FaultInjector(seed=0, crash_rounds=(1,))
        assert inj2.events_for(1, [0], [0, 1]) == []
        with pytest.raises(ValueError):
            FaultInjector(crash_rate=1.5)


class TestProcessRecovery:
    """Direct kills against ProcessExecutor, no chaos wrapper involved."""

    def test_requeue_after_direct_kill(self):
        A, b, part, scheme = _problem()
        ref = _reference(A, b, part, scheme)
        ex = ProcessExecutor(max_workers=2)
        try:
            ex.attach(A, b, part.sets, get_solver("scipy"), fault_policy=_POLICY)
            z = np.zeros(b.shape)
            first = ex.solve_round([z] * part.nprocs)
            assert ex.kill_worker(0)
            second = ex.solve_round([z] * part.nprocs)  # recovers mid-call
            for x, y in zip(first, second):
                np.testing.assert_array_equal(x, y)
            fault = ex.fault_stats()
            assert fault.workers_lost == 1
            assert fault.blocks_requeued == 2
            assert fault.refactor_seconds > 0.0
            assert ex.alive_workers() == [1]
        finally:
            ex.close()
        # The executor-driven run still matches the serial reference.
        ex2 = ProcessExecutor(max_workers=2)
        try:
            res = multisplitting_iterate(
                A, b, part, scheme, get_solver("scipy"),
                stopping=StoppingCriterion(tolerance=1e-300, max_iterations=6),
                executor=ex2, fault_policy=_POLICY,
            )
            np.testing.assert_array_equal(res.x, ref.x)
        finally:
            ex2.close()

    def test_broken_ticket_pipe_is_a_dead_worker(self):
        """Tickets travel on a pipe, and a pipe whose reader was
        SIGKILLed *refuses* the write (a queue buffered it).  On the
        solve path the refusal is swallowed and the liveness sweep that
        follows finds the corpse: same recovery, same counters."""
        import os
        import signal

        A, b, part, _ = _problem()
        ex = ProcessExecutor(max_workers=2)
        try:
            ex.attach(A, b, part.sets, get_solver("scipy"), fault_policy=_POLICY)
            z = np.zeros(b.shape)
            first = ex.solve_round([z] * part.nprocs)
            os.kill(ex._procs[1].pid, signal.SIGKILL)
            ex._procs[1].join(timeout=10.0)
            assert not ex._procs[1].is_alive()
            with pytest.raises(OSError):
                ex._tickets[1].send(("stats", -1))
            second = ex.solve_round([z] * part.nprocs)
            for x, y in zip(first, second):
                np.testing.assert_array_equal(x, y)
            fault = ex.fault_stats()
            assert (fault.workers_lost, fault.blocks_requeued) == (1, 2)
            assert ex.alive_workers() == [0]
        finally:
            ex.close()

    def test_stuck_binding_pipe_fails_the_attach_not_the_driver(self, monkeypatch):
        """A worker that stopped reading (SIGSTOP) blocks a pipe write
        once the frame outgrows the pipe's buffer.  Binding frames are
        written under the reply-wait bound: on expiry the worker is
        declared gone and the attach transaction re-homes its blocks."""
        import os
        import signal

        import repro.runtime.fleet as fleet

        monkeypatch.setattr(fleet, "_REPLY_TIMEOUT", 2.0)
        small_A, small_b, small_part, _ = _problem()
        n = 40000
        A = diagonally_dominant(n, dominance=1.5, bandwidth=6, seed=2)
        b = np.ones(n)
        part = uniform_bands(n, 2).to_general()
        z = np.zeros(n)
        with InlineExecutor() as inline:
            inline.attach(A, b, part.sets, get_solver("scipy"))
            ref = inline.solve_round([z] * 2)
        ex = ProcessExecutor(max_workers=2)
        try:
            ex.attach(small_A, small_b, small_part.sets, get_solver("scipy"))
            ex.detach()  # both workers are up and idle
            os.kill(ex._procs[1].pid, signal.SIGSTOP)
            t0 = time.monotonic()
            ex.attach(A, b, part.sets, get_solver("scipy"), fault_policy=_POLICY)
            elapsed = time.monotonic() - t0
            # far more than any pipe buffers, so the write did block
            assert ex.attach_payload_bytes[0] > 1 << 20
            assert 2.0 <= elapsed < 20.0
            fault = ex.fault_stats()
            assert (fault.workers_lost, fault.blocks_requeued) == (1, 1)
            assert ex.alive_workers() == [0]
            for x, y in zip(ex.solve_round([z] * 2), ref):
                np.testing.assert_array_equal(x, y)
        finally:
            ex.close()

    def test_dead_worker_without_policy_still_raises(self):
        A, b, part, _ = _problem()
        ex = ProcessExecutor(max_workers=2)
        try:
            ex.attach(A, b, part.sets, get_solver("scipy"))
            ex.kill_worker(0)
            with pytest.raises(RuntimeError, match="died"):
                ex.solve_round([np.zeros(b.shape)] * part.nprocs)
        finally:
            ex.close()

    def test_reattach_revives_dead_ranks(self):
        """A fresh attach replaces corpses left by an earlier binding."""
        A, b, part, _ = _problem()
        ex = ProcessExecutor(max_workers=2)
        try:
            ex.attach(A, b, part.sets, get_solver("scipy"), fault_policy=_POLICY)
            ex.kill_worker(1)
            ex.detach()
            ex.attach(A, b, part.sets, get_solver("scipy"))
            pieces = ex.solve_round([np.zeros(b.shape)] * part.nprocs)
            assert len(pieces) == part.nprocs
        finally:
            ex.close()

    def test_recovered_faults_leak_no_idle_workers(self):
        """Re-attach binds the first W *live* ranks and spawns only the
        shortfall: a respawned replacement is the next binding's
        worker, not an idle spare beside a revived low rank."""
        import multiprocessing

        A, b, part, _ = _problem()
        ours = set(multiprocessing.active_children())
        ex = ProcessExecutor(max_workers=2)
        policy = FaultPolicy(heartbeat_interval=0.1, respawn=True)
        z = [np.zeros(b.shape)] * part.nprocs
        try:
            for _ in range(3):  # kill -> recover -> detach
                ex.attach(A, b, part.sets, get_solver("scipy"), fault_policy=policy)
                assert ex.kill_worker(ex.alive_workers()[0])
                ex.solve_round(z)
                ex.detach()
            ex.attach(A, b, part.sets, get_solver("scipy"))
            assert len(ex.solve_round(z)) == part.nprocs
            assert len(set(multiprocessing.active_children()) - ours) == 2
            assert len(ex.alive_workers()) == 2
        finally:
            ex.close()

    def test_max_worker_losses_budget(self):
        A, b, part, _ = _problem()
        ex = ProcessExecutor(max_workers=2)
        try:
            ex.attach(
                A, b, part.sets, get_solver("scipy"),
                fault_policy=FaultPolicy(
                    heartbeat_interval=0.1, max_worker_losses=0
                ),
            )
            ex.kill_worker(0)
            with pytest.raises(RuntimeError, match="fault policy exhausted"):
                ex.solve_round([np.zeros(b.shape)] * part.nprocs)
        finally:
            ex.close()

    def test_deadline_reaps_hung_worker(self):
        """A live-but-stalled worker breaches the deadline and is
        replaced; the round still completes with correct values."""
        A, b, part, scheme = _problem()
        ref = _reference(A, b, part, scheme, iters=2)
        # Only block 0's kernel straggles, and only on its second solve
        # (i.e. round 2 on its original owner): one worker hangs 30 s
        # mid-round while the other finishes normally.
        kernels = [
            StragglerSolver(get_solver("scipy"), seconds=30.0, slow_calls=(2,)),
            get_solver("scipy"),
            get_solver("scipy"),
            get_solver("scipy"),
        ]
        ex = ProcessExecutor(max_workers=2)
        try:
            t0 = time.monotonic()
            res = multisplitting_iterate(
                A, b, part, scheme, kernels,
                stopping=StoppingCriterion(tolerance=1e-300, max_iterations=2),
                executor=ex,
                fault_policy=FaultPolicy(heartbeat_interval=0.1, deadline=1.0),
            )
            elapsed = time.monotonic() - t0
            np.testing.assert_array_equal(res.x, ref.x)
            assert res.fault_stats.workers_lost >= 1
            assert elapsed < 25.0  # nowhere near the 30 s stall
        finally:
            ex.close()


class TestPerBlockDeadline:
    """The chatty-worker masking bug (found by the interleaving
    explorer's recovery model, fixed in this PR): the deadline sweep
    used to run only when a reply poll came back *empty*, so one worker
    streaming replies faster than the heartbeat postponed hung-peer
    detection until its own queue drained.  The fix keys each
    outstanding block to its worker's last proof of life (dispatch or
    that worker's latest reply), checked every iteration."""

    @pytest.mark.parametrize("backend", ["processes", "sockets"])
    def test_chatty_worker_cannot_mask_hung_peer(self, tmp_path, backend):
        import threading

        n, L = 84, 21
        A = diagonally_dominant(n, dominance=1.5, bandwidth=3, seed=7)
        b, _ = rhs_for_solution(A, seed=8)
        part = uniform_bands(n, L).to_general()
        # Block 0 alone on worker 0, hung far past the deadline; the 20
        # chatty blocks on worker 1 each reply every ~0.15 s -- faster
        # than the 0.2 s heartbeat, so the old code's reply polls never
        # came back empty (and its deadline check never ran) until the
        # chatty queue drained at ~3 s.
        plan = Placement(
            strategy="test",
            n=n,
            workers=(WorkerSlot(name="hung"), WorkerSlot(name="chatty")),
            sizes=(4,) * L,
            assignment=(0,) + (1,) * (L - 1),
        )
        kernels = [
            StallOnceSolver(
                get_solver("scipy"), tmp_path / "hang.sentinel", seconds=30.0
            )
        ] + [
            StragglerSolver(get_solver("scipy"), seconds=0.15, slow_calls=(1,))
            for _ in range(L - 1)
        ]
        ex = _fleet(backend)
        try:
            ex.attach(
                A, b, part.sets, kernels,
                placement=plan,
                fault_policy=FaultPolicy(heartbeat_interval=0.2, deadline=0.6),
            )
            z = np.zeros(b.shape)
            result: dict = {}

            def _round():
                result["pieces"] = ex.solve_round([z] * L)

            t = threading.Thread(target=_round, daemon=True)
            t0 = time.monotonic()
            t.start()
            # The regression observable: the hung worker must be
            # declared lost at ~deadline (0.6 s), well before the
            # chatty stream runs dry.  Pre-fix code stays at 0 here.
            detected_at = None
            while time.monotonic() - t0 < 2.0:
                if ex.fault_stats().workers_lost >= 1:
                    detected_at = time.monotonic() - t0
                    break
                time.sleep(0.05)
            t.join(timeout=60.0)
            assert not t.is_alive()
            assert detected_at is not None, (
                "hung worker not detected while its peer streamed replies"
            )
            # The chatty worker survived its deep-but-live queue: its
            # replies refreshed its own blocks' clocks, so only the
            # silent worker breached.
            assert ex.fault_stats().workers_lost == 1
            assert 1 in ex.alive_workers()
            # And the recovered round is still bit-identical.
            inline = InlineExecutor()
            inline.attach(A, b, part.sets, get_solver("scipy"))
            ref = inline.solve_round([z] * L)
            for x, y in zip(result["pieces"], ref):
                np.testing.assert_array_equal(x, y)
        finally:
            ex.close()


def _fleet(backend):
    if backend == "processes":
        return ProcessExecutor(max_workers=2)
    return SocketExecutor(workers=2)


def _three_and_one(n):
    """Blocks 0-2 on worker 0, block 3 on worker 1."""
    return Placement(
        strategy="test",
        n=n,
        workers=(WorkerSlot(name="deep"), WorkerSlot(name="shallow")),
        sizes=(n // 4,) * 4,
        assignment=(0, 0, 0, 1),
    )


@pytest.mark.parametrize("backend", ["processes", "sockets"])
class TestBatchFaultSemantics:
    """A fleet round is one frame out and one reply back per worker, so
    a reply proves life once per *batch*: a worker owing ``m`` blocks is
    overdue after ``m x deadline``, a worker lost mid-batch has the
    whole batch re-dispatched, and a kernel error inside a batch is
    still the caller's error, never a worker loss."""

    def test_deep_batch_within_m_deadlines_is_not_a_hang(self, backend):
        A, b, part, _ = _problem()
        deadline = 0.5
        # Every block's first solve takes 0.8 x deadline: worker 0's
        # three-block batch answers after 2.4 x deadline -- late for one
        # block, in time for three.
        kernels = [
            StragglerSolver(
                get_solver("scipy"), seconds=0.8 * deadline, slow_calls=(1,)
            )
            for _ in range(4)
        ]
        z = np.zeros(b.shape)
        with InlineExecutor() as inline:
            inline.attach(A, b, part.sets, get_solver("scipy"))
            ref = inline.solve_round([z] * 4)
        ex = _fleet(backend)
        try:
            ex.attach(
                A, b, part.sets, kernels,
                placement=_three_and_one(A.shape[0]),
                fault_policy=FaultPolicy(heartbeat_interval=0.1, deadline=deadline),
            )
            t0 = time.monotonic()
            pieces = ex.solve_round([z] * 4)
            assert time.monotonic() - t0 > 2.0 * deadline  # it really was deep
            assert ex.fault_stats().workers_lost == 0
            assert ex.alive_workers() == [0, 1]
            for x, y in zip(pieces, ref):
                np.testing.assert_array_equal(x, y)
        finally:
            ex.close()

    def test_death_mid_batch_redispatches_the_whole_batch(self, backend):
        import threading

        A, b, part, _ = _problem()
        # Worker 0 owns blocks 0-2; block 1 stalls on its second solve,
        # so in round 2 the kill lands after block 0 was solved and
        # before the batch's single reply.
        kernels = [get_solver("scipy")] * 4
        kernels[1] = StragglerSolver(get_solver("scipy"), seconds=5.0, slow_calls=(2,))
        z = np.linspace(0.0, 1.0, b.shape[0])
        with InlineExecutor() as inline:
            inline.attach(A, b, part.sets, get_solver("scipy"))
            ref = inline.solve_round([z] * 4)
        ex = _fleet(backend)
        try:
            ex.attach(
                A, b, part.sets, kernels,
                placement=_three_and_one(A.shape[0]), fault_policy=_POLICY,
            )
            ex.solve_round([z] * 4)
            frames = ex.wire_stats()["solve_frames_sent"]
            killer = threading.Timer(0.4, ex.kill_worker, args=(0,))
            killer.start()
            try:
                t0 = time.monotonic()
                pieces = ex.solve_round([z] * 4)
                elapsed = time.monotonic() - t0
            finally:
                killer.cancel()
                killer.join(timeout=10.0)
            assert 0.4 <= elapsed < 4.0  # died mid-stall, did not sit it out
            fault = ex.fault_stats()
            assert fault.workers_lost == 1
            assert fault.blocks_requeued == 3  # the batch, whole
            assert ex.alive_workers() == [1]
            assert set(ex.owner_map().values()) == {1}
            # round 2 cost: one frame per worker, then the dead worker's
            # batch again as ONE frame to its new owner
            assert ex.wire_stats()["solve_frames_sent"] == frames + 3
            for x, y in zip(pieces, ref):
                np.testing.assert_array_equal(x, y)
        finally:
            ex.close()

    def test_kernel_error_mid_batch_is_not_a_worker_loss(self, backend):
        A, b, part, _ = _problem()
        # Block 1's kernel raises on its first solve: the second block
        # of worker 0's batch.
        kernels = [get_solver("scipy")] * 4
        kernels[1] = FlakySolver(get_solver("scipy"), fail_solves=(1,))
        z = np.zeros(b.shape)
        ex = _fleet(backend)
        try:
            ex.attach(
                A, b, part.sets, kernels,
                placement=_three_and_one(A.shape[0]),
                fault_policy=FaultPolicy(heartbeat_interval=0.1, deadline=5.0),
            )
            with pytest.raises(RuntimeError, match="InjectedFault"):
                ex.solve_round([z] * 4)
            fault = ex.fault_stats()
            assert fault.workers_lost == 0 and fault.blocks_requeued == 0
            assert ex.alive_workers() == [0, 1]
        finally:
            ex.close()


class TestSocketRecovery:
    def test_requeue_after_direct_kill(self):
        A, b, part, scheme = _problem()
        ex = SocketExecutor(workers=2)
        try:
            ex.attach(A, b, part.sets, get_solver("scipy"), fault_policy=_POLICY)
            z = np.zeros(b.shape)
            first = ex.solve_round([z] * part.nprocs)
            assert ex.kill_worker(1)
            second = ex.solve_round([z] * part.nprocs)
            for x, y in zip(first, second):
                np.testing.assert_array_equal(x, y)
            fault = ex.fault_stats()
            assert fault.workers_lost == 1
            assert fault.blocks_requeued == 2
            assert ex.alive_workers() == [0]
        finally:
            ex.close()

    def test_dead_worker_without_policy_still_raises(self):
        A, b, part, _ = _problem()
        ex = SocketExecutor(workers=2)
        try:
            ex.attach(A, b, part.sets, get_solver("scipy"))
            ex.kill_worker(0)
            with pytest.raises(RuntimeError, match="died"):
                ex.solve_round([np.zeros(b.shape)] * part.nprocs)
        finally:
            ex.close()

    @pytest.mark.parametrize("backend", ["processes", "sockets"])
    def test_group_aware_requeue_with_placement(self, backend):
        """Orphans re-derive their home from the plan: a same-site
        survivor is preferred over a less-loaded remote one -- the
        shared re-homing rule, so on every fleet backend."""
        A, b, part, scheme = _problem()
        plan = Placement(
            strategy="test",
            n=96,
            workers=(
                WorkerSlot(name="a0", group="siteA"),
                WorkerSlot(name="a1", group="siteA"),
                WorkerSlot(name="b0", group="siteB"),
            ),
            sizes=(24, 24, 24, 24),
            assignment=(0, 1, 2, 1),
        )
        ex = (
            ProcessExecutor(max_workers=3)
            if backend == "processes"
            else SocketExecutor(workers=3)
        )
        try:
            ex.attach(
                A, b, part.sets, get_solver("scipy"),
                placement=plan, fault_policy=_POLICY,
            )
            z = np.zeros(b.shape)
            ex.solve_round([z] * part.nprocs)
            assert ex.kill_worker(0)  # siteA worker with block 0
            ex.solve_round([z] * part.nprocs)
            # Block 0 must land on the other siteA worker (rank 1, two
            # blocks already) rather than on siteB's *less loaded* rank
            # 2 -- co-location beats load in the re-derived assignment.
            assert ex.owner_map()[0] == 1
        finally:
            ex.close()

    def test_external_fleet_crash_after_recovers(self):
        """A real remote-style fleet: one worker self-destructs after N
        block solves (the --crash-after chaos knob; N = 3 falls between
        the two blocks of its second batch) and the driver requeues the
        whole batch onto the surviving external worker."""
        import multiprocessing as mp

        ctx = mp.get_context()
        port_q = ctx.Queue()
        flaky = ctx.Process(
            target=_serve_entry, args=(port_q, 3), daemon=True
        )
        solid = ctx.Process(
            target=_serve_entry, args=(port_q, None), daemon=True
        )
        flaky.start()
        solid.start()
        try:
            ports = sorted([port_q.get(timeout=20.0), port_q.get(timeout=20.0)])
            A, b, part, scheme = _problem()
            ref = _reference(A, b, part, scheme)
            ex = SocketExecutor(addresses=[("127.0.0.1", p) for p in ports])
            try:
                res = multisplitting_iterate(
                    A, b, part, scheme, get_solver("scipy"),
                    stopping=StoppingCriterion(tolerance=1e-300, max_iterations=6),
                    executor=ex, fault_policy=_POLICY,
                )
                np.testing.assert_array_equal(res.x, ref.x)
                assert res.fault_stats.workers_lost == 1
                assert res.fault_stats.blocks_requeued == 2
            finally:
                ex.close()
        finally:
            for proc in (flaky, solid):
                proc.kill()
                proc.join(timeout=10.0)


class TestBandRowShipping:
    """Satellite: attach ships only each worker's owned band rows."""

    def test_attach_payload_shrinks_w_fold(self):
        n, L = 600, 4
        A = diagonally_dominant(n, dominance=1.5, bandwidth=8, seed=3)
        b, _ = rhs_for_solution(A, seed=4)
        part = uniform_bands(n, L).to_general()
        full_bytes = len(pickle.dumps(as_csr(A), protocol=pickle.HIGHEST_PROTOCOL))
        ex = SocketExecutor(workers=L)
        try:
            ex.attach(A, b, part.sets, get_solver("scipy"))
            payloads = ex.attach_payload_bytes
            assert sorted(payloads) == list(range(L))
            total = sum(payloads.values())
            # The old scheme shipped the full matrix to every worker
            # (W * full_bytes); band rows bring the total down to about
            # one matrix worth across ALL workers.
            assert total < 1.5 * full_bytes
            assert max(payloads.values()) < 0.6 * full_bytes
            # And the solves are still correct.
            scheme = make_weighting("ownership", part)
            stopping = StoppingCriterion(tolerance=1e-300, max_iterations=4)
            res = multisplitting_iterate(
                A, b, part, scheme, get_solver("scipy"),
                stopping=stopping, executor=ex,
            )
            ref = multisplitting_iterate(
                A, b, part, scheme, get_solver("scipy"), stopping=stopping
            )
            np.testing.assert_array_equal(res.x, ref.x)
        finally:
            ex.close()

    def test_band_built_system_matches_full_build(self):
        from repro.core.local import build_local_system

        A, b, part, _ = _problem()
        csr = as_csr(A)
        rows = part.sets[1]
        ref = build_local_system(csr, b, rows, 1, get_solver("scipy"))
        alt = build_local_system(
            None, None, rows, 1, get_solver("scipy"),
            band=csr[rows, :], b_sub=b[rows],
        )
        z = np.linspace(0.0, 1.0, csr.shape[0])
        np.testing.assert_array_equal(ref.solve_with(z), alt.solve_with(z))
        np.testing.assert_array_equal(ref.b_sub, alt.b_sub)
        assert (ref.dep != alt.dep).nnz == 0


class TestProcessRowShipping:
    """Satellite: the process backend also ships only owned rows."""

    def test_attach_payload_shrinks_w_fold(self):
        n, L = 600, 4
        A = diagonally_dominant(n, dominance=1.5, bandwidth=8, seed=3)
        b, _ = rhs_for_solution(A, seed=4)
        part = uniform_bands(n, L).to_general()
        full_bytes = len(pickle.dumps(as_csr(A), protocol=pickle.HIGHEST_PROTOCOL))
        ex = ProcessExecutor(max_workers=L)
        try:
            ex.attach(A, b, part.sets, get_solver("scipy"))
            payloads = ex.attach_payload_bytes
            assert sorted(payloads) == list(range(L))
            total = sum(payloads.values())
            # The old scheme pickled the full matrix into every worker's
            # spec (W * full_bytes over the task queues); owned rows
            # bring the total down to about one matrix worth across ALL
            # workers -- the ROADMAP's W-fold cut, same as sockets.
            assert total < 1.5 * full_bytes
            assert max(payloads.values()) < 0.6 * full_bytes
            scheme = make_weighting("ownership", part)
            stopping = StoppingCriterion(tolerance=1e-300, max_iterations=4)
            res = multisplitting_iterate(
                A, b, part, scheme, get_solver("scipy"),
                stopping=stopping, executor=ex,
            )
            ref = multisplitting_iterate(
                A, b, part, scheme, get_solver("scipy"), stopping=stopping
            )
            np.testing.assert_array_equal(res.x, ref.x)
        finally:
            ex.close()

    def test_general_sets_ship_and_solve(self):
        """Arbitrary (interleaved) index sets ride the owned-rows path."""
        from repro.core.partition import interleaved_partition

        A, b, _, _ = _problem()
        part = interleaved_partition(A.shape[0], 4, chunk=4)
        scheme = make_weighting("ownership", part)
        stopping = StoppingCriterion(tolerance=1e-300, max_iterations=4)
        ref = multisplitting_iterate(
            A, b, part, scheme, get_solver("scipy"), stopping=stopping
        )
        ex = ProcessExecutor(max_workers=2)
        try:
            res = multisplitting_iterate(
                A, b, part, scheme, get_solver("scipy"),
                stopping=stopping, executor=ex,
            )
        finally:
            ex.close()
        np.testing.assert_array_equal(res.x, ref.x)


class TestTransactionalAttach:
    """Satellite (ROADMAP item): a worker killed mid-attach is recovered.

    :class:`CrashOnceSolver` hard-exits exactly one worker process from
    inside its attach-phase factorization -- the previously uncovered
    window where recovery used to fail fast.  With a policy the binding
    must complete (respawn or re-home), the counters must record the
    loss, and the subsequent solve must be bit-identical to the
    fault-free reference.
    """

    def _run(self, ex, tmp_path, policy):
        A, b, part, scheme = _problem()
        solver = CrashOnceSolver(
            get_solver("scipy"), tmp_path / "attach-crash.sentinel"
        )
        stopping = StoppingCriterion(tolerance=1e-300, max_iterations=4)
        ref = multisplitting_iterate(
            A, b, part, scheme, get_solver("scipy"), stopping=stopping
        )
        try:
            # The driver's own attach carries the crash: the sentinel'd
            # kernel hard-exits one worker from inside its attach-phase
            # factorization, and recovery must complete the binding.
            res = multisplitting_iterate(
                A, b, part, scheme, solver,
                stopping=stopping, executor=ex, fault_policy=policy,
            )
        finally:
            ex.close()
        np.testing.assert_array_equal(res.x, ref.x)
        return res.fault_stats

    @pytest.mark.parametrize("respawn", [False, True])
    def test_process_attach_crash_recovers(self, tmp_path, respawn):
        policy = FaultPolicy(heartbeat_interval=0.1, respawn=respawn)
        fault = self._run(ProcessExecutor(max_workers=4), tmp_path, policy)
        assert fault.workers_lost >= 1
        if respawn:
            assert fault.respawns >= 1
        else:
            assert fault.blocks_requeued >= 1

    @pytest.mark.parametrize("respawn", [False, True])
    def test_socket_attach_crash_recovers(self, tmp_path, respawn):
        policy = FaultPolicy(heartbeat_interval=0.1, respawn=respawn)
        fault = self._run(SocketExecutor(workers=4), tmp_path, policy)
        assert fault.workers_lost >= 1
        if respawn:
            assert fault.respawns >= 1
        else:
            assert fault.blocks_requeued >= 1

    def test_attach_crash_without_policy_still_fails_fast(self, tmp_path):
        A, b, part, _ = _problem()
        solver = CrashOnceSolver(
            get_solver("scipy"), tmp_path / "fail-fast.sentinel"
        )
        ex = ProcessExecutor(max_workers=4)
        try:
            with pytest.raises(RuntimeError, match="died during attach"):
                ex.attach(A, b, part.sets, solver)
        finally:
            ex.close()


class _ScriptedExecutor(InlineExecutor):
    """Inline executor whose per-round block timings follow a script.

    ``script[r][w]`` is the seconds worker ``w`` "spent" in round ``r``
    (warm-up round 0 included); ``block_seconds`` reports the scripted
    cumulative sums, letting calibration tests plant exact timings.
    """

    def __init__(self, script):
        super().__init__()
        self._script = script
        self._rounds = 0
        self._scripted = {}

    def attach(self, *args, **kwargs):
        super().attach(*args, **kwargs)
        self._rounds = 0
        self._scripted = {w: 0.0 for w in range(len(self._script[0]))}

    def solve_blocks(self, tasks):
        out = super().solve_blocks(tasks)
        row = self._script[min(self._rounds, len(self._script) - 1)]
        for w, dt in enumerate(row):
            self._scripted[w] += dt
        self._rounds += 1
        return out

    def block_seconds(self):
        return dict(self._scripted)


class TestCalibrationOutlierGuard:
    """Satellite: median-of-rounds timing shrugs off one poisoned round."""

    def test_one_poisoned_round_leaves_plan_unchanged(self):
        clean_row = [0.10, 0.20]  # worker 1 is half as fast, always
        script_clean = [clean_row] * 6
        # Round 3 poisons worker 0 with a 50x transient stall.
        script_poisoned = [list(clean_row) for _ in range(6)]
        script_poisoned[3] = [5.0, 0.20]

        speeds_clean = measure_worker_speeds(
            _ScriptedExecutor(script_clean), 2, repeats=5, probe_size=8
        )
        speeds_poisoned = measure_worker_speeds(
            _ScriptedExecutor(script_poisoned), 2, repeats=5, probe_size=8
        )
        assert speeds_clean == pytest.approx(speeds_poisoned, rel=1e-9)
        assert speeds_clean[0] == pytest.approx(2 * speeds_clean[1], rel=1e-9)

        from repro.schedule import cost_model_placement

        plan_clean = cost_model_placement(1000, speeds_clean)
        plan_poisoned = cost_model_placement(1000, speeds_poisoned)
        assert plan_clean.sizes == plan_poisoned.sizes

    def test_naive_mean_would_have_been_fooled(self):
        """The guard is doing real work: without it (simulated by a
        plain mean over rounds) the poisoned round flips the ranking."""
        rounds_w0 = [0.10, 0.10, 0.10, 5.0, 0.10]
        rounds_w1 = [0.20] * 5
        naive0 = sum(rounds_w0) / len(rounds_w0)
        naive1 = sum(rounds_w1) / len(rounds_w1)
        assert naive0 > naive1  # the mean says w0 is SLOWER -- wrong


class TestChaosWrapperContract:
    """ChaosExecutor honours the full Executor contract."""

    def test_lifecycle_and_passthrough(self):
        A, b, part, _ = _problem()
        inner = InlineExecutor()
        chaos = ChaosExecutor(inner, FaultInjector(seed=0))
        chaos.attach(A, b, part.sets, get_solver("scipy"))
        assert chaos.nblocks == part.nprocs
        z = np.ones(b.shape)
        full = chaos.solve_round([z] * part.nprocs)
        some = chaos.solve_blocks([(2, z)])
        np.testing.assert_array_equal(some[0], full[2])
        assert set(chaos.block_seconds()) == set(range(part.nprocs))
        chaos.detach()
        assert chaos.nblocks == 0
        chaos.close()

    def test_close_closes_inner(self):
        inner = InlineExecutor()
        A, b, part, _ = _problem()
        chaos = ChaosExecutor(inner, FaultInjector(seed=0))
        chaos.attach(A, b, part.sets, get_solver("scipy"))
        chaos.close()
        assert inner.nblocks == 0

    @pytest.mark.parametrize("make", [InlineExecutor, ThreadExecutor])
    @pytest.mark.parametrize("schedule", [
        {"crash_rounds": (2,)},
        {"grow_rounds": (1,)},
        {"shrink_rounds": (3,)},
        {"crash_rate": 0.1},
    ], ids=["crash_rounds", "grow_rounds", "shrink_rounds", "crash_rate"])
    def test_in_process_inner_refuses_membership_faults(self, make, schedule):
        """No workers, nothing to crash, grow or shrink: the wrapper
        refuses the schedule at attach, before anything is factored."""

        class _NoFactor(DirectSolver):
            name = "no-factor"

            def factor(self, A):
                raise AssertionError("factored before the refusal")

        A, b, part, _ = _problem()
        inner = make()
        chaos = ChaosExecutor(
            inner, FaultInjector(seed=0, drop_rounds=(1,), **schedule)
        )
        try:
            with pytest.raises(ValueError, match=repr(inner.name)):
                chaos.attach(A, b, part.sets, _NoFactor())
            assert inner.nblocks == 0
            # Delays and drops alone still run there.
            chaos.injector = FaultInjector(seed=0, drop_rounds=(1,), delay_rounds=(1,))
            chaos.attach(A, b, part.sets, get_solver("scipy"))
            chaos.solve_round([np.zeros(b.shape)] * part.nprocs)
            fs = chaos.fault_stats()
            assert fs.replies_dropped == 1 and fs.delays_injected == 1
        finally:
            chaos.close()
