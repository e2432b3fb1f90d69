"""Regression tests of the runtime's error-handling seams.

The serving gateway (:mod:`repro.serve`) sits directly on the executor
layer, so the fault classifier underneath it must be exact in *both*
directions:

* a kernel (or programming) error inside a worker must surface to the
  caller as the original failure -- never be misread as a worker death
  and "recovered" into a refactor loop that hides the bug;
* a worker death must be recoverable wherever it surfaces -- including
  on the *send* side of the stream, where TCP timing decides whether the
  broken pipe errors the request or the reply;
* reply waits must be governed by the armed :class:`FaultPolicy`
  deadline, not the module-level protocol timeout: a generous policy is
  not cut short, a tight one is not ignored;
* cache counters must stay coherent across recovery: a dead worker's
  final report is lost (a corpse cannot be queried), never
  double-counted once its replacement re-factors the adopted blocks.
"""

from __future__ import annotations

import socket
import time

import numpy as np
import pytest

from repro.core import make_weighting, uniform_bands
from repro.core.stopping import StoppingCriterion
from repro.core.sequential import multisplitting_iterate
from repro.direct import get_solver
from repro.direct.cache import FactorizationCache
from repro.matrices import diagonally_dominant, rhs_for_solution
from repro.runtime import (
    FaultPolicy,
    FlakySolver,
    InlineExecutor,
    ProcessExecutor,
    SocketExecutor,
    StragglerSolver,
)
import repro.runtime.fleet as fleet_module

pytestmark = pytest.mark.filterwarnings(
    "ignore:resource_tracker:UserWarning"
)

_POLICY = FaultPolicy(heartbeat_interval=0.1)


def _problem(n=96, L=4, seed=7):
    A = diagonally_dominant(n, dominance=1.5, bandwidth=4, seed=seed)
    b, _ = rhs_for_solution(A, seed=seed + 1)
    part = uniform_bands(n, L).to_general()
    scheme = make_weighting("ownership", part)
    return A, b, part, scheme


class TestKernelErrorsPropagate:
    """A kernel raising inside a worker surfaces the original exception,
    not a recovery path -- with and without an armed FaultPolicy."""

    def _flaky(self):
        # The first solve call in each worker process raises
        # InjectedFault; later calls succeed (the worker is healthy).
        return FlakySolver(get_solver("scipy"), fail_solves=(1,))

    @pytest.mark.parametrize("policy", [None, _POLICY])
    def test_socket_kernel_error_surfaces(self, policy):
        A, b, part, _ = _problem()
        ex = SocketExecutor(workers=2)
        try:
            ex.attach(A, b, part.sets, self._flaky(), fault_policy=policy)
            z = np.zeros(b.shape)
            with pytest.raises(RuntimeError, match="InjectedFault"):
                ex.solve_round([z] * part.nprocs)
            # The worker is alive and was NOT classified as lost: no
            # recovery ran, and the same binding keeps serving.
            assert ex.fault_stats().workers_lost == 0
            assert len(ex.alive_workers()) == 2
            pieces = ex.solve_round([z] * part.nprocs)
            assert len(pieces) == part.nprocs
        finally:
            ex.close()

    @pytest.mark.parametrize("policy", [None, _POLICY])
    def test_process_kernel_error_surfaces(self, policy):
        A, b, part, _ = _problem()
        ex = ProcessExecutor(max_workers=2)
        try:
            ex.attach(A, b, part.sets, self._flaky(), fault_policy=policy)
            z = np.zeros(b.shape)
            with pytest.raises(RuntimeError, match="InjectedFault"):
                ex.solve_round([z] * part.nprocs)
            assert ex.fault_stats().workers_lost == 0
            assert len(ex.alive_workers()) == 2
        finally:
            ex.close()

    @pytest.mark.parametrize("backend", ["processes", "sockets"])
    def test_straggling_peer_reply_stays_in_its_round(self, backend):
        """The round that raises hears out its other batches first.
        (Regression: the process loop raised at the first error frame,
        the straggling peer's same-epoch ``done`` stayed in its pipe,
        and the next round took it as its own and read the peer's piece
        slot before the peer had rewritten it.)"""
        A, b, part, _ = _problem(L=2)
        # The peer straggles in both rounds, so a round that took the
        # first round's reply would read a slot not yet rewritten.
        kernels = [
            self._flaky(),
            StragglerSolver(get_solver("scipy"), seconds=0.3, slow_calls=(1, 2)),
        ]
        if backend == "processes":
            ex = ProcessExecutor(max_workers=2)
        else:
            ex = SocketExecutor(workers=2)
        z = np.full(b.shape, 2.0)
        try:
            ex.attach(A, b, part.sets, kernels)
            with pytest.raises(RuntimeError, match="InjectedFault"):
                ex.solve_round([np.zeros(b.shape)] * 2)
            pieces = ex.solve_round([z] * 2)
        finally:
            ex.close()
        with InlineExecutor() as inline:
            inline.attach(A, b, part.sets, get_solver("scipy"))
            ref = inline.solve_round([z] * 2)
        for x, y in zip(pieces, ref):
            np.testing.assert_array_equal(x, y)

    def test_process_kernel_error_leaves_a_clean_detach(self):
        """The failed batch's halo views go with its error frame, so
        detach unmaps the shared planes and the fleet binds again.
        (Regression: the views outlived the error, detach answered a
        ``BufferError``, and a driver's run reported that in place of
        the kernel's own error.)"""
        A, b, part, scheme = _problem()
        ex = ProcessExecutor(max_workers=2)
        try:
            ex.attach(A, b, part.sets, self._flaky())
            z = np.zeros(b.shape)
            with pytest.raises(RuntimeError, match="InjectedFault"):
                ex.solve_round([z] * part.nprocs)
            ex.detach()
            with pytest.raises(RuntimeError, match="InjectedFault"):
                multisplitting_iterate(
                    A, b, part, scheme, self._flaky(), executor=ex
                )
            res = multisplitting_iterate(
                A, b, part, scheme, get_solver("scipy"), executor=ex
            )
            assert res.converged
        finally:
            ex.close()


class TestSendPathDeath:
    """A stream that breaks on the *send* side is a worker death like
    any other: recovered under a policy, a clean typed failure without.
    (Regression: a BrokenPipeError on ``sendall`` used to escape the
    recovery classifier and abort the run even with a policy armed.)"""

    def _sever(self, ex: SocketExecutor, rank: int) -> None:
        # Driver-side shutdown forces the next send (not the recv) to
        # raise -- the TCP ordering a remote peer death only sometimes
        # produces, pinned down deterministically.
        ex._socks[rank].shutdown(socket.SHUT_RDWR)

    def test_recovers_under_policy(self):
        A, b, part, _ = _problem()
        ex = SocketExecutor(workers=2)
        try:
            ex.attach(A, b, part.sets, get_solver("scipy"), fault_policy=_POLICY)
            z = np.zeros(b.shape)
            first = ex.solve_round([z] * part.nprocs)
            self._sever(ex, 0)
            second = ex.solve_round([z] * part.nprocs)
            for x, y in zip(first, second):
                np.testing.assert_array_equal(x, y)
            assert ex.fault_stats().workers_lost == 1
        finally:
            ex.close()

    def test_fails_fast_without_policy(self):
        A, b, part, _ = _problem()
        ex = SocketExecutor(workers=2)
        try:
            ex.attach(A, b, part.sets, get_solver("scipy"))
            z = np.zeros(b.shape)
            ex.solve_round([z] * part.nprocs)
            self._sever(ex, 0)
            with pytest.raises(RuntimeError, match="died mid-solve"):
                ex.solve_round([z] * part.nprocs)
        finally:
            ex.close()


class TestPolicyDeadlineGovernsReplyWaits:
    """The armed policy's deadline -- not the module-level hardcoded
    ``_REPLY_TIMEOUT`` -- bounds how long the driver waits on replies."""

    def test_generous_policy_not_cut_short(self, monkeypatch):
        # Shrink the protocol backstop below the solve's real duration:
        # the armed policy's *generous* deadline must govern, so the
        # stalled-but-legitimate solve completes instead of timing out.
        monkeypatch.setattr(fleet_module, "_REPLY_TIMEOUT", 1.0)
        A, b, part, scheme = _problem()
        kernels = [
            StragglerSolver(get_solver("scipy"), seconds=3.0, slow_calls=(1,)),
            get_solver("scipy"),
            get_solver("scipy"),
            get_solver("scipy"),
        ]
        ex = ProcessExecutor(max_workers=2)
        try:
            ex.attach(
                A, b, part.sets, kernels,
                fault_policy=FaultPolicy(heartbeat_interval=0.1, deadline=30.0),
            )
            z = np.zeros(b.shape)
            pieces = ex.solve_round([z] * part.nprocs)
            assert len(pieces) == part.nprocs
            # The slow worker was legitimate, not lost: no recovery ran.
            assert ex.fault_stats().workers_lost == 0
        finally:
            ex.close()

    def test_tight_deadline_not_ignored(self):
        # The protocol backstop is 300 s; a 1 s policy deadline must
        # reap the hung worker at ~1 s, not wait for the backstop.
        A, b, part, scheme = _problem()
        kernels = [
            # Stalls only on its second solve, i.e. round 2 on the
            # original owner; the adopter's pickled copy restarts its
            # call counter, so the recovered solve runs immediately.
            StragglerSolver(get_solver("scipy"), seconds=60.0, slow_calls=(2,)),
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
            assert res.fault_stats.workers_lost >= 1
            assert elapsed < 30.0  # nowhere near the 60 s stall
        finally:
            ex.close()


class TestCacheStatsAcrossRecovery:
    """``run_cache_stats()`` stays coherent through a mid-solve worker
    loss: the aggregate is *monotonic* -- a dead worker's last-polled
    report is retained (the run did pay for those factors), the
    adopter's re-factors are fresh misses counted exactly once, and a
    double-count (corpse report + the replacement re-reporting the
    same work) would overshoot ``L + orphans``."""

    @pytest.mark.parametrize("respawn", [False, True])
    def test_process_backend(self, respawn):
        A, b, part, _ = _problem()
        L = part.nprocs
        ex = ProcessExecutor(max_workers=2)
        cache = FactorizationCache()
        try:
            ex.attach(
                A, b, part.sets, get_solver("scipy"), cache=cache,
                fault_policy=FaultPolicy(heartbeat_interval=0.1, respawn=respawn),
            )
            z = np.zeros(b.shape)
            ex.solve_round([z] * L)
            # Attach factors each block once (a miss), the solve round
            # looks each factorization up again (a hit).
            before = ex.run_cache_stats()
            assert before.misses == L and before.hits == L
            assert ex.kill_worker(0)
            ex.solve_round([z] * L)  # recovery re-factors the orphans
            after = ex.run_cache_stats()
            # The dead worker's 2 misses stay in the aggregate (its
            # last report is retained so counters never run backwards)
            # and the adopter's 2 re-factors are fresh misses -- a
            # double-count would show L + 4 here.
            assert after.misses == L + 2
            assert after.hits >= before.hits  # monotone, never reset
            assert ex.fault_stats().blocks_requeued == 2
        finally:
            ex.close()

    @pytest.mark.parametrize("respawn", [False, True])
    def test_socket_backend(self, respawn):
        A, b, part, _ = _problem()
        L = part.nprocs
        ex = SocketExecutor(workers=2)
        cache = FactorizationCache()
        try:
            ex.attach(
                A, b, part.sets, get_solver("scipy"), cache=cache,
                fault_policy=FaultPolicy(heartbeat_interval=0.1, respawn=respawn),
            )
            z = np.zeros(b.shape)
            ex.solve_round([z] * L)
            before = ex.run_cache_stats()
            assert before.misses == L and before.hits == L
            assert ex.kill_worker(0)
            ex.solve_round([z] * L)
            after = ex.run_cache_stats()
            assert after.misses == L + 2  # retained corpse report + re-factors
            assert after.hits >= before.hits
            assert ex.fault_stats().blocks_requeued == 2
        finally:
            ex.close()
