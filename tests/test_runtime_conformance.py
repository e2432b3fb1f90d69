"""One contract, four backends: the Executor conformance suite.

Every execution backend -- inline, threads, processes, and the TCP
``sockets`` backend -- must honour the same observable contract:

* ``attach`` / ``solve_blocks`` / ``detach`` / ``close`` lifecycle,
  with idempotent ``detach``/``close`` and a reusable executor after
  ``close``;
* **bit-identical** synchronous iterates vs :class:`InlineExecutor`
  (a block solve is a pure function of ``(block, z)``, results in
  request order);
* factor-once cache accounting wherever the counters physically live
  (the caller's cache for in-process backends, per-worker caches
  aggregated by ``run_cache_stats`` for process/socket backends);
* placement without changing iterates: the fleets pin block ``l`` to
  worker ``assignment[l]`` of a :class:`repro.schedule.Placement`, the
  in-process backends validate the plan and ignore it;
* crash-safe teardown: ``close`` completes, never raises, and stays
  idempotent even after a worker process died mid-binding.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import (
    chaotic_iterate,
    make_weighting,
    multisplitting_iterate,
    uniform_bands,
)
from repro.core.partition import interleaved_partition, permuted_bands
from repro.core.stopping import StoppingCriterion
from repro.direct import get_solver
from repro.direct.cache import FactorizationCache
from repro.matrices import diagonally_dominant, rhs_for_solution
from repro.runtime import (
    ChaosExecutor,
    Executor,
    FaultInjector,
    FaultPolicy,
    ProcessExecutor,
    SocketExecutor,
    get_executor,
)
from repro.schedule import Placement, WorkerSlot

BACKENDS = ("inline", "threads", "processes", "sockets")

#: The backends with workers to lose: crash schedules run on these only.
FLEETS = ("processes", "sockets")

#: Constructor kwargs keeping worker pools small and spawns cheap.
_KWARGS = {
    "inline": {},
    "threads": {"max_workers": 2},
    "processes": {"max_workers": 2},
    "sockets": {"workers": 2},
}


def _make_executor(name):
    return get_executor(name, **_KWARGS[name])


def _problem(n=96, L=4, seed=5):
    A = diagonally_dominant(n, dominance=1.5, bandwidth=4, seed=seed)
    b, _ = rhs_for_solution(A, seed=seed + 1)
    part = uniform_bands(n, L).to_general()
    scheme = make_weighting("ownership", part)
    return A, b, part, scheme


#: The partition-generality axis: every decomposition shape of the
#: paper's Remarks 2-3, including the overlapping Schwarz regime.
PARTITION_KINDS = ("band", "schwarz", "interleaved", "permuted")


def _general_problem(kind, n=96, L=4, seed=5):
    """A problem over one of the general decomposition shapes."""
    A = diagonally_dominant(n, dominance=1.5, bandwidth=4, seed=seed)
    b, _ = rhs_for_solution(A, seed=seed + 1)
    if kind == "band":
        part = uniform_bands(n, L).to_general()
        scheme = make_weighting("ownership", part)
    elif kind == "schwarz":
        # Overlapping bands combined by the Section-4.3 Schwarz family.
        part = uniform_bands(n, L, overlap=6).to_general()
        scheme = make_weighting("schwarz", part)
    elif kind == "interleaved":
        # Remark 2: several non-adjacent bands per processor.
        part = interleaved_partition(n, L, chunk=4)
        scheme = make_weighting("ownership", part)
    else:  # permuted
        # Remark 2's permutation layout, with overlap so components have
        # several owners -- exercised through O'Leary-White averaging.
        perm = np.random.default_rng(seed).permutation(n)
        part = permuted_bands(perm, L, overlap=4)
        scheme = make_weighting("averaging", part)
    return A, b, part, scheme


def _identity_plan(n, L, sizes=None):
    return Placement(
        strategy="test",
        n=n,
        workers=tuple(WorkerSlot(name=f"w{i}") for i in range(L)),
        sizes=tuple(sizes) if sizes is not None else (n // L,) * L,
        assignment=tuple(range(L)),
    )


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


@pytest.fixture()
def executor(backend):
    ex = _make_executor(backend)
    yield ex
    ex.close()


class TestLifecycleConformance:
    def test_attach_solve_detach(self, executor):
        A, b, part, _ = _problem()
        executor.attach(A, b, part.sets, get_solver("scipy"))
        assert executor.nblocks == part.nprocs
        z = np.ones(b.shape)
        full = executor.solve_round([z] * part.nprocs)
        assert len(full) == part.nprocs
        some = executor.solve_blocks([(3, z), (1, z)])
        np.testing.assert_array_equal(some[0], full[3])
        np.testing.assert_array_equal(some[1], full[1])
        executor.detach()
        assert executor.nblocks == 0

    def test_detach_idempotent(self, executor):
        A, b, part, _ = _problem()
        executor.attach(A, b, part.sets, get_solver("scipy"))
        executor.detach()
        executor.detach()
        assert executor.nblocks == 0

    def test_solve_after_detach_raises(self, executor):
        A, b, part, _ = _problem()
        executor.attach(A, b, part.sets, get_solver("scipy"))
        executor.detach()
        with pytest.raises(RuntimeError):
            executor.solve_blocks([(0, np.zeros(b.shape))])

    def test_close_idempotent_and_reusable(self, backend):
        """close() twice is a no-op; attach after close rebuilds workers."""
        A, b, part, scheme = _problem()
        ex = _make_executor(backend)
        try:
            r1 = multisplitting_iterate(
                A, b, part, scheme, get_solver("scipy"), executor=ex
            )
            ex.close()
            ex.close()
            r2 = multisplitting_iterate(
                A, b, part, scheme, get_solver("scipy"), executor=ex
            )
            assert r1.converged and r2.converged
            np.testing.assert_array_equal(r1.x, r2.x)
        finally:
            ex.close()

    def test_placement_length_mismatch_rejected(self, executor):
        A, b, part, _ = _problem()
        bad = _identity_plan(96, 2, sizes=(48, 48))
        with pytest.raises(ValueError, match="placement"):
            executor.attach(A, b, part.sets, get_solver("scipy"), placement=bad)


class TestDeterminismConformance:
    def test_bit_identical_vs_inline(self, backend):
        A, b, part, scheme = _problem()
        stopping = StoppingCriterion(tolerance=1e-300, max_iterations=8)
        with _make_executor("inline") as ref_ex, _make_executor(backend) as ex:
            ref = multisplitting_iterate(
                A, b, part, scheme, get_solver("scipy"),
                stopping=stopping, executor=ref_ex,
            )
            res = multisplitting_iterate(
                A, b, part, scheme, get_solver("scipy"),
                stopping=stopping, executor=ex,
            )
        assert res.backend == backend
        assert res.history == ref.history
        np.testing.assert_array_equal(res.x, ref.x)

    def test_placement_does_not_change_iterates(self, executor, backend):
        """Pinning blocks to workers moves solves, never values."""
        A, b, part, scheme = _problem()
        # Two worker slots, four blocks: (0, 1, 0, 1) round-robin pinning
        # matches every backend's two-worker pool from _KWARGS.
        plan = Placement(
            strategy="test",
            n=96,
            workers=(WorkerSlot(name="w0"), WorkerSlot(name="w1")),
            sizes=(24, 24, 24, 24),
            assignment=(0, 1, 0, 1),
        )
        stopping = StoppingCriterion(tolerance=1e-300, max_iterations=6)
        ref = multisplitting_iterate(
            A, b, part, scheme, get_solver("scipy"), stopping=stopping
        )
        res = multisplitting_iterate(
            A, b, part, scheme, get_solver("scipy"),
            stopping=stopping, executor=executor, placement=plan,
        )
        assert res.placement == plan.summary()
        np.testing.assert_array_equal(res.x, ref.x)
        assert set(res.block_seconds) == set(range(4))

    def test_threads_ignore_a_placement(self):
        """One plan worker over four blocks: the thread backend still runs
        every block on its shared pool, bit-identical to inline, and
        ``close`` leaves none of its threads behind."""
        import threading

        A, b, part, _ = _problem()
        plan = Placement(
            strategy="test",
            n=96,
            workers=(WorkerSlot(name="w0"),),
            sizes=(24, 24, 24, 24),
            assignment=(0, 0, 0, 0),
        )
        Z = [np.ones(b.shape)] * part.nprocs
        with _make_executor("inline") as inline:
            inline.attach(A, b, part.sets, get_solver("scipy"))
            ref = inline.solve_round(Z)
        before = set(threading.enumerate())
        ex = _make_executor("threads")
        try:
            ex.attach(A, b, part.sets, get_solver("scipy"), placement=plan)
            pieces = ex.solve_round(Z)
            seconds = ex.block_seconds()
        finally:
            ex.close()
        for got, want in zip(pieces, ref):
            np.testing.assert_array_equal(got, want)
        assert set(seconds) == set(range(4))
        assert all(s > 0.0 for s in seconds.values())
        left = [
            t.name for t in threading.enumerate()
            if t.name.startswith("repro-") and t not in before
        ]
        assert left == []


class TestCacheConformance:
    def test_factor_once_accounting(self, backend):
        """Fresh workers + fresh cache: misses == blocks, one hit per
        block per iteration -- wherever the counters physically live."""
        A, b, part, scheme = _problem()
        cache = FactorizationCache()
        with _make_executor(backend) as ex:
            res = multisplitting_iterate(
                A, b, part, scheme, get_solver("scipy"), cache=cache, executor=ex
            )
        stats = res.cache_stats
        assert stats is not None
        assert stats.misses == part.nprocs
        assert stats.hits == res.iterations * part.nprocs

    def test_reattach_hits_worker_caches(self, backend):
        """Re-attaching the same matrix skips every factorization."""
        A, b, part, scheme = _problem()
        cache = FactorizationCache()
        with _make_executor(backend) as ex:
            first = multisplitting_iterate(
                A, b, part, scheme, get_solver("scipy"), cache=cache, executor=ex
            )
            second = multisplitting_iterate(
                A, b, part, scheme, get_solver("scipy"), cache=cache, executor=ex
            )
        assert first.cache_stats.misses == part.nprocs
        assert second.cache_stats.misses == 0


class TestPartitionGeneralityConformance:
    """Satellite: the partition-generality × backend conformance matrix.

    {band, band+overlap/Schwarz, interleaved, permuted} × all four
    executors: every decomposition shape must produce **bit-identical**
    iterates on every backend (the general owned-rows attach ships
    arbitrary ``A[J_l, :]`` slices to process/socket workers, and a
    block solve stays a pure function of ``(block, z)``), and the
    factor-cache accounting must stay coherent wherever the counters
    physically live.
    """

    @pytest.mark.parametrize("kind", PARTITION_KINDS)
    def test_bit_identical_vs_inline(self, backend, kind):
        A, b, part, scheme = _general_problem(kind)
        stopping = StoppingCriterion(tolerance=1e-300, max_iterations=6)
        with _make_executor("inline") as ref_ex, _make_executor(backend) as ex:
            ref = multisplitting_iterate(
                A, b, part, scheme, get_solver("scipy"),
                stopping=stopping, executor=ref_ex,
            )
            res = multisplitting_iterate(
                A, b, part, scheme, get_solver("scipy"),
                stopping=stopping, executor=ex,
            )
        assert res.backend == backend
        assert res.history == ref.history
        np.testing.assert_array_equal(res.x, ref.x)

    @pytest.mark.parametrize("kind", PARTITION_KINDS)
    def test_cache_stats_coherent(self, backend, kind):
        """Factor-once accounting holds on every decomposition shape:
        misses == blocks, one hit per block per iteration."""
        A, b, part, scheme = _general_problem(kind)
        cache = FactorizationCache()
        with _make_executor(backend) as ex:
            res = multisplitting_iterate(
                A, b, part, scheme, get_solver("scipy"), cache=cache, executor=ex
            )
        assert res.converged
        stats = res.cache_stats
        assert stats is not None
        assert stats.misses == part.nprocs
        assert stats.hits == res.iterations * part.nprocs

    @pytest.mark.parametrize("kind", PARTITION_KINDS)
    def test_single_block_requests_match_the_round(self, backend, kind):
        """Any subset of blocks, in any order, solves to the round's own
        pieces: ``solve_blocks`` answers in request order on every
        decomposition shape (the chaotic driver's request shape)."""
        A, b, part, _ = _general_problem(kind)
        rng = np.random.default_rng(3)
        Z = [rng.standard_normal(b.shape[0]) for _ in range(part.nprocs)]
        with _make_executor(backend) as ex:
            ex.attach(A, b, part.sets, get_solver("scipy"))
            full = ex.solve_round(Z)
            order = list(reversed(range(part.nprocs)))
            backwards = ex.solve_blocks([(l, Z[l]) for l in order])
            singles = [ex.solve_blocks([(l, Z[l])])[0] for l in order]
            pair = ex.solve_blocks([(2, Z[2]), (0, Z[0])])
        for got, l in zip(backwards, order):
            np.testing.assert_array_equal(got, full[l])
        for got, l in zip(singles, order):
            np.testing.assert_array_equal(got, full[l])
        np.testing.assert_array_equal(pair[0], full[2])
        np.testing.assert_array_equal(pair[1], full[0])

    @pytest.mark.parametrize("kind", ("interleaved", "permuted"))
    def test_chaotic_keeps_schedule_on_general_partitions(self, backend, kind):
        """The seeded chaotic driver replays identically on every backend
        for general decompositions too (the schedule lives driver-side)."""
        A, b, part, scheme = _general_problem(kind)
        kwargs = dict(
            stopping=StoppingCriterion(tolerance=1e-8, consecutive=3),
            seed=2,
        )
        ref = chaotic_iterate(A, b, part, scheme, get_solver("scipy"), **kwargs)
        with _make_executor(backend) as ex:
            res = chaotic_iterate(
                A, b, part, scheme, get_solver("scipy"), executor=ex, **kwargs
            )
        assert res.converged == ref.converged
        assert res.iterations == ref.iterations
        np.testing.assert_array_equal(res.x, ref.x)


class TestSchedulesAreOneIteration:
    """Barrier and chaotic are one iteration body under two schedules
    (``repro.core.session``): with its delays and skips turned off the
    chaotic schedule *is* the barrier one, and the facade hands back the
    driver's own record."""

    @pytest.mark.parametrize("weighting", ["ownership", "averaging", "schwarz"])
    def test_chaotic_without_chaos_is_the_barrier(self, weighting):
        A = diagonally_dominant(96, dominance=1.5, bandwidth=4, seed=5)
        b, _ = rhs_for_solution(A, seed=6)
        part = uniform_bands(96, 4, overlap=6).to_general()
        scheme = make_weighting(weighting, part)
        stopping = StoppingCriterion(tolerance=1e-300, max_iterations=8)
        ref = multisplitting_iterate(
            A, b, part, scheme, get_solver("scipy"), stopping=stopping
        )
        res = chaotic_iterate(
            A, b, part, scheme, get_solver("scipy"), stopping=stopping,
            max_delay=0, update_probability=1.0,
        )
        assert res.history == ref.history[: len(res.history)]
        assert len(res.history) == 8
        np.testing.assert_array_equal(res.x, ref.x)

    def test_facade_returns_the_drivers_history(self):
        from repro.core.solver import MultisplittingSolver

        A, b, part, scheme = _problem()
        facade = MultisplittingSolver(4, mode="sequential")
        res = facade.solve(A, b, partition=part)
        ref = multisplitting_iterate(
            A, b, part, scheme, get_solver("scipy"), stopping=facade.stopping
        )
        assert res.mode == "sequential"
        assert res.history and res.history == ref.history
        np.testing.assert_array_equal(res.x, ref.x)

    def test_facade_is_bit_identical_on_every_backend(self, backend):
        """The facade's fleet path is the barrier driver on any backend."""
        from repro.core.solver import MultisplittingSolver

        A, b, _, _ = _problem()
        ref = MultisplittingSolver(4, mode="sequential").solve(A, b)
        with _make_executor(backend) as ex:
            res = MultisplittingSolver(4, mode="sequential", backend=ex).solve(A, b)
        assert res.backend == backend
        assert res.converged and ref.converged
        assert res.history == ref.history
        np.testing.assert_array_equal(res.x, ref.x)

    def test_dispatch_keyword_is_gone(self):
        """No schedule selector survives: the keyword is simply unknown."""
        A, b, part, scheme = _problem()
        with pytest.raises(TypeError, match="dispatch"):
            multisplitting_iterate(
                A, b, part, scheme, get_solver("scipy"), dispatch="barrier"
            )

    def test_pipelined_mode_rejected(self):
        """The synchronous iteration has one schedule: the barrier."""
        from repro.core.solver import MultisplittingSolver

        with pytest.raises(ValueError) as info:
            MultisplittingSolver(4, mode="pipelined")
        for mode in ("sequential", "synchronous", "asynchronous"):
            assert mode in str(info.value)


class TestRoundIsOneFrameAndOneFold:
    """The round path as counts: a fleet round is one ``solve`` frame out
    and one ``done`` frame back per active worker, carrying only the
    halo ``Dep`` reads; the driver folds one local copy per round when
    the weighting gives every block the same one; and nobody writes it."""

    ROUNDS = 7

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("name", ["processes", "sockets"])
    def test_frames_and_halo_bytes_per_round(self, name, k):
        A, b, part, scheme = _problem()
        if k > 1:
            b = np.column_stack([(j + 1.0) * b for j in range(k)])
        ex = _make_executor(name)
        try:
            res = multisplitting_iterate(
                A, b, part, scheme, get_solver("scipy"), executor=ex,
                stopping=StoppingCriterion(tolerance=1e-300, max_iterations=self.ROUNDS),
            )
        finally:
            ex.close()
        wire = res.wire
        workers = _KWARGS[name].get("max_workers") or _KWARGS[name]["workers"]
        assert wire["solve_frames_sent"] == self.ROUNDS * workers
        assert wire["solve_frames_received"] == self.ROUNDS * workers
        halo = 8 * k * sum(h.size for h in part.boundary_columns(A))
        piece = 8 * k * sum(rows.size for rows in part.sets)
        assert 0 < halo < piece  # thin bands: far less out than back
        if name == "processes":
            assert wire["vector_bytes_sent"] == self.ROUNDS * halo
            assert wire["vector_bytes_received"] == self.ROUNDS * piece
        else:
            # The frames' out-of-band buffers are exactly those vectors;
            # the byte counters add the pickled frame heads.
            assert wire["copies_avoided"] == self.ROUNDS * (halo + piece)
            assert wire["vector_bytes_sent"] < self.ROUNDS * (halo + 512 * workers)

    @pytest.mark.parametrize(
        "weighting, folds_per_round", [("ownership", 1), ("averaging", 1), ("schwarz", 4)]
    )
    def test_one_fold_per_round_when_the_weighting_allows(
        self, monkeypatch, weighting, folds_per_round
    ):
        from repro.core.session import RunSession

        A = diagonally_dominant(96, dominance=1.5, bandwidth=4, seed=5)
        b, _ = rhs_for_solution(A, seed=6)
        part = uniform_bands(96, 4, overlap=6).to_general()
        scheme = make_weighting(weighting, part)
        stopping = StoppingCriterion(tolerance=1e-300, max_iterations=self.ROUNDS)
        # fold_round is the per-block folds, array for array
        run = RunSession(A, b, part, scheme, get_solver("scipy"), stopping=stopping)
        rng = np.random.default_rng(0)
        pieces = [rng.standard_normal(rows.size) for rows in part.sets]
        copies = run.fold_round(pieces)
        assert len(copies) == 4
        for l, z in enumerate(copies):
            np.testing.assert_array_equal(z, run.fold(l, pieces.__getitem__))
        shared = all(z is copies[0] for z in copies)
        assert shared == (folds_per_round == 1)
        assert copies[0].flags.writeable != shared
        # and a barrier run calls fold that many times per round
        calls: list[int] = []
        fold = RunSession.fold
        monkeypatch.setattr(
            RunSession, "fold",
            lambda self, l, piece_of: calls.append(l) or fold(self, l, piece_of),
        )
        multisplitting_iterate(
            A, b, part, scheme, get_solver("scipy"), stopping=stopping
        )
        assert len(calls) == self.ROUNDS * folds_per_round

    @pytest.mark.parametrize("chaos", [False, True])
    def test_the_shared_local_copy_is_only_read(self, backend, chaos):
        A, b, part, _ = _problem()
        z = np.linspace(-1.0, 1.0, b.shape[0])
        z.flags.writeable = False  # a write anywhere in-process raises
        before = z.tobytes()
        with get_executor("inline") as inline:
            inline.attach(A, b, part.sets, get_solver("scipy"))
            ref = inline.solve_round([z] * part.nprocs)
        ex = _make_executor(backend)
        if chaos:
            ex = ChaosExecutor(ex, FaultInjector(seed=1, drop_rounds=(1,)))
        try:
            ex.attach(A, b, part.sets, get_solver("scipy"))
            got = ex.solve_round([z] * part.nprocs)
        finally:
            ex.close()
        assert z.tobytes() == before
        for l, want in enumerate(ref):
            np.testing.assert_array_equal(got[l], want)

    @pytest.mark.parametrize("chaos", [False, True])
    def test_single_block_solves_only_read_the_copy(self, backend, chaos):
        """One request per block, last block first, on one shared
        read-only copy: the same pieces as the round, and no write."""
        A, b, part, _ = _problem()
        z = np.linspace(-1.0, 1.0, b.shape[0])
        z.flags.writeable = False
        before = z.tobytes()
        with get_executor("inline") as inline:
            inline.attach(A, b, part.sets, get_solver("scipy"))
            ref = inline.solve_round([z] * part.nprocs)
        ex = _make_executor(backend)
        if chaos:
            ex = ChaosExecutor(ex, FaultInjector(seed=1, drop_rounds=(1,)))
        try:
            ex.attach(A, b, part.sets, get_solver("scipy"))
            got = {
                l: ex.solve_blocks([(l, z)])[0]
                for l in reversed(range(part.nprocs))
            }
        finally:
            ex.close()
        assert z.tobytes() == before
        for l, want in enumerate(ref):
            np.testing.assert_array_equal(got[l], want)


class TestCrashSafety:
    """Satellite regression: a dead worker must not hang (or fail) close."""

    def test_process_close_survives_worker_crash(self):
        A, b, part, _ = _problem()
        ex = ProcessExecutor(max_workers=2)
        ex.attach(A, b, part.sets, get_solver("scipy"))
        assert ex.kill_worker(0)
        t0 = time.monotonic()
        ex.close()  # must neither raise nor hang on the dead worker
        assert time.monotonic() - t0 < 60.0
        ex.close()  # and stays idempotent
        assert ex.nblocks == 0

    def test_socket_close_survives_worker_crash(self):
        A, b, part, _ = _problem()
        ex = SocketExecutor(workers=2)
        ex.attach(A, b, part.sets, get_solver("scipy"))
        assert ex.kill_worker(0)
        t0 = time.monotonic()
        ex.close()
        assert time.monotonic() - t0 < 60.0
        ex.close()
        assert ex.nblocks == 0

    def test_external_workers_survive_close(self):
        """close() must only exit OWNED workers: an external fleet
        (addresses=) is disconnected, not killed, and serves the next
        driver."""
        import multiprocessing as mp

        from repro.runtime.sockets import _local_worker_entry

        ctx = mp.get_context()
        port_q = ctx.Queue()
        proc = ctx.Process(target=_local_worker_entry, args=(port_q,), daemon=True)
        proc.start()
        try:
            port, _pid = port_q.get(timeout=20.0)
            A, b, part, _ = _problem(n=96, L=2)
            for _ in range(2):  # two successive drivers against one fleet
                ex = SocketExecutor(addresses=[("127.0.0.1", port)])
                ex.attach(A, b, part.sets, get_solver("scipy"))
                pieces = ex.solve_round([np.zeros(b.shape)] * part.nprocs)
                assert len(pieces) == part.nprocs
                ex.close()
                assert proc.is_alive()
        finally:
            proc.kill()
            proc.join(timeout=10.0)

    def test_socket_worker_error_keeps_executor_usable(self):
        """A failing kernel surfaces as RuntimeError; the workers survive."""
        A, b, part, _ = _problem()
        bad = A.tolil()
        bad[0, :] = 0.0  # singular first block
        ex = SocketExecutor(workers=2)
        try:
            with pytest.raises(RuntimeError, match="worker"):
                ex.attach(bad.tocsr(), b, part.sets, get_solver("scipy"))
            A2, b2, part2, _ = _problem(seed=9)
            ex.attach(A2, b2, part2.sets, get_solver("scipy"))
            pieces = ex.solve_round([np.zeros(b2.shape)] * part2.nprocs)
            assert len(pieces) == part2.nprocs
        finally:
            ex.close()


#: Recovery settings used by the fault-conformance suite: a tight
#: heartbeat keeps corpse detection (and therefore the tests) fast.
_POLICY = FaultPolicy(heartbeat_interval=0.1)


@pytest.mark.parametrize("backend", FLEETS)
class TestFaultConformance:
    """One fault schedule, both fleets, identical observable outcomes.

    The :class:`ChaosExecutor` really kills a worker mid-solve, and
    each fleet must (a) complete the run through its recovery path,
    (b) keep synchronous iterates bit-identical to the fault-free
    inline baseline, and (c) report the exact counters the injected
    schedule implies: one worker lost, and -- with 4 blocks
    round-robined over 2 workers -- exactly 2 blocks requeued.  The
    in-process backends have no workers to lose (the wrapper refuses a
    crash schedule there); :class:`TestDelayDropConformance` runs the
    faults they do have.
    """

    def _chaos(self, backend, injector):
        inner = _make_executor(backend)
        return inner, ChaosExecutor(inner, injector)

    def test_sync_bit_identical_under_worker_crash(self, backend):
        A, b, part, scheme = _problem()
        stopping = StoppingCriterion(tolerance=1e-300, max_iterations=8)
        ref = multisplitting_iterate(
            A, b, part, scheme, get_solver("scipy"), stopping=stopping
        )
        injector = FaultInjector(seed=3, crash_rounds=(2,), drop_rounds=(5,))
        inner, chaos = self._chaos(backend, injector)
        try:
            res = multisplitting_iterate(
                A, b, part, scheme, get_solver("scipy"),
                stopping=stopping, executor=chaos, fault_policy=_POLICY,
            )
        finally:
            inner.close()
        assert res.history == ref.history
        np.testing.assert_array_equal(res.x, ref.x)
        assert res.backend == f"chaos:{backend}"
        fault = res.fault_stats
        assert fault.workers_lost == 1
        assert fault.blocks_requeued == 2  # 4 blocks over 2 workers
        assert fault.replies_dropped == 1
        crashes = [ev for ev in injector.log if ev.kind == "crash"]
        assert len(crashes) == 1 and crashes[0].round == 2

    def test_counters_replay_deterministically(self, backend):
        """Same seed => same fault schedule => same counters."""
        A, b, part, scheme = _problem()
        stopping = StoppingCriterion(tolerance=1e-300, max_iterations=8)

        def run(seed):
            injector = FaultInjector(
                seed=seed, crash_rounds=(3,), drop_rate=0.3, delay_rate=0.2,
                delay_seconds=0.001,
            )
            inner, chaos = self._chaos(backend, injector)
            try:
                res = multisplitting_iterate(
                    A, b, part, scheme, get_solver("scipy"),
                    stopping=stopping, executor=chaos, fault_policy=_POLICY,
                )
            finally:
                inner.close()
            f = res.fault_stats
            schedule = [(ev.kind, ev.round, ev.worker, ev.block)
                        for ev in injector.log]
            return (
                f.workers_lost, f.blocks_requeued, f.replies_dropped,
                f.delays_injected, schedule, res.x,
            )

        first = run(11)
        second = run(11)
        assert first[:5] == second[:5]
        np.testing.assert_array_equal(first[5], second[5])

    def test_respawn_under_worker_crash(self, backend):
        """respawn=True replaces the corpse instead of packing survivors."""
        A, b, part, scheme = _problem()
        stopping = StoppingCriterion(tolerance=1e-300, max_iterations=8)
        ref = multisplitting_iterate(
            A, b, part, scheme, get_solver("scipy"), stopping=stopping
        )
        policy = FaultPolicy(heartbeat_interval=0.1, respawn=True)
        inner, chaos = self._chaos(backend, FaultInjector(seed=7, crash_rounds=(3,)))
        try:
            res = multisplitting_iterate(
                A, b, part, scheme, get_solver("scipy"),
                stopping=stopping, executor=chaos, fault_policy=policy,
            )
        finally:
            inner.close()
        np.testing.assert_array_equal(res.x, ref.x)
        assert res.fault_stats.workers_lost == 1
        assert res.fault_stats.respawns == 1

    def test_chaotic_async_true_residual_under_faults(self, backend):
        """The async-emulating driver's stop stays sound under faults:
        a reported convergence is verified against the true residual."""
        A, b, part, scheme = _problem()
        tol = 1e-8
        injector = FaultInjector(seed=5, crash_rounds=(4,), drop_rounds=(7,))
        inner, chaos = self._chaos(backend, injector)
        try:
            res = chaotic_iterate(
                A, b, part, scheme, get_solver("scipy"),
                stopping=StoppingCriterion(
                    tolerance=tol, consecutive=3, max_iterations=2_000
                ),
                executor=chaos, fault_policy=_POLICY, seed=1,
            )
        finally:
            inner.close()
        assert res.converged
        assert res.fault_stats.workers_lost == 1
        row_sums = np.abs(A).sum(axis=1)
        norm_A = float(np.max(np.asarray(row_sums)))
        assert res.residual <= tol * max(1.0, norm_A)

    def test_cache_counters_survive_recovery(self, backend):
        """Factor accounting stays coherent when a worker is lost: the
        adopters' refactors are honest misses, never silent work."""
        A, b, part, scheme = _problem()
        cache = FactorizationCache()
        stopping = StoppingCriterion(tolerance=1e-300, max_iterations=8)
        inner, chaos = self._chaos(backend, FaultInjector(seed=9, crash_rounds=(2,)))
        try:
            res = multisplitting_iterate(
                A, b, part, scheme, get_solver("scipy"),
                stopping=stopping, cache=cache, executor=chaos,
                fault_policy=_POLICY,
            )
        finally:
            inner.close()
        stats = res.cache_stats
        assert stats is not None
        # Every block was factored at least once; the crash may add
        # refactors (worker-local caches die with their worker) but can
        # never lose factorizations.
        assert stats.misses >= part.nprocs or stats.hits > 0


class TestDelayDropConformance:
    """Delays and dropped replies are real on every backend.

    A dropped reply is re-requested and a delay only stalls dispatch,
    so iterates stay bit-identical to the fault-free inline run, and
    the counters are exactly the injected schedule's.
    """

    def test_sync_bit_identical_with_exact_counters(self, backend):
        A, b, part, scheme = _problem()
        stopping = StoppingCriterion(tolerance=1e-300, max_iterations=8)
        ref = multisplitting_iterate(
            A, b, part, scheme, get_solver("scipy"), stopping=stopping
        )
        injector = FaultInjector(
            seed=3, delay_rounds=(1, 4), drop_rounds=(2, 5, 6),
            delay_seconds=0.001,
        )
        chaos = ChaosExecutor(_make_executor(backend), injector)
        try:
            res = multisplitting_iterate(
                A, b, part, scheme, get_solver("scipy"),
                stopping=stopping, executor=chaos,
            )
        finally:
            chaos.close()
        assert res.history == ref.history
        np.testing.assert_array_equal(res.x, ref.x)
        fault = res.fault_stats
        assert fault.delays_injected == 2
        assert fault.replies_dropped == 3
        assert fault.workers_lost == fault.blocks_requeued == 0
        assert [(ev.kind, ev.round) for ev in injector.log] == [
            ("delay", 1), ("drop", 2), ("delay", 4), ("drop", 5), ("drop", 6),
        ]

    def test_chaotic_seeded_rates_bit_identical(self, backend):
        """Seeded rates: the counters are the log's, the iterates inline's."""
        A, b, part, scheme = _problem()
        stopping = StoppingCriterion(tolerance=1e-300, max_iterations=12)
        ref = chaotic_iterate(
            A, b, part, scheme, get_solver("scipy"), stopping=stopping, seed=2
        )
        injector = FaultInjector(
            seed=8, delay_rate=0.3, drop_rate=0.4, delay_seconds=0.001
        )
        chaos = ChaosExecutor(_make_executor(backend), injector)
        try:
            res = chaotic_iterate(
                A, b, part, scheme, get_solver("scipy"),
                stopping=stopping, seed=2, executor=chaos,
            )
        finally:
            chaos.close()
        assert res.history == ref.history
        np.testing.assert_array_equal(res.x, ref.x)
        kinds = [ev.kind for ev in injector.log]
        assert res.fault_stats.delays_injected == kinds.count("delay") > 0
        assert res.fault_stats.replies_dropped == kinds.count("drop") > 0
        assert res.fault_stats.workers_lost == 0


class TestMinimalDelegatingExecutor:
    """The smallest wrapper the contract admits runs every driver.

    A wrapper that forwards only the binding, the solves and the
    counters -- no membership verb, the shape of the performance
    ledger's tracing wrapper -- must run both drivers and the facade,
    with ``elastic`` off and on, bit-identical to inline: no run path
    may call a membership verb on an executor without a fleet.
    """

    class _Delegating(Executor):
        name = "delegating"

        def __init__(self):
            self.inner = get_executor("inline")

        def attach(self, A, b, sets, solver, *, cache=None, placement=None,
                   fault_policy=None):
            self.inner.attach(
                A, b, sets, solver,
                cache=cache, placement=placement, fault_policy=fault_policy,
            )

        def detach(self):
            self.inner.detach()

        def solve_blocks(self, tasks):
            return self.inner.solve_blocks(tasks)

        def map(self, fn, items):
            return self.inner.map(fn, items)

        def block_seconds(self):
            return self.inner.block_seconds()

        def run_cache_stats(self):
            return self.inner.run_cache_stats()

        def fault_stats(self):
            return self.inner.fault_stats()

        def wire_stats(self):
            return self.inner.wire_stats()

    @pytest.mark.parametrize("elastic", [None, True])
    def test_drivers_bit_identical(self, elastic):
        A, b, part, scheme = _problem()
        stopping = StoppingCriterion(tolerance=1e-300, max_iterations=6)
        for driver, extra in (
            (multisplitting_iterate, {}), (chaotic_iterate, {"seed": 4}),
        ):
            ref = driver(
                A, b, part, scheme, get_solver("scipy"), stopping=stopping,
                **extra,
            )
            ex = self._Delegating()
            try:
                res = driver(
                    A, b, part, scheme, get_solver("scipy"), stopping=stopping,
                    executor=ex, elastic=elastic, **extra,
                )
            finally:
                ex.close()
            assert res.history == ref.history
            np.testing.assert_array_equal(res.x, ref.x)

    @pytest.mark.parametrize("elastic", [None, True])
    def test_facade_bit_identical(self, elastic):
        from repro.core.solver import MultisplittingSolver

        A, b, _, _ = _problem()
        ref = MultisplittingSolver(4, mode="sequential").solve(A, b)
        ex = self._Delegating()
        try:
            res = MultisplittingSolver(
                4, mode="sequential", backend=ex, elastic=elastic
            ).solve(A, b)
        finally:
            ex.close()
        assert res.history == ref.history
        np.testing.assert_array_equal(res.x, ref.x)


class TestInvariantConformance:
    """The explorer's spec predicates over *real* executor state.

    ``repro.check.invariants`` is one statement of correctness checked
    in two places: after every step of every explored model schedule
    (``tests/test_check_models.py``), and here -- over the live owner
    maps the actual process/socket executors maintain through recovery.
    A protocol change that breaks the spec fails both suites.
    """

    @pytest.mark.parametrize("name", ["processes", "sockets"])
    def test_recovery_leaves_no_orphans_single_owners(self, name):
        from repro.check.invariants import no_orphans, single_owner

        A, b, part, _ = _problem()
        ex = _make_executor(name)
        try:
            ex.attach(A, b, part.sets, get_solver("scipy"), fault_policy=_POLICY)
            z = np.zeros(b.shape)
            ex.solve_round([z] * part.nprocs)
            assert ex.kill_worker(0)
            ex.solve_round([z] * part.nprocs)  # recovers mid-call
            alive = ex.alive_workers()
            # Post-recovery quiescence: every block is owned, owned
            # once, and owned by a live worker -- exactly what the
            # readoption model asserts at its own quiescent states.
            assert no_orphans(ex.owner_map(), alive) is None
            claims = {l: [w] for l, w in ex.owner_map().items()}
            assert single_owner(claims) is None
            assert set(ex.owner_map()) == set(range(part.nprocs))
        finally:
            ex.close()

    @pytest.mark.parametrize("name", ["processes", "sockets"])
    def test_respawn_recovery_also_satisfies_the_spec(self, name):
        from repro.check.invariants import no_orphans

        A, b, part, _ = _problem()
        ex = _make_executor(name)
        try:
            ex.attach(
                A, b, part.sets, get_solver("scipy"),
                fault_policy=FaultPolicy(heartbeat_interval=0.1, respawn=True),
            )
            z = np.zeros(b.shape)
            ex.solve_round([z] * part.nprocs)
            assert ex.kill_worker(1)
            ex.solve_round([z] * part.nprocs)
            assert no_orphans(ex.owner_map(), ex.alive_workers()) is None
        finally:
            ex.close()
