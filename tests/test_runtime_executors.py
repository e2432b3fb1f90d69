"""The Executor contract and cross-backend determinism regressions.

The load-bearing guarantees of :mod:`repro.runtime`:

* synchronous iterates are **bit-identical** across inline / threads /
  processes (a block solve is a pure function of ``(block, z)`` and
  results are gathered in request order);
* the chaotic driver's seeded schedule is backend-independent;
* factor-reuse counters keep meaning the same thing wherever the
  factorization actually ran (driver process or workers);
* the batched ``(n, k)`` synchronous distributed mode matches the
  column-by-column runs and charges bytes that scale with ``k``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    chaotic_iterate,
    make_weighting,
    multisplitting_iterate,
    run_asynchronous,
    run_synchronous,
    uniform_bands,
)
from repro.core.solver import MultisplittingSolver
from repro.direct import get_solver
from repro.direct.cache import FactorizationCache
from repro.grid import cluster1
from repro.matrices import diagonally_dominant, rhs_for_solution
from repro.runtime import (
    Executor,
    InlineExecutor,
    ProcessExecutor,
    ThreadExecutor,
    available_backends,
    get_executor,
)

BACKENDS = ("inline", "threads", "processes")


def _problem(n=96, L=4, seed=5):
    A = diagonally_dominant(n, dominance=1.5, bandwidth=4, seed=seed)
    b, x_true = rhs_for_solution(A, seed=seed + 1)
    part = uniform_bands(n, L).to_general()
    scheme = make_weighting("ownership", part)
    return A, b, part, scheme


@pytest.fixture(scope="module")
def executors():
    """One executor per backend, shared across the module (reuse is the
    intended production shape; it also keeps process spawns to one)."""
    exs = {name: get_executor(name) for name in BACKENDS}
    yield exs
    for ex in exs.values():
        ex.close()


class TestRegistry:
    def test_available_backends(self):
        assert available_backends() == ["inline", "processes", "sockets", "threads"]

    def test_get_executor_by_name(self):
        assert type(get_executor("inline")) is InlineExecutor
        assert type(get_executor("threads")) is ThreadExecutor
        assert type(get_executor("processes")) is ProcessExecutor

    def test_instance_passthrough(self):
        ex = InlineExecutor()
        assert get_executor(ex) is ex
        with pytest.raises(ValueError, match="kwargs"):
            get_executor(ex, max_workers=2)

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown runtime backend"):
            get_executor("gpu")


class TestExecutorContract:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_solve_blocks_subset_and_order(self, executors, name):
        """Any subset, any order; results follow the request order."""
        A, b, part, scheme = _problem()
        ex = executors[name]
        ex.attach(A, b, part.sets, get_solver("scipy"))
        try:
            z = np.ones(b.shape)
            full = ex.solve_round([z] * part.nprocs)
            reordered = ex.solve_blocks([(2, z), (0, z)])
            np.testing.assert_array_equal(reordered[0], full[2])
            np.testing.assert_array_equal(reordered[1], full[0])
            assert ex.nblocks == part.nprocs
        finally:
            ex.detach()
        assert ex.nblocks == 0

    @pytest.mark.parametrize("name", BACKENDS)
    def test_reattach_reuses_workers(self, executors, name):
        """attach/detach cycles on one executor keep working."""
        A, b, part, scheme = _problem()
        ex = executors[name]
        for _ in range(2):
            r = multisplitting_iterate(
                A, b, part, scheme, get_solver("scipy"), executor=ex
            )
            assert r.converged
            assert r.backend == name

    def test_map_preserves_order(self, executors):
        items = list(range(20))
        for name in BACKENDS:
            assert executors[name].map(lambda v: v * v, items) == [
                v * v for v in items
            ]

    def test_block_seconds_accumulate(self, executors):
        A, b, part, scheme = _problem()
        for name in BACKENDS:
            r = multisplitting_iterate(
                A, b, part, scheme, get_solver("scipy"), executor=executors[name]
            )
            assert set(r.block_seconds) == set(range(part.nprocs))
            assert all(v >= 0.0 for v in r.block_seconds.values())
            assert sum(r.block_seconds.values()) > 0.0

    def test_process_duplicate_block_rejected(self, executors):
        A, b, part, scheme = _problem()
        ex = executors["processes"]
        ex.attach(A, b, part.sets, get_solver("scipy"))
        try:
            z = np.zeros(b.shape)
            with pytest.raises(ValueError, match="duplicate block"):
                ex.solve_blocks([(0, z), (0, z)])
        finally:
            ex.detach()

    def test_process_worker_error_surfaces(self, executors):
        """A failing kernel in a worker raises (with the traceback) here."""
        A, b, part, scheme = _problem()
        A = A.tolil()
        A[0, :] = 0.0  # singular first block
        ex = executors["processes"]
        with pytest.raises(RuntimeError, match="worker"):
            ex.attach(A.tocsr(), b, part.sets, get_solver("scipy"))
        # the executor stays usable afterwards
        A2, b2, part2, _ = _problem(seed=9)
        ex.attach(A2, b2, part2.sets, get_solver("scipy"))
        ex.detach()


class TestCrossBackendDeterminism:
    def test_synchronous_bit_identical(self, executors):
        A, b, part, scheme = _problem()
        results = {}
        for name in BACKENDS:
            cache = FactorizationCache()
            results[name] = multisplitting_iterate(
                A, b, part, scheme, get_solver("scipy"),
                cache=cache, executor=executors[name],
            )
        ref = results["inline"]
        assert ref.converged
        for name in ("threads", "processes"):
            r = results[name]
            assert r.iterations == ref.iterations
            assert r.history == ref.history
            np.testing.assert_array_equal(r.x, ref.x)

    def test_synchronous_batched_bit_identical(self, executors):
        A, b, part, scheme = _problem()
        B = np.stack([b, -b, 0.5 * b + 1.0], axis=1)
        results = {
            name: multisplitting_iterate(
                A, B, part, scheme, get_solver("scipy"), executor=executors[name]
            )
            for name in BACKENDS
        }
        for name in ("threads", "processes"):
            np.testing.assert_array_equal(results[name].x, results["inline"].x)

    def test_chaotic_schedule_backend_independent(self, executors):
        A, b, part, scheme = _problem()
        results = {
            name: chaotic_iterate(
                A, b, part, scheme, get_solver("scipy"),
                seed=11, executor=executors[name],
            )
            for name in BACKENDS
        }
        ref = results["inline"]
        assert ref.converged
        tol = ref.history  # same seeded schedule => same monitor trace
        for name in ("threads", "processes"):
            r = results[name]
            assert r.converged
            assert r.iterations == ref.iterations
            assert r.history == tol
            np.testing.assert_array_equal(r.x, ref.x)

    def test_cache_counters_match_where_shared(self, executors):
        """Inline and threads share the caller's cache: same counters.

        The process backend counts in per-worker caches; the invariant
        that survives is factor-once (misses <= blocks) and one lookup
        per block per iteration.
        """
        A, b, part, scheme = _problem()
        stats = {}
        for name in BACKENDS:
            cache = FactorizationCache()
            r = multisplitting_iterate(
                A, b, part, scheme, get_solver("scipy"),
                cache=cache, executor=executors[name],
            )
            stats[name] = (r.cache_stats, r.iterations)
        inline_stats, iters = stats["inline"]
        assert inline_stats.misses == part.nprocs
        assert inline_stats.hits == iters * part.nprocs
        thread_stats, _ = stats["threads"]
        assert (thread_stats.hits, thread_stats.misses) == (
            inline_stats.hits, inline_stats.misses
        )
        proc_stats, _ = stats["processes"]
        # Worker caches persist across bindings, so blocks this module
        # already factored in earlier tests come back as attach-time hits
        # (misses == 0 is the designed steady state).  The accounting
        # invariant: one lookup per block at attach plus one per block
        # per iteration, every one a hit or a miss.
        assert proc_stats.misses <= part.nprocs
        assert proc_stats.hits + proc_stats.misses == (iters + 1) * part.nprocs


class TestSolverFacadeBackend:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_sequential_mode(self, name):
        A, b, part, scheme = _problem()
        with MultisplittingSolver(
            mode="sequential", processors=4, backend=name
        ) as solver:
            res = solver.solve(A, b)
            assert res.converged
            assert res.backend == name
            assert sum(res.block_seconds.values()) > 0.0

    def test_distributed_mode_records_backend(self):
        A, b, part, scheme = _problem()
        with MultisplittingSolver(mode="synchronous", backend="threads") as solver:
            res = solver.solve(A, b, cluster=cluster1(4))
            assert res.converged
            assert res.backend == "threads"
            assert sum(res.block_seconds.values()) > 0.0

    def test_simulated_run_does_not_report_the_fleets_previous_binding(self):
        """The simulated modes never attach the backend, so they have no
        wire traffic or faults of their own -- a reused fleet executor's
        counters from an earlier sequential solve must not resurface."""
        A, b, part, scheme = _problem()
        with ProcessExecutor(max_workers=2) as ex:
            seq = MultisplittingSolver(4, mode="sequential", backend=ex).solve(A, b)
            assert seq.wire["vector_bytes_sent"] > 0
            assert seq.fault_stats is not None
            sim = MultisplittingSolver(4, mode="synchronous", backend=ex).solve(
                A, b, cluster=cluster1(4)
            )
        assert sim.converged and sim.backend == "processes"
        assert sim.wire == {}
        assert sim.fault_stats is None

    def test_threads_on_one_shared_dense_factor_match_inline(self):
        """Every band of ``poisson_2d(24)`` in six has the same content,
        so the factor cache hands one dense factor to all six pool
        threads; their concurrent solves must not disturb each other."""
        from repro.matrices import poisson_2d

        A = poisson_2d(24)
        rng = np.random.default_rng(0)
        options = dict(
            processors=6, mode="sequential", direct_solver="dense",
            max_iterations=100, overlap=0,
        )
        inline = MultisplittingSolver(**options)
        with MultisplittingSolver(backend="threads", **options) as threads:
            for _ in range(24):
                b = rng.standard_normal(A.shape[0])
                ref, res = inline.solve(A, b), threads.solve(A, b)
                assert res.history == ref.history
                np.testing.assert_array_equal(res.x, ref.x)
        assert threads.cache.stats.misses == 1

    def test_executor_instance_not_owned(self):
        A, b, part, scheme = _problem()
        ex = ThreadExecutor(max_workers=2)
        try:
            solver = MultisplittingSolver(
                mode="sequential", processors=4, backend=ex
            )
            assert solver.solve(A, b).converged
            solver.close()
            # the instance survives the solver: still usable
            r = multisplitting_iterate(
                A, b, part, scheme, get_solver("scipy"), executor=ex
            )
            assert r.converged
        finally:
            ex.close()

    def test_unknown_backend_name(self):
        A, b, *_ = _problem()
        solver = MultisplittingSolver(mode="sequential", backend="quantum")
        with pytest.raises(ValueError, match="unknown runtime backend"):
            solver.solve(A, b)


class TestBatchedSynchronousDistributed:
    def test_matches_column_runs(self):
        A, b, part, scheme = _problem(n=90, L=3)
        cols = [b, 2.0 * b, b - 3.0]
        B = np.stack(cols, axis=1)
        batched = run_synchronous(
            A, B, part, scheme, get_solver("scipy"), cluster1(3)
        )
        assert batched.converged
        assert batched.x.shape == (90, 3)
        for j, col in enumerate(cols):
            single = run_synchronous(
                A, col, part, scheme, get_solver("scipy"), cluster1(3)
            )
            assert single.converged
            np.testing.assert_allclose(batched.x[:, j], single.x, atol=1e-7)

    def test_bytes_scale_with_k(self):
        A, b, part, scheme = _problem(n=90, L=3)
        single = run_synchronous(
            A, b, part, scheme, get_solver("scipy"), cluster1(3)
        )
        B = np.stack([b, b, b, b], axis=1)
        batched = run_synchronous(
            A, B, part, scheme, get_solver("scipy"), cluster1(3)
        )
        # identical columns iterate exactly like the single run, so the
        # xsub payload bytes scale ~4x while detection traffic does not.
        assert batched.iterations == single.iterations
        assert batched.stats.bytes_sent > 3 * single.stats.bytes_sent
        np.testing.assert_allclose(batched.x[:, 0], single.x, atol=1e-12)

    def test_memory_charge_scales_with_k(self):
        from repro.core.distributed import band_memory_bytes
        from repro.core.local import build_local_systems

        A, b, part, _ = _problem(n=90, L=3)
        singles = build_local_systems(A, b, part.sets, get_solver("scipy"))
        B = np.stack([b] * 6, axis=1)
        batched = build_local_systems(A, B, part.sets, get_solver("scipy"))
        for s1, s6 in zip(singles, batched):
            assert band_memory_bytes(s6) > band_memory_bytes(s1)

    def test_async_batched_matches_column_runs(self):
        """(n, k) asynchronous runs converge each column like its solo run."""
        A, b, part, scheme = _problem(n=90, L=3)
        cols = [b, 2.0 * b, b - 3.0]
        B = np.stack(cols, axis=1)
        batched = run_asynchronous(
            A, B, part, scheme, get_solver("scipy"), cluster1(3)
        )
        assert batched.converged
        assert batched.x.shape == (90, 3)
        for j, col in enumerate(cols):
            single = run_asynchronous(
                A, col, part, scheme, get_solver("scipy"), cluster1(3)
            )
            assert single.converged
            np.testing.assert_allclose(batched.x[:, j], single.x, atol=1e-6)

    def test_async_batched_bytes_scale_with_k(self):
        """Identical columns: same iterate path, ~k-fold xsub payload bytes."""
        A, b, part, scheme = _problem(n=90, L=3)
        single = run_asynchronous(
            A, b, part, scheme, get_solver("scipy"), cluster1(3)
        )
        B = np.stack([b, b, b, b], axis=1)
        batched = run_asynchronous(
            A, B, part, scheme, get_solver("scipy"), cluster1(3)
        )
        assert batched.converged and single.converged
        assert batched.stats.bytes_sent > 2 * single.stats.bytes_sent
        np.testing.assert_allclose(batched.x[:, 0], single.x, atol=1e-10)

    def test_async_batched_per_column_accounting(self):
        """A hard column keeps iterating even when an easy one settles.

        Column 0 starts at the exact solution (its diffs are tiny from
        the first iteration); column 1 starts from zero.  Per-column
        accounting must keep the run going until BOTH have converged.
        """
        A, b, part, scheme = _problem(n=90, L=3)
        single = run_asynchronous(
            A, b, part, scheme, get_solver("scipy"), cluster1(3)
        )
        assert single.converged
        B = np.stack([b, -3.0 * b], axis=1)
        x0 = np.zeros((90, 2))
        x0[:, 0] = single.x  # column 0 pre-solved
        batched = run_asynchronous(
            A, B, part, scheme, get_solver("scipy"), cluster1(3), x0=x0
        )
        assert batched.converged
        np.testing.assert_allclose(batched.x[:, 1], -3.0 * single.x, atol=1e-6)
