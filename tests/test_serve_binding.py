"""A tenant is bound once -- and every batch is still the solver's, bit for bit.

``SolverPool`` derives what depends on the matrix alone (partition,
weighting, band slices, cache keys) on a key's first batch and keeps it;
:func:`repro.core.local.build_local_system` became the composition of
the half that reads ``A`` (:func:`slice_local_system`) and the half that
binds a right-hand side (:func:`bind_local_system`).  The function as it
was survives here only, as the reference the two halves are compared
against field for field; the pool is compared against a fresh
``MultisplittingSolver`` per batch, results and cache counters alike.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro import MultisplittingSolver
from repro.core.local import (
    LocalSystem,
    bind_local_system,
    build_local_system,
    build_local_systems,
    dep_entries,
    slice_local_system,
)
from repro.core.partition import interleaved_partition, uniform_bands
from repro.direct import get_solver
from repro.direct.cache import FactorizationCache
from repro.matrices import diagonally_dominant
from repro.runtime import InlineExecutor, ThreadExecutor
from repro.serve import SolverPool

N, L = 96, 4
LAYOUTS = {
    "bands": {},
    "schwarz": {"partition_strategy": "schwarz", "overlap": 3, "weighting": "schwarz"},
    "interleaved": {"partition_strategy": "interleaved"},
}


def matrix(seed: int = 3, n: int = N):
    return diagonally_dominant(n, dominance=1.5, bandwidth=4, seed=seed)


def reference_build_local_system(
    csr, b, rows, index, solver, *, cache=None, band=None, b_sub=None
) -> LocalSystem:
    """``build_local_system`` as it was before it was split in two."""
    rows = np.asarray(rows, dtype=np.int64)
    if band is None:
        band = csr[rows, :].tocsr()
    else:
        band = band.tocsr()
    if b_sub is None:
        b_sub = b[rows]
    b_sub = np.asarray(b_sub, dtype=float).copy()
    band, keep = dep_entries(band, rows)
    a_sub = band[:, rows].tocsc()
    indptr = np.concatenate(([0], np.cumsum(keep)))[band.indptr]
    dep = sp.csr_matrix((band.data[keep], band.indices[keep], indptr), shape=band.shape)
    if cache is not None:
        key = cache.key_for(solver, a_sub)
        fact = cache.factor(solver, a_sub, key=key)
    else:
        key = None
        fact = solver.factor(a_sub)
    return LocalSystem(
        index=index, rows=rows, factorization=fact, dep=dep, b_sub=b_sub,
        rhs_flops=2.0 * dep.nnz, a_sub=a_sub.tocsr(), solver=solver,
        cache=cache, cache_key=key,
    )


def assert_same_csr(got, want) -> None:
    assert got.format == want.format == "csr" and got.shape == want.shape
    for a, b in ((got.indptr, want.indptr), (got.indices, want.indices), (got.data, want.data)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert got.has_canonical_format == want.has_canonical_format


def assert_same_system(got: LocalSystem, want: LocalSystem) -> None:
    assert got.index == want.index and got.rhs_flops == want.rhs_flops
    assert np.array_equal(got.rows, want.rows) and got.rows.dtype == want.rows.dtype
    assert got.b_sub.dtype == want.b_sub.dtype and np.array_equal(got.b_sub, want.b_sub)
    assert_same_csr(got.dep, want.dep)
    assert_same_csr(got.a_sub, want.a_sub)
    assert got.cache_key == want.cache_key
    assert got.solver is want.solver
    z = np.linspace(-1.0, 1.0, got.dep.shape[1])
    if got.b_sub.ndim == 2:
        z = np.outer(z, np.arange(1.0, 1.0 + got.b_sub.shape[1]))
    assert np.array_equal(got.solve_with(z), want.solve_with(z))


def partitions(n: int):
    return {
        "bands": uniform_bands(n, L).to_general(),
        "overlap": uniform_bands(n, L, overlap=3).to_general(),
        "interleaved": interleaved_partition(n, L, chunk=5, overlap=1),
    }


class TestSliceThenBindIsTheOldBuild:
    @pytest.mark.parametrize("shape", ["bands", "overlap", "interleaved"])
    @pytest.mark.parametrize("kernel", ["scipy", "banded", "dense"])
    @pytest.mark.parametrize("k", [None, 3])
    def test_field_for_field_on_both_inputs(self, shape, kernel, k):
        A = matrix()
        rng = np.random.default_rng(1)
        b = rng.standard_normal(N if k is None else (N, k))
        solver = get_solver(kernel)
        for l, rows in enumerate(partitions(N)[shape].sets):
            want = reference_build_local_system(
                A, b, rows, l, solver, cache=FactorizationCache()
            )
            whole = build_local_system(A, b, rows, l, solver, cache=FactorizationCache())
            rows_only = build_local_system(
                None, None, rows, l, solver, cache=FactorizationCache(),
                band=A[rows, :], b_sub=b[rows],
            )
            halves = bind_local_system(
                slice_local_system(A, rows, l), b[rows], solver, cache=FactorizationCache()
            )
            uncached = build_local_system(A, b, rows, l, solver)
            for got in (whole, rows_only, halves):
                assert_same_system(got, want)
            assert uncached.cache_key is None and uncached.cache is None
            assert_same_csr(uncached.a_sub, want.a_sub)

    def test_a_kept_slice_binds_any_number_of_right_hand_sides(self):
        A = matrix()
        solver, cache = get_solver("scipy"), FactorizationCache()
        rows = uniform_bands(N, L).to_general().sets[1]
        kept = slice_local_system(A, rows, 1)
        kept.cache_key = cache.key_for(solver, kept.a_sub)
        rng = np.random.default_rng(2)
        for k in (None, 1, 4):
            b = rng.standard_normal(N if k is None else (N, k))
            got = bind_local_system(kept, b[rows], solver, cache=cache)
            assert_same_system(
                got, reference_build_local_system(A, b, rows, 1, solver, cache=cache)
            )
            assert got.dep is kept.dep and got.a_sub is kept.a_sub  # bound, not copied
            assert got.b_sub is not b  # the caller's right-hand side is only read
        assert cache.stats.misses == 1

    def test_build_local_systems_with_slices_skips_only_the_slicing(self):
        A = matrix()
        sets = uniform_bands(N, L, overlap=2).to_general().sets
        solver = get_solver("scipy")
        b = np.random.default_rng(3).standard_normal((N, 2))
        slices = [slice_local_system(A, rows, l) for l, rows in enumerate(sets)]
        got = build_local_systems(None, b, sets, solver, slices=slices)
        for system, want in zip(got, build_local_systems(A, b, sets, solver)):
            assert_same_csr(system.dep, want.dep)
            assert np.array_equal(system.b_sub, want.b_sub)
        with pytest.raises(ValueError, match="shape"):
            build_local_systems(None, b[:-1], sets, solver, slices=slices)


class TestHandOverIsOneShotAndExact:
    @pytest.mark.parametrize("executor", [InlineExecutor, ThreadExecutor])
    def test_only_the_very_same_matrix_and_sets_take_the_slices(self, executor):
        A, other = matrix(3), matrix(4)
        sets = uniform_bands(N, L).to_general().sets
        solver = get_solver("scipy")
        b = np.ones(N)
        slices = [slice_local_system(A, rows, l) for l, rows in enumerate(sets)]
        with executor() as ex:
            ex.hand_over(A, sets, slices)
            ex.attach(A, b, sets, solver)
            assert all(s.dep is sl.dep for s, sl in zip(ex.systems, slices))
            ex.attach(A, b, sets, solver)  # consumed: this one slices afresh
            assert not any(s.dep is sl.dep for s, sl in zip(ex.systems, slices))
            ex.hand_over(A, sets, slices)
            ex.attach(other, b, sets, solver)  # not the matrix they were cut from
            want = build_local_systems(other, b, sets, solver)
            for system, ref in zip(ex.systems, want):
                assert_same_csr(system.dep, ref.dep)
            ex.attach(A, b, sets, solver)  # and the stale hand-over is gone
            assert not any(s.dep is sl.dep for s, sl in zip(ex.systems, slices))
            ex.hand_over(A, sets, slices)
            ex.attach(A, b, list(sets), solver)  # equal sets, another object
            assert not any(s.dep is sl.dep for s, sl in zip(ex.systems, slices))


def counters(stats) -> tuple[int, int, int]:
    return stats.hits, stats.misses, stats.evictions


class TestEveryBatchIsTheSolvers:
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("k", [1, 5])
    def test_first_warm_and_evicted_batches(self, layout, k):
        """The pool against ``solver.solve`` on a cache of the same size,
        batch by batch: first (``L`` misses), warm (none), another
        tenant (evicts all ``L``), then the first tenant again."""
        kwargs = LAYOUTS[layout]
        tenants = [matrix(3), matrix(4)]
        rng = np.random.default_rng(5)
        reference_cache = FactorizationCache(capacity=L)
        with SolverPool(processors=L, cache_capacity=L, **kwargs) as pool, \
                MultisplittingSolver(
                    L, mode="sequential", cache=reference_cache, **kwargs
                ) as reference:
            keys = [pool.register(A) for A in tenants]
            for step, t in enumerate([0, 0, 1, 0, 0]):
                B = rng.standard_normal((N, k))
                before = pool.cache_stats(), reference_cache.stats.snapshot()
                X = pool.solve_batch(keys[t], B)
                want = reference.solve(tenants[t], B)
                fresh = MultisplittingSolver(L, mode="sequential", **kwargs).solve(tenants[t], B)
                assert np.array_equal(X, want.x) and np.array_equal(X, fresh.x), (layout, step)
                delta = counters(pool.cache_stats().since(before[0]))
                assert delta == counters(reference_cache.stats.since(before[1])), (layout, step)
                assert delta[1:] == [(L, 0), (0, 0), (L, L), (L, L), (0, 0)][step]

    def test_per_band_kernels_key_each_band_under_its_own(self):
        kernels = ["scipy", "banded", "scipy", "dense"]
        A = matrix()
        B = np.random.default_rng(6).standard_normal((N, 2))
        with SolverPool(processors=L, direct_solver=kernels) as pool:
            key = pool.register(A)
            first, warm = pool.solve_batch(key, B), pool.solve_batch(key, B)
            stats = pool.cache_stats()
        want = MultisplittingSolver(L, mode="sequential", direct_solver=kernels).solve(A, B)
        assert np.array_equal(first, want.x) and np.array_equal(warm, want.x)
        assert stats.misses == L

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_other_backends_under_the_pool(self, backend):
        """Threads bind the handed-over slices on their own pool; a fleet
        keeps slicing and shipping at attach and takes the partition."""
        A = matrix()
        B = np.random.default_rng(7).standard_normal((N, 3))
        with SolverPool(processors=L, backend=backend) as pool:
            key = pool.register(A)
            first, warm = pool.solve_batch(key, B), pool.solve_batch(key, B)
            sliced = pool._tenants[key].slices
        want = MultisplittingSolver(L, mode="sequential").solve(A, B)
        assert np.array_equal(first, want.x) and np.array_equal(warm, want.x)
        assert (sliced is None) == (backend == "processes")

    def test_a_failed_batch_leaves_nothing_for_the_next_tenant(self):
        A, other = matrix(3), matrix(4)
        with SolverPool(processors=L) as pool:
            key, key_other = pool.register(A), pool.register(other)
            with pytest.raises(ValueError):
                pool.solve_batch(key, np.ones((N + 1, 1)))
            assert not pool._one_batch.locked()
            B = np.ones((N, 1))
            X = pool.solve_batch(key_other, B)
        want = MultisplittingSolver(L, mode="sequential").solve(other, B)
        assert np.array_equal(X, want.x)


class TestARegisteredMatrixIsImmutable:
    def test_mutated_matrix_registers_under_a_new_key_with_its_own_binding(self):
        A = matrix()
        B = np.random.default_rng(8).standard_normal((N, 2))
        with SolverPool(processors=L) as pool:
            key = pool.register(A)
            assert pool._tenants[key].layout is None  # bound by its first batch
            X = pool.solve_batch(key, B)
            mutated = A.copy()
            mutated.data[0] *= 2.0
            key_mutated = pool.register(mutated)
            assert key_mutated != key and pool.register(A) == key
            Y = pool.solve_batch(key_mutated, B)
            bound, rebound = pool._tenants[key], pool._tenants[key_mutated]
            assert bound.layout is not rebound.layout and bound.slices is not rebound.slices
            assert bound.slices[0].cache_key != rebound.slices[0].cache_key
            # content keying: the three bands the mutation missed are shared
            assert bound.slices[1].cache_key == rebound.slices[1].cache_key
            assert pool.cache_stats().misses == L + 1
        fresh = MultisplittingSolver(L, mode="sequential")
        assert np.array_equal(X, fresh.solve(A, B).x)
        assert np.array_equal(Y, fresh.solve(mutated, B).x)
        assert not np.array_equal(X, Y)
