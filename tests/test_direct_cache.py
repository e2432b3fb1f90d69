"""Property-based and unit tests for the factorization-reuse subsystem."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.direct import (
    FactorizationCache,
    ScipySuperLU,
    get_solver,
    matrix_fingerprint,
    solver_fingerprint,
)
from repro.matrices import diagonally_dominant, poisson_2d, rhs_for_solution

KERNELS = ["dense", "banded", "scipy"]


def random_spd(n: int, seed: int) -> np.ndarray:
    """Random SPD matrix (well conditioned via a diagonal shift)."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    return G @ G.T + n * np.eye(n)


class TestCacheProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(4, 24),
        seed=st.integers(0, 10_000),
        kernel=st.sampled_from(KERNELS),
    )
    def test_cached_resolve_matches_fresh_factor(self, n, seed, kernel):
        """A cached re-solve equals a fresh factor-and-solve to machine precision."""
        A = diagonally_dominant(n, dominance=1.5, bandwidth=max(2, n // 4), seed=seed)
        b, _ = rhs_for_solution(A, seed=seed + 1)
        solver = get_solver(kernel)
        cache = FactorizationCache()
        cache.factor(solver, A)  # miss: populates the entry
        x_cached = cache.factor(solver, A).solve(b)  # hit: reused factors
        x_fresh = solver.factor(A).solve(b)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        np.testing.assert_array_equal(x_cached, x_fresh)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(4, 20), seed=st.integers(0, 10_000))
    def test_spd_cached_resolve_exact(self, n, seed):
        """Same property on random SPD matrices through the dense kernel."""
        A = random_spd(n, seed)
        b = np.random.default_rng(seed + 1).standard_normal(n)
        solver = get_solver("dense")
        cache = FactorizationCache()
        x_cached = cache.factor(solver, A).solve(b)
        again = cache.factor(solver, A).solve(b)
        np.testing.assert_array_equal(x_cached, again)
        np.testing.assert_array_equal(x_cached, solver.factor(A).solve(b))

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(4, 20),
        seed=st.integers(0, 10_000),
        i=st.integers(0, 19),
        bump=st.floats(0.5, 3.0),
    )
    def test_mutation_invalidates_entry(self, n, seed, i, bump):
        """Mutating the matrix changes the key: the stale entry is unreachable."""
        i = i % n
        A = random_spd(n, seed)
        solver = get_solver("dense")
        cache = FactorizationCache()
        key_before = cache.key_for(solver, A)
        cache.factor(solver, A, key=key_before)
        A[i, i] += bump  # in-place mutation
        key_after = cache.key_for(solver, A)
        assert key_after != key_before
        fact = cache.factor(solver, A)  # must be a fresh factorization
        assert cache.stats.misses == 2
        b = np.random.default_rng(seed + 2).standard_normal(n)
        np.testing.assert_allclose(A @ fact.solve(b), b, atol=1e-8 * n)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_sparse_mutation_detected(self, seed):
        """Value and structure mutations of sparse matrices both change the key."""
        A = diagonally_dominant(12, dominance=2.0, bandwidth=3, seed=seed).tocsr()
        solver = get_solver("scipy")
        cache = FactorizationCache()
        k0 = cache.key_for(solver, A)
        A.data[0] *= 1.5  # value mutation, same structure
        k1 = cache.key_for(solver, A)
        assert k1 != k0
        B = A.tolil()
        B[0, A.shape[0] - 1] = 0.125  # structural mutation
        k2 = cache.key_for(solver, B.tocsr())
        assert k2 != k1


class TestCacheMechanics:
    def test_hit_returns_same_handle(self):
        A = poisson_2d(5)
        solver = get_solver("scipy")
        cache = FactorizationCache()
        f1 = cache.factor(solver, A)
        f2 = cache.factor(solver, A)
        assert f1 is f2

    def test_solver_config_separates_entries(self):
        """Different kernel parameters must not share factorizations."""
        A = poisson_2d(4)
        s_colamd = ScipySuperLU(permc_spec="COLAMD")
        s_nat = ScipySuperLU(permc_spec="NATURAL")
        assert solver_fingerprint(s_colamd) != solver_fingerprint(s_nat)
        cache = FactorizationCache()
        cache.factor(s_colamd, A)
        cache.factor(s_nat, A)
        assert cache.stats.misses == 2
        # same config, different instance: shares the entry
        cache.factor(ScipySuperLU(permc_spec="COLAMD"), A)
        assert cache.stats.hits == 1

    def test_dense_and_sparse_content_share_nothing(self):
        A = poisson_2d(4)
        assert matrix_fingerprint(A) != matrix_fingerprint(A.toarray())

    def test_lru_eviction(self):
        solver = get_solver("dense")
        cache = FactorizationCache(capacity=2)
        mats = [random_spd(6, s) for s in range(3)]
        keys = [cache.key_for(solver, M) for M in mats]
        for M, k in zip(mats, keys):
            cache.factor(solver, M, key=k)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert not cache.contains(keys[0])  # oldest evicted
        assert cache.contains(keys[1]) and cache.contains(keys[2])
        # evicted entry transparently re-factors (a new miss)
        cache.factor(solver, mats[0], key=keys[0])
        assert cache.stats.misses == 4

    def test_invalidate_and_clear(self):
        solver = get_solver("dense")
        cache = FactorizationCache()
        A = random_spd(5, 0)
        key = cache.key_for(solver, A)
        cache.factor(solver, A, key=key)
        assert cache.invalidate(key)
        assert not cache.invalidate(key)  # already gone
        cache.factor(solver, A, key=key)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.invalidations == 2

    def test_stats_delta_and_rates(self):
        solver = get_solver("dense")
        cache = FactorizationCache()
        A = random_spd(5, 1)
        cache.factor(solver, A)
        before = cache.stats.snapshot()
        cache.factor(solver, A)
        delta = cache.stats.since(before)
        assert (delta.hits, delta.misses) == (1, 0)
        assert delta.hit_rate == 1.0
        assert cache.stats.lookups == 2
        assert cache.stats.factor_seconds_saved >= 0.0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FactorizationCache(capacity=0)

    def test_resize_shrink_fires_on_evict_outside_the_lock(self):
        """Regression: a re-entrant ``on_evict`` (one that consults the
        cache it was called from) must not deadlock -- the shrink path
        fires callbacks only after releasing the cache lock."""
        solver = get_solver("dense")
        observed: list[tuple] = []
        cache = FactorizationCache(
            # The callback re-enters the (non-reentrant) cache lock:
            # held-at-callback would deadlock here, not just misbehave.
            on_evict=lambda key: observed.append(
                (key, cache.contains(key), len(cache))
            )
        )
        mats = [random_spd(6, s) for s in range(4)]
        keys = [cache.key_for(solver, M) for M in mats]
        for M, k in zip(mats, keys):
            cache.factor(solver, M, key=k)
        dropped = cache.resize(2)
        assert dropped == 2
        assert [k for k, _, _ in observed] == keys[:2]  # LRU order
        # the entry was already gone and the table consistent in-callback
        assert all(not present and size == 2 for _, present, size in observed)
        assert cache.stats.evictions == 2

    def test_resize_none_unbounds_and_keeps_counters(self):
        solver = get_solver("dense")
        cache = FactorizationCache(capacity=2)
        mats = [random_spd(6, s) for s in range(3)]
        for M in mats:
            cache.factor(solver, M)
        assert cache.stats.evictions == 1
        assert cache.resize(None) == 0
        assert cache.capacity is None
        assert cache.stats.evictions == 1  # counters survive the unbound
        # genuinely unbounded again: re-admitting everything evicts nothing
        for M in mats:
            cache.factor(solver, M)
        assert len(cache) == 3
        assert cache.stats.evictions == 1
        with pytest.raises(ValueError):
            cache.resize(0)

    def test_factor_path_eviction_callback_is_reentrant_safe(self):
        """The admission-driven eviction (factor past capacity) uses the
        same outside-the-lock callback contract as resize."""
        solver = get_solver("dense")
        seen: list[int] = []
        cache = FactorizationCache(
            capacity=1, on_evict=lambda key: seen.append(len(cache))
        )
        cache.factor(solver, random_spd(6, 0))
        cache.factor(solver, random_spd(6, 1))  # evicts the first entry
        assert seen == [1]
        assert cache.stats.evictions == 1

    def test_dtype_distinguishes_sparse_fingerprints(self):
        """Byte-identical buffers under different dtypes must not collide."""
        data_i = np.array([1, 2], dtype=np.int64)
        Ai = sp.csr_matrix((data_i, np.array([0, 1]), np.array([0, 1, 2])), shape=(2, 2))
        Af = sp.csr_matrix(
            (data_i.view(np.float64).copy(), np.array([0, 1]), np.array([0, 1, 2])),
            shape=(2, 2),
        )
        assert matrix_fingerprint(Ai) != matrix_fingerprint(Af)

    def test_non_canonical_sparse_hashes_equal(self):
        """Duplicate-entry CSR equal to a canonical matrix shares its key."""
        dup = sp.csr_matrix(
            (np.array([1.0, 1.0, 2.0]), np.array([0, 0, 1]), np.array([0, 2, 3])),
            shape=(2, 2),
        )
        canon = sp.csr_matrix(np.array([[2.0, 0.0], [0.0, 2.0]]))
        assert matrix_fingerprint(dup) == matrix_fingerprint(canon)
        np.testing.assert_array_equal(dup.data, [1.0, 1.0, 2.0])  # caller untouched

    def test_nested_solver_configs_share_fingerprint(self):
        """Kernels holding kernels fingerprint by value, not by address."""
        from repro.direct.base import DirectSolver

        class Wrap(DirectSolver):
            name = "wrap-for-test"

            def __init__(self, inner):
                self.inner = inner

            def factor(self, A):
                return self.inner.factor(A)

        assert solver_fingerprint(Wrap(get_solver("dense"))) == solver_fingerprint(
            Wrap(get_solver("dense"))
        )
        assert solver_fingerprint(Wrap(get_solver("dense"))) != solver_fingerprint(
            Wrap(get_solver("scipy"))
        )

    def test_undersized_cache_does_not_refactor_per_solve(self):
        """Eviction pressure must fall back to retained handles, not thrash."""
        from repro.core import make_weighting, multisplitting_iterate, uniform_bands
        from repro.core.stopping import StoppingCriterion

        A = diagonally_dominant(120, dominance=1.4, bandwidth=5, seed=13)
        b, _ = rhs_for_solution(A, seed=14)
        part = uniform_bands(120, 4).to_general()
        scheme = make_weighting("ownership", part)
        cache = FactorizationCache(capacity=1)
        stop = StoppingCriterion(tolerance=1e-300, max_iterations=8)
        multisplitting_iterate(
            A, b, part, scheme, get_solver("scipy"), stopping=stop, cache=cache
        )
        assert cache.stats.evictions == 3
        # only the 4 build-time factorizations spent factor time; the
        # per-solve lookups that missed did NOT re-factor
        build_only = FactorizationCache()
        from repro.core.local import build_local_systems

        build_local_systems(A, b, part.sets, get_solver("scipy"), cache=build_only)
        assert cache.stats.factor_seconds_spent < max(
            10 * build_only.stats.factor_seconds_spent, 0.05
        )

    def test_mixed_kernels_share_cache(self):
        """One cache serves a mixed per-band kernel assignment."""
        A = diagonally_dominant(10, dominance=1.5, bandwidth=2, seed=3)
        cache = FactorizationCache()
        for name in KERNELS:
            cache.factor(get_solver(name), A)
        assert cache.stats.misses == len(KERNELS)
        assert len(cache) == len(KERNELS)


class TestCacheOnSolverPaths:
    def test_sequential_driver_counts_reuse(self):
        from repro.core import make_weighting, multisplitting_iterate, uniform_bands

        A = diagonally_dominant(60, dominance=1.4, bandwidth=5, seed=7)
        b, _ = rhs_for_solution(A, seed=8)
        part = uniform_bands(60, 3).to_general()
        scheme = make_weighting("ownership", part)
        cache = FactorizationCache()
        res = multisplitting_iterate(A, b, part, scheme, get_solver("scipy"), cache=cache)
        assert res.converged
        assert res.cache_stats.misses == 3  # one factorization per sub-block
        assert res.cache_stats.hits == res.iterations * 3  # one lookup per solve

    def test_reuse_changes_no_bit(self):
        """A factor served from the cache is the factor a fresh
        factorization would give: identical iterates, and the hits
        report the factoring time they saved."""
        from repro.core import make_weighting, multisplitting_iterate, uniform_bands

        A = diagonally_dominant(60, dominance=1.4, bandwidth=5, seed=7)
        b, _ = rhs_for_solution(A, seed=8)
        part = uniform_bands(60, 3).to_general()
        scheme = make_weighting("ownership", part)
        plain = multisplitting_iterate(A, b, part, scheme, get_solver("scipy"))
        cache = FactorizationCache()
        for _ in range(2):
            cached = multisplitting_iterate(
                A, b, part, scheme, get_solver("scipy"), cache=cache
            )
            assert cached.history == plain.history
            np.testing.assert_array_equal(cached.x, plain.x)
        assert cache.stats.misses == 3
        assert cache.stats.factor_seconds_saved > 0.0

    def test_facade_reuses_across_solves(self):
        from repro.core import MultisplittingSolver

        A = diagonally_dominant(50, dominance=1.4, bandwidth=4, seed=9)
        b, _ = rhs_for_solution(A, seed=10)
        ms = MultisplittingSolver(processors=4, mode="synchronous")
        r1 = ms.solve(A, b)
        r2 = ms.solve(A, b)
        assert r1.converged and r2.converged
        assert r1.cache_stats.misses == 4
        assert r2.cache_stats.misses == 0  # every factor reused
        assert r2.cache_stats.hits > 0

    def test_facade_cache_opt_out(self):
        from repro.core import MultisplittingSolver

        A = diagonally_dominant(30, dominance=1.5, bandwidth=3, seed=11)
        b, _ = rhs_for_solution(A, seed=12)
        ms = MultisplittingSolver(processors=2, mode="sequential", cache=False)
        res = ms.solve(A, b)
        assert res.converged
        assert res.cache_stats is None

    def test_newton_chord_reuses_factors(self):
        from repro.core import newton_multisplitting

        n = 30
        c = np.linspace(0.5, 1.5, n)  # asymmetric: sub-blocks have distinct content

        def F(x):
            return np.tanh(x) + 0.5 * x - c

        def J(x):
            return sp.diags(1.0 / np.cosh(x) ** 2 + 0.5).tocsr()

        chord = newton_multisplitting(
            F, J, np.zeros(n), processors=3, jacobian_refresh=4
        )
        assert chord.converged
        # every Newton step triggers 3 sub-block lookups per inner iteration;
        # only refresh steps (1 in 4) may factor anything new
        factored_steps = chord.cache_stats.misses / 3
        assert factored_steps <= (chord.newton_iterations + 3) // 4 + 1
        assert factored_steps < chord.newton_iterations
        assert chord.cache_stats.hits > 0

    def test_newton_rejects_bad_refresh(self):
        from repro.core import newton_multisplitting

        with pytest.raises(ValueError):
            newton_multisplitting(
                lambda x: x, lambda x: np.eye(2), np.zeros(2), jacobian_refresh=0
            )
