"""Tests for the distributed solvers (sync + async) and the facade."""

import numpy as np
import pytest

from repro.core import (
    MultisplittingSolver,
    StoppingCriterion,
    communication_pattern,
    make_weighting,
    uniform_bands,
)
from repro.core.asynchronous import run_asynchronous
from repro.core.local import build_local_systems
from repro.core.sync import run_synchronous
from repro.direct import get_solver
from repro.matrices import diagonally_dominant, rhs_for_solution
from repro.grid import cluster1, cluster2, cluster3, custom_cluster

SCIPY = get_solver("scipy")


def problem(n=200, dominance=1.5, bandwidth=15, seed=1):
    A = diagonally_dominant(n, dominance=dominance, bandwidth=bandwidth, seed=seed)
    b, x_true = rhs_for_solution(A, seed=seed + 1)
    return A, b, x_true


class TestCommunicationPattern:
    def test_ownership_minimal_neighbours(self):
        A, b, _ = problem(n=120, bandwidth=8)
        part = uniform_bands(120, 4).to_general()
        w = make_weighting("ownership", part)
        systems = build_local_systems(A, b, part.sets, SCIPY)
        pat = communication_pattern(part, w, systems)
        assert pat.deps[0] == [1]
        assert 0 in pat.deps[1] and 2 in pat.deps[1]

    def test_averaging_includes_both_overlap_owners(self):
        A, b, _ = problem(n=120, bandwidth=8)
        part = uniform_bands(120, 4, overlap=10).to_general()
        w_own = make_weighting("ownership", part)
        w_avg = make_weighting("averaging", part)
        systems = build_local_systems(A, b, part.sets, SCIPY)
        pat_own = communication_pattern(part, w_own, systems)
        pat_avg = communication_pattern(part, w_avg, systems)
        total_own = sum(len(d) for d in pat_own.deps)
        total_avg = sum(len(d) for d in pat_avg.deps)
        assert total_avg >= total_own

    def test_terms_cover_needed_columns(self):
        A, b, _ = problem(n=100, bandwidth=6)
        part = uniform_bands(100, 5).to_general()
        w = make_weighting("ownership", part)
        systems = build_local_systems(A, b, part.sets, SCIPY)
        pat = communication_pattern(part, w, systems)
        for l in range(5):
            covered = np.concatenate(
                [t[1] for t in pat.recv_terms[l].values()]
            ) if pat.recv_terms[l] else np.array([], dtype=int)
            np.testing.assert_array_equal(
                np.sort(np.unique(covered)), pat.needed_cols[l]
            )


class TestSynchronous:
    @pytest.mark.parametrize("detection", ["centralized", "decentralized"])
    def test_converges_on_lan(self, detection):
        A, b, x_true = problem()
        part = uniform_bands(200, 6).to_general()
        w = make_weighting("ownership", part)
        res = run_synchronous(A, b, part, w, SCIPY, cluster1(6), detection=detection)
        assert res.status == "ok"
        assert res.residual < 1e-7
        np.testing.assert_allclose(res.x, x_true, atol=1e-6)

    def test_same_iterates_as_sequential(self):
        """The distributed algorithm computes exactly the reference iterates."""
        from repro.core import multisplitting_iterate

        A, b, _ = problem(n=150)
        part = uniform_bands(150, 5).to_general()
        w = make_weighting("ownership", part)
        seq = multisplitting_iterate(A, b, part, w, SCIPY)
        dist = run_synchronous(A, b, part, w, SCIPY, cluster1(5))
        assert dist.iterations == seq.iterations
        np.testing.assert_allclose(dist.x, seq.x, atol=1e-12)

    def test_all_ranks_same_iteration_count(self):
        A, b, _ = problem()
        part = uniform_bands(200, 4).to_general()
        w = make_weighting("ownership", part)
        res = run_synchronous(A, b, part, w, SCIPY, cluster1(4))
        assert len(set(res.per_proc_iterations)) == 1

    def test_max_iterations_status(self):
        A, b, _ = problem(dominance=1.02)
        part = uniform_bands(200, 4).to_general()
        w = make_weighting("ownership", part)
        res = run_synchronous(
            A, b, part, w, SCIPY, cluster1(4),
            stopping=StoppingCriterion(max_iterations=3),
        )
        assert res.status == "max-iterations"
        assert not res.converged

    def test_nem_on_tiny_memory(self):
        A, b, _ = problem(n=400)
        part = uniform_bands(400, 4).to_general()
        w = make_weighting("ownership", part)
        tiny = cluster1(4, memory_scale=1e-6)
        res = run_synchronous(A, b, part, w, SCIPY, tiny)
        assert res.status == "nem"
        assert res.x is None
        assert np.isnan(res.residual)

    def test_needs_enough_hosts(self):
        A, b, _ = problem(n=100)
        part = uniform_bands(100, 8).to_general()
        w = make_weighting("ownership", part)
        with pytest.raises(ValueError):
            run_synchronous(A, b, part, w, SCIPY, cluster1(4))

    def test_stats_collected(self):
        A, b, _ = problem()
        part = uniform_bands(200, 4).to_general()
        w = make_weighting("ownership", part)
        res = run_synchronous(A, b, part, w, SCIPY, cluster1(4))
        assert res.stats is not None
        assert res.stats.messages > 0
        assert res.stats.total_compute_time > 0
        assert res.factorization_time <= res.simulated_time

    def test_wan_slower_than_lan(self):
        A, b, _ = problem()
        part = uniform_bands(200, 6).to_general()
        w = make_weighting("ownership", part)
        lan = run_synchronous(A, b, part, w, SCIPY, cluster1(6))
        wan = run_synchronous(A, b, part, w, SCIPY, cluster3(6))
        assert wan.simulated_time > lan.simulated_time


class TestAsynchronous:
    @pytest.mark.parametrize("detection", ["centralized", "decentralized"])
    def test_converges_on_wan(self, detection):
        A, b, x_true = problem(dominance=2.0)
        part = uniform_bands(200, 6).to_general()
        w = make_weighting("ownership", part)
        res = run_asynchronous(A, b, part, w, SCIPY, cluster3(6), detection=detection)
        assert res.status == "ok"
        assert res.residual < 1e-6
        np.testing.assert_allclose(res.x, x_true, atol=1e-5)

    def test_iteration_counts_differ_per_rank(self):
        """Paper: asynchronous counts 'widely differ from one processor to another'."""
        A, b, _ = problem(dominance=1.5)
        part = uniform_bands(200, 6).to_general()
        w = make_weighting("ownership", part)
        res = run_asynchronous(A, b, part, w, SCIPY, cluster3(6))
        assert len(set(res.per_proc_iterations)) > 1

    def test_more_iterations_than_sync(self):
        A, b, _ = problem(dominance=1.5)
        part = uniform_bands(200, 6).to_general()
        w = make_weighting("ownership", part)
        sync = run_synchronous(A, b, part, w, SCIPY, cluster3(6))
        asy = run_asynchronous(A, b, part, w, SCIPY, cluster3(6))
        assert asy.iterations > sync.iterations

    def test_nem_precheck(self):
        A, b, _ = problem(n=400)
        part = uniform_bands(400, 4).to_general()
        w = make_weighting("ownership", part)
        res = run_asynchronous(A, b, part, w, SCIPY, cluster1(4, memory_scale=1e-6))
        assert res.status == "nem"

    def test_detection_messages_counted(self):
        A, b, _ = problem()
        part = uniform_bands(200, 4).to_general()
        w = make_weighting("ownership", part)
        res = run_asynchronous(A, b, part, w, SCIPY, cluster1(4))
        assert res.detection_messages > 0


class TestFacade:
    def test_sequential_mode(self):
        A, b, x_true = problem()
        s = MultisplittingSolver(4, mode="sequential")
        r = s.solve(A, b)
        assert r.converged and r.simulated_time is None
        np.testing.assert_allclose(r.x, x_true, atol=1e-6)

    def test_synchronous_default_cluster(self):
        A, b, _ = problem()
        s = MultisplittingSolver(4, mode="synchronous")
        r = s.solve(A, b)
        assert r.status == "ok"
        assert r.simulated_time > 0

    def test_asynchronous_mode(self):
        A, b, x_true = problem(dominance=2.0)
        s = MultisplittingSolver(mode="asynchronous")
        r = s.solve(A, b, cluster=cluster2(6))
        assert r.status == "ok"
        assert r.error_vs(x_true) < 1e-5

    def test_proportional_bands_on_heterogeneous_cluster(self):
        A, b, _ = problem(n=300)
        c = custom_cluster("het", {"s": [1e8, 4e8]})
        s = MultisplittingSolver(mode="synchronous")
        part = s.build_partition(300, c, 2)
        sizes = [c_.size for c_ in part.core]
        assert sizes[1] > sizes[0]

    def test_overlap_and_weighting_forwarded(self):
        A, b, x_true = problem(dominance=1.1)
        s = MultisplittingSolver(
            4, mode="sequential", overlap=15, weighting="averaging"
        )
        r = s.solve(A, b)
        assert r.converged
        np.testing.assert_allclose(r.x, x_true, atol=1e-5)

    def test_explicit_partition_accepted(self):
        A, b, _ = problem(n=100)
        s = MultisplittingSolver(mode="sequential")
        part = uniform_bands(100, 2, overlap=5)
        r = s.solve(A, b, partition=part)
        assert r.nprocs == 2 and r.converged

    def test_error_vs_nan_when_nem(self):
        A, b, x_true = problem(n=400)
        s = MultisplittingSolver(4, mode="synchronous")
        r = s.solve(A, b, cluster=cluster1(4, memory_scale=1e-6))
        assert r.status == "nem"
        assert np.isnan(r.error_vs(x_true))

    def test_invalid_options(self):
        with pytest.raises(ValueError):
            MultisplittingSolver(mode="magic")
        with pytest.raises(ValueError):
            MultisplittingSolver(0)
        with pytest.raises(ValueError):
            MultisplittingSolver(overlap=-1)

    def test_direct_solver_instance_accepted(self):
        A, b, _ = problem(n=80)
        s = MultisplittingSolver(2, mode="sequential", direct_solver=get_solver("dense"))
        assert s.solve(A, b).converged
