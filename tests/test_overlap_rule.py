"""The overlap rule: ``overlap=None`` in sequential mode chooses the bands.

The choice is a pure function of the matrix (its content, ``L`` and the
kernel): no right-hand side, no clock, no backend.  These tests pin that
contract, the memo that makes a warm solve free, the cache hygiene of
the probe, and the contraction estimate the rule reads.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import MultisplittingSolver, uniform_bands
from repro.core.stopping import observed_contraction
from repro.matrices import cage_like, diagonally_dominant, poisson_2d
from repro.observe.metrics import MetricsRegistry
from repro.runtime import get_executor
from repro.serve import SolverPool

#: Round-bound at overlap 0 (rounds outweigh the band factors), so the
#: rule picks an overlap: the contract is tested where it does something.
A_ROUNDS = poisson_2d(16)


def _facade(**kwargs):
    return MultisplittingSolver(4, mode="sequential", **kwargs)


def _overlap_of(solver, A) -> int:
    """The overlap the layout of ``A`` runs with (band 0's annex)."""
    part = solver._layout(A)[1]
    overlap = int(part.sets[0].size - part.core[0].size)
    assert solver.chosen_overlap(A) == overlap
    return overlap


def _rhs(A, seed):
    return A @ np.random.default_rng(seed).uniform(-1.0, 1.0, A.shape[0])


def _no_probe(monkeypatch):
    def banned(*args, **kwargs):
        raise AssertionError("the overlap probe ran")

    monkeypatch.setattr(MultisplittingSolver, "_choose_partition", banned)


class TestContract:
    def test_round_bound_matrix_gets_an_overlap(self):
        assert _overlap_of(_facade(), A_ROUNDS) > 0

    def test_right_hand_sides_do_not_move_the_choice(self):
        chosen = set()
        for seed in range(3):
            solver = _facade()
            result = solver.solve(A_ROUNDS, _rhs(A_ROUNDS, seed))
            assert result.converged
            chosen.add(_overlap_of(solver, A_ROUNDS))
        assert len(chosen) == 1

    @pytest.mark.parametrize("e", [3, -2])
    def test_power_of_two_scale_chooses_alike_and_solves_bit_identically(self, e):
        b = _rhs(A_ROUNDS, 0)
        plain = _facade()
        scaled = _facade()
        ref = plain.solve(A_ROUNDS, b)
        res = scaled.solve(A_ROUNDS * 2.0**e, b * 2.0**e)
        assert _overlap_of(scaled, A_ROUNDS * 2.0**e) == _overlap_of(plain, A_ROUNDS)
        assert res.iterations == ref.iterations
        assert res.history == ref.history
        np.testing.assert_array_equal(res.x, ref.x)

    @pytest.mark.parametrize("overlap", [0, 5])
    def test_explicit_overlap_is_honoured_verbatim(self, monkeypatch, overlap):
        _no_probe(monkeypatch)
        n = A_ROUNDS.shape[0]
        solver = _facade(overlap=overlap)
        part = solver._layout(A_ROUNDS)[1]
        want = uniform_bands(n, 4, overlap=overlap).to_general()
        for got, ref in zip(part.sets, want.sets):
            np.testing.assert_array_equal(got, ref)
        assert solver.solve(A_ROUNDS, _rhs(A_ROUNDS, 0)).converged

    def test_other_modes_and_strategies_do_not_probe(self, monkeypatch):
        _no_probe(monkeypatch)
        b = _rhs(A_ROUNDS, 0)
        MultisplittingSolver(4, mode="synchronous").solve(A_ROUNDS, b)
        _facade(partition_strategy="interleaved").solve(A_ROUNDS, b)
        _facade(placement="uniform").solve(A_ROUNDS, b)


class TestMemoAndCache:
    def test_warm_solve_runs_no_probe(self, monkeypatch):
        solver = _facade()
        cold = solver.solve(A_ROUNDS, _rhs(A_ROUNDS, 0))
        _no_probe(monkeypatch)
        warm = solver.solve(A_ROUNDS, _rhs(A_ROUNDS, 1))
        assert cold.cache_stats.misses > 0
        assert warm.cache_stats.misses == 0 and warm.cache_stats.hits > 0

    def test_probe_leaves_only_the_solves_factors(self):
        solver = _facade()
        solver.solve(A_ROUNDS, _rhs(A_ROUNDS, 0))
        n = A_ROUNDS.shape[0]
        part = solver._layout(A_ROUNDS)[1]
        kernel = solver.direct_solver
        keys = {solver.cache.key_for(kernel, A_ROUNDS[J][:, J].tocsr()) for J in part.sets}
        assert len(solver.cache) == len(keys)
        zero = uniform_bands(n, 4).to_general().sets
        for J in zero:
            key = solver.cache.key_for(kernel, A_ROUNDS[J][:, J].tocsr())
            assert solver.cache.get(key, count_miss=False) is None

    def test_chosen_overlap_zero_reuses_the_probes_factors(self):
        A = cage_like(1200, seed=0)
        solver = _facade()
        cold = solver.solve(A, _rhs(A, 0))
        assert _overlap_of(solver, A) == 0
        assert cold.cache_stats.misses == 4
        assert len(solver.cache) == 4

    def test_memo_is_bounded(self):
        from repro.core.solver import _OVERLAP_MEMO

        solver = _facade()
        A = diagonally_dominant(64, dominance=1.5, bandwidth=3, seed=0)
        for e in range(_OVERLAP_MEMO + 3):
            solver._layout(A * 2.0**e)
        assert len(solver._chosen_partitions) == _OVERLAP_MEMO


class TestPoolAndBackends:
    def test_pool_tenant_layout_equals_the_facades(self):
        B = np.column_stack([_rhs(A_ROUNDS, s) for s in range(3)])
        with SolverPool(size=1, processors=4, cache_capacity=16) as pool:
            key = pool.register(A_ROUNDS)
            X = pool.solve_batch(key, B)
            got = pool._tenants[key].layout[1]
            slices = pool._tenants[key].slices
            assert len(pool.cache) == len({s.cache_key for s in slices})
        solver = _facade()
        ref = solver._layout(A_ROUNDS)[1]
        for J, R in zip(got.sets, ref.sets):
            np.testing.assert_array_equal(J, R)
        np.testing.assert_array_equal(X, solver.solve(A_ROUNDS, B).x)

    @pytest.mark.parametrize("backend", ["threads", "processes", "sockets"])
    def test_chosen_overlap_is_bit_identical_on_every_backend(self, backend):
        b = _rhs(A_ROUNDS, 0)
        ref = _facade().solve(A_ROUNDS, b)
        kwargs = {"workers": 2} if backend == "sockets" else {"max_workers": 2}
        with get_executor(backend, **kwargs) as ex:
            solver = _facade(backend=ex)
            res = solver.solve(A_ROUNDS, b)
            assert _overlap_of(solver, A_ROUNDS) > 0
        assert res.backend == backend
        assert res.history == ref.history
        np.testing.assert_array_equal(res.x, ref.x)

    def test_poisson_64_runs_a_third_of_the_rounds_or_fewer(self):
        A = poisson_2d(64)
        b = _rhs(A, 0)
        chosen = _facade().solve(A, b)
        zero = _facade(overlap=0).solve(A, b)
        assert chosen.converged and zero.converged
        assert 3 * chosen.iterations <= zero.iterations


class TestContraction:
    def test_short_histories_have_none(self):
        assert observed_contraction([]) is None
        assert observed_contraction([1.0, 0.5]) is None

    def test_geometric_tail(self):
        history = [1.0, 0.1] + [0.5**k for k in range(2, 12)]
        assert observed_contraction(history) == pytest.approx(0.5)
        assert observed_contraction([1.0, 0.5, 0.0, 0.0]) == 0.0

    @pytest.mark.parametrize("make", [lambda: poisson_2d(32), lambda: cage_like(1200, seed=0)])
    @pytest.mark.parametrize("overlap", [0, None])
    def test_predicts_the_round_count_within_2x(self, make, overlap):
        A = make()
        result = _facade(overlap=overlap).solve(A, _rhs(A, 0))
        assert result.converged
        predicted = math.log(1e-8) / math.log(result.contraction)
        assert result.iterations / 2 <= predicted <= 2 * result.iterations

    def test_metrics_registry_reads_it(self):
        result = _facade().solve(A_ROUNDS, _rhs(A_ROUNDS, 0))
        registry = MetricsRegistry()
        registry.ingest_result(result)
        assert registry.gauge("repro_solve_contraction").value == result.contraction
