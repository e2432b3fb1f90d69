"""Tests for the in-process iteration, the chaotic variant, and the theory module."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    StoppingCriterion,
    chaotic_iterate,
    check_theorem1,
    extended_operator,
    iteration_matrix,
    make_weighting,
    multisplitting_iterate,
    proposition1_applies,
    proposition2_applies,
    proposition3_applies,
    splitting_matrices,
    uniform_bands,
)
from repro.core.partition import interleaved_partition, permuted_bands
from repro.direct import get_solver
from repro.linalg import spectral_radius
from repro.matrices import (
    advection_diffusion_2d,
    diagonally_dominant,
    poisson_1d,
    poisson_2d,
    rhs_for_solution,
)
from repro.runtime import FlakySolver, get_executor
from repro.runtime.resilience import InjectedFault

DENSE = get_solver("dense")
SCIPY = get_solver("scipy")

#: Every executor, kept small; one of each serves the whole module.
_EXECUTORS = {
    "inline": {},
    "threads": {"max_workers": 2},
    "processes": {"max_workers": 2},
    "sockets": {"workers": 2},
}


@pytest.fixture(scope="module", params=sorted(_EXECUTORS))
def executor(request):
    with get_executor(request.param, **_EXECUTORS[request.param]) as ex:
        yield ex


def _shaped(kind, n=96, L=4, seed=5):
    """A problem over a band, interleaved or permuted partition."""
    A = diagonally_dominant(n, dominance=1.5, bandwidth=4, seed=seed)
    b, x_true = rhs_for_solution(A, seed=seed + 1)
    if kind == "band":
        part = uniform_bands(n, L).to_general()
        scheme = make_weighting("ownership", part)
    elif kind == "interleaved":
        part = interleaved_partition(n, L, chunk=5)
        scheme = make_weighting("ownership", part)
    else:  # permuted, overlapping: components with several owners
        part = permuted_bands(np.random.default_rng(seed).permutation(n), L, overlap=3)
        scheme = make_weighting("averaging", part)
    return A, b, x_true, part, scheme


def _sound(A, residual, tol=1e-8):
    """The chaotic stop's guarantee: ``||b - A x|| <= tol * max(1, ||A||_inf)``."""
    norm_A = float(np.max(np.abs(A).sum(axis=1)))
    return residual <= tol * max(1.0, norm_A)


def setup(n=60, L=3, dominance=1.5, overlap=0, weighting="ownership", seed=1):
    A = diagonally_dominant(n, dominance=dominance, bandwidth=max(4, n // 10), seed=seed)
    b, x_true = rhs_for_solution(A, seed=seed + 1)
    part = uniform_bands(n, L, overlap=overlap).to_general()
    scheme = make_weighting(weighting, part)
    return A, b, x_true, part, scheme


class TestSequentialIteration:
    def test_converges_to_true_solution(self):
        A, b, x_true, part, scheme = setup()
        res = multisplitting_iterate(A, b, part, scheme, SCIPY)
        assert res.converged
        assert res.residual < 1e-7
        np.testing.assert_allclose(res.x, x_true, atol=1e-6)

    def test_monotone_history_tail(self):
        A, b, _, part, scheme = setup()
        res = multisplitting_iterate(A, b, part, scheme, SCIPY)
        h = res.history
        assert h[-1] < h[0]

    def test_single_processor_is_direct_solve(self):
        A, b, x_true, _, _ = setup()
        part = uniform_bands(A.shape[0], 1).to_general()
        scheme = make_weighting("ownership", part)
        res = multisplitting_iterate(A, b, part, scheme, SCIPY)
        assert res.iterations <= 2
        np.testing.assert_allclose(res.x, x_true, atol=1e-8)

    def test_max_iterations_respected(self):
        A, b, _, part, scheme = setup(dominance=1.05)
        res = multisplitting_iterate(
            A, b, part, scheme, SCIPY, stopping=StoppingCriterion(max_iterations=3)
        )
        assert not res.converged
        assert res.iterations == 3

    def test_callback_invoked(self):
        A, b, _, part, scheme = setup()
        seen = []
        multisplitting_iterate(
            A, b, part, scheme, SCIPY, callback=lambda it, x: seen.append(it)
        )
        assert seen == list(range(1, len(seen) + 1))

    def test_warm_start_reduces_iterations(self):
        A, b, x_true, part, scheme = setup()
        cold = multisplitting_iterate(A, b, part, scheme, SCIPY)
        warm = multisplitting_iterate(A, b, part, scheme, SCIPY, x0=x_true)
        assert warm.iterations < cold.iterations

    def test_residual_metric(self):
        A, b, _, part, scheme = setup()
        res = multisplitting_iterate(
            A, b, part, scheme, SCIPY,
            stopping=StoppingCriterion(metric="residual", tolerance=1e-6),
        )
        assert res.converged
        assert res.residual <= 1e-6

    @pytest.mark.parametrize("weighting", ["ownership", "averaging", "schwarz"])
    @pytest.mark.parametrize("overlap", [0, 2])
    def test_all_weightings_converge(self, weighting, overlap):
        A, b, x_true, part, scheme = setup(overlap=overlap, weighting=weighting)
        res = multisplitting_iterate(A, b, part, scheme, SCIPY)
        assert res.converged
        np.testing.assert_allclose(res.x, x_true, atol=1e-6)

    def test_overlap_reduces_iterations_for_slow_problem(self):
        """Figure 3's premise: overlap cuts the iteration count."""
        A = diagonally_dominant(200, dominance=1.05, bandwidth=12, seed=3)
        b, _ = rhs_for_solution(A, seed=4)
        base = multisplitting_iterate(
            A, b, uniform_bands(200, 4).to_general(),
            make_weighting("ownership", uniform_bands(200, 4).to_general()), SCIPY,
        )
        part_ov = uniform_bands(200, 4, overlap=24).to_general()
        over = multisplitting_iterate(
            A, b, part_ov, make_weighting("ownership", part_ov), SCIPY
        )
        assert over.iterations < base.iterations

    def test_x0_shape_check(self):
        A, b, _, part, scheme = setup()
        with pytest.raises(ValueError):
            multisplitting_iterate(A, b, part, scheme, SCIPY, x0=np.ones(3))


class TestChaoticIteration:
    def test_converges_under_async_condition(self):
        A, b, x_true, part, scheme = setup(dominance=2.0)
        res = chaotic_iterate(A, b, part, scheme, SCIPY, seed=0)
        assert res.converged
        np.testing.assert_allclose(res.x, x_true, atol=1e-5)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 1000))
    def test_property_any_schedule_converges(self, seed):
        """Theorem 1 (async): every bounded-delay schedule converges."""
        A, b, x_true, part, scheme = setup(n=40, L=4, dominance=1.8)
        res = chaotic_iterate(
            A, b, part, scheme, DENSE, seed=seed, max_delay=4, update_probability=0.5
        )
        assert res.converged
        assert res.residual < 1e-5

    def test_more_iterations_than_synchronous(self):
        A, b, _, part, scheme = setup(dominance=1.3)
        sync = multisplitting_iterate(A, b, part, scheme, SCIPY)
        chaotic = chaotic_iterate(
            A, b, part, scheme, SCIPY, seed=1, update_probability=0.5
        )
        assert chaotic.iterations >= sync.iterations

    def test_invalid_parameters(self):
        A, b, _, part, scheme = setup()
        with pytest.raises(ValueError):
            chaotic_iterate(A, b, part, scheme, SCIPY, update_probability=0.0)
        with pytest.raises(ValueError):
            chaotic_iterate(A, b, part, scheme, SCIPY, max_delay=-1)

    @pytest.mark.parametrize("kind", ["interleaved", "permuted"])
    def test_sound_stop_on_general_partitions(self, executor, kind):
        """A reported stop is verified against the true residual, on
        index sets that are not runs of consecutive rows too."""
        A, b, x_true, part, scheme = _shaped(kind)
        res = chaotic_iterate(A, b, part, scheme, SCIPY, seed=4, executor=executor)
        assert res.converged
        assert _sound(A, res.residual)
        assert res.residual == pytest.approx(float(np.max(np.abs(b - A @ res.x))))
        np.testing.assert_allclose(res.x, x_true, atol=1e-6)

    def test_warm_start_from_converged_x0_stops_quickly(self, executor):
        A, b, _, part, scheme = _shaped("band")
        cold = chaotic_iterate(A, b, part, scheme, SCIPY, seed=3, executor=executor)
        warm = chaotic_iterate(
            A, b, part, scheme, SCIPY, seed=3, x0=cold.x, executor=executor
        )
        assert cold.converged and warm.converged
        assert warm.iterations <= 10 < cold.iterations
        assert _sound(A, warm.residual)
        np.testing.assert_allclose(warm.x, cold.x, atol=1e-8)

    def test_unreachable_tolerance_runs_the_whole_budget(self, executor):
        A, b, _, part, scheme = _shaped("band")
        stopping = StoppingCriterion(tolerance=1e-300, max_iterations=50)
        res = chaotic_iterate(
            A, b, part, scheme, SCIPY, stopping=stopping, executor=executor
        )
        assert not res.converged
        assert res.status == "max-iterations"
        assert res.iterations == 50
        assert len(res.history) == 50
        # It did the work all the same.
        assert res.residual < 1e-4 * float(np.max(np.abs(b)))

    def test_batched_rhs_solves_every_column(self, executor):
        A, b, _, part, scheme = _shaped("band")
        cols = [rhs_for_solution(A, seed=s) for s in (11, 12, 13)]
        B = np.stack([c for c, _ in cols], axis=1)
        res = chaotic_iterate(A, B, part, scheme, SCIPY, seed=2, executor=executor)
        assert res.converged
        assert res.x.shape == B.shape
        for j, (b_j, x_j) in enumerate(cols):
            r_j = float(np.max(np.abs(b_j - A @ res.x[:, j])))
            assert _sound(A, r_j), j
            np.testing.assert_allclose(res.x[:, j], x_j, atol=1e-6)

    def test_kernel_fault_without_policy_raises(self, executor):
        """No ``fault_policy``: a kernel fault ends the run with the
        fault -- in-process as itself, from a fleet worker as its error
        frame, which names it."""
        A, b, _, part, scheme = _shaped("band")
        flaky = FlakySolver(SCIPY, fail_solves=(1,))
        with pytest.raises(RuntimeError) as err:
            chaotic_iterate(A, b, part, scheme, flaky, executor=executor)
        if executor.name in ("inline", "threads"):
            assert isinstance(err.value, InjectedFault)
        else:
            assert "InjectedFault" in str(err.value)

    def test_same_seed_same_run(self, executor):
        """The schedule is the seed's: a rerun is bit-identical, and
        another seed is a different run."""
        A, b, _, part, scheme = _shaped("permuted")
        runs = [
            chaotic_iterate(A, b, part, scheme, SCIPY, seed=s, executor=executor)
            for s in (7, 7, 8)
        ]
        first, again, other = runs
        np.testing.assert_array_equal(first.x, again.x)
        assert first.history == again.history
        assert first.iterations == again.iterations
        assert first.history != other.history


class TestSplittingsAndTheorem1:
    def test_splitting_reconstructs_A(self):
        A = poisson_1d(12)
        part = uniform_bands(12, 3).to_general()
        M, N = splitting_matrices(A, part, 1)
        np.testing.assert_allclose(M - N, A.toarray())

    def test_Ml_structure(self):
        A = poisson_1d(9)
        part = uniform_bands(9, 3).to_general()
        M, _ = splitting_matrices(A, part, 0)
        np.testing.assert_allclose(M[:3, :3], A.toarray()[:3, :3])
        # complement carries the Jacobi (diagonal) splitting of A
        np.testing.assert_allclose(M[3:, 3:], 2.0 * np.eye(6))
        assert np.all(M[:3, 3:] == 0.0) and np.all(M[3:, :3] == 0.0)

    def test_theorem1_dominant_matrix(self):
        A = diagonally_dominant(40, dominance=1.5, seed=2)
        rep = check_theorem1(A, uniform_bands(40, 4).to_general())
        assert rep.synchronous_ok
        assert rep.asynchronous_ok
        assert all(r <= a + 1e-12 for r, a in zip(rep.sync_radii, rep.async_radii))

    def test_theorem1_detects_divergent_splitting(self):
        # A matrix that is NOT dominant: off-diagonal mass exceeds diagonal.
        n = 12
        A = np.eye(n) * 0.1 + np.ones((n, n))
        rep = check_theorem1(A, uniform_bands(n, 3).to_general())
        assert not rep.synchronous_ok

    def test_extended_operator_radius_matches_observation(self):
        """rho(T) predicts the observed per-iteration contraction."""
        A = diagonally_dominant(30, dominance=1.3, bandwidth=6, seed=5)
        part = uniform_bands(30, 3).to_general()
        scheme = make_weighting("ownership", part)
        T = extended_operator(A, part, scheme)
        rho = spectral_radius(T)
        assert rho < 1.0
        b, _ = rhs_for_solution(A, seed=6)
        res = multisplitting_iterate(
            A, b, part, scheme, DENSE, stopping=StoppingCriterion(tolerance=1e-12)
        )
        h = res.history
        # asymptotic observed contraction over the last few iterations
        tail = [h[i + 1] / h[i] for i in range(len(h) - 5, len(h) - 1) if h[i] > 0]
        observed = float(np.mean(tail))
        assert observed == pytest.approx(rho, abs=0.12)

    def test_iteration_matrix_spectral_bound(self):
        A = diagonally_dominant(24, dominance=2.0, seed=7)
        part = uniform_bands(24, 2).to_general()
        H = iteration_matrix(A, part, 0)
        assert spectral_radius(H) <= 0.5 + 0.1


class TestPropositions:
    def test_prop1_on_dominant(self):
        assert proposition1_applies(diagonally_dominant(30, seed=1))

    def test_prop1_on_poisson_irreducible(self):
        assert proposition1_applies(poisson_1d(15))

    def test_prop1_rejects_non_dominant(self):
        assert not proposition1_applies(np.array([[1.0, 5.0], [5.0, 1.0]]))

    def test_prop2_on_poisson(self):
        assert proposition2_applies(poisson_2d(4))

    def test_prop2_rejects_non_z(self):
        assert not proposition2_applies(np.array([[2.0, 1.0], [1.0, 2.0]]))

    def test_prop3_on_advection_diffusion(self):
        assert proposition3_applies(advection_diffusion_2d(4, peclet=1.0))

    def test_prop3_rejects_negative_eigenvalue(self):
        A = np.array([[-1.0, 0.0], [0.0, 2.0]])  # Z-matrix, negative eigenvalue
        assert not proposition3_applies(A)

    def test_propositions_imply_theorem1(self):
        """Matrices in the Section 5 classes satisfy Theorem 1's conditions."""
        for A in (poisson_1d(20), diagonally_dominant(20, seed=3),
                  advection_diffusion_2d(4, peclet=0.5)):
            part = uniform_bands(A.shape[0], 4).to_general()
            rep = check_theorem1(A, part)
            assert rep.asynchronous_ok
