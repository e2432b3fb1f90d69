"""Every kernel, one suite: solves against ``np.linalg.solve``, and a
batched multi-RHS call equals its column loop."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.direct import SingularMatrixError, get_solver
from repro.matrices import (
    advection_diffusion_2d,
    banded_random,
    cage_like,
    diagonally_dominant,
    poisson_2d,
    rhs_for_solution,
)

KERNELS = ["dense", "banded", "scipy"]


def rhs_batch(n: int, k: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((n, k))


def assert_machine_equal(X, X_loop):
    """Batched and looped results must agree to machine precision.

    A batched LAPACK solve may take a different BLAS routine (``trsm``
    against ``trsv``), which may differ in the last ulp.
    """
    np.testing.assert_allclose(X, X_loop, rtol=1e-14, atol=1e-13)


def assert_oracle(A, x, b, atol=1e-9):
    dense = A.toarray() if sp.issparse(A) else A
    np.testing.assert_allclose(x, np.linalg.solve(dense, b), atol=atol)


@pytest.mark.parametrize("kernel", KERNELS)
class TestSolveMany:
    def test_equals_column_loop_banded_matrix(self, kernel):
        A = diagonally_dominant(40, dominance=1.5, bandwidth=4, seed=1)
        fact = get_solver(kernel).factor(A)
        B = rhs_batch(40, 6, seed=2)
        X = fact.solve_many(B)
        X_loop = np.column_stack([fact.solve(B[:, j]) for j in range(B.shape[1])])
        assert_machine_equal(X, X_loop)

    def test_equals_column_loop_poisson(self, kernel):
        A = poisson_2d(6)
        fact = get_solver(kernel).factor(A)
        B = rhs_batch(A.shape[0], 3, seed=3)
        X = fact.solve_many(B)
        X_loop = np.column_stack([fact.solve(B[:, j]) for j in range(B.shape[1])])
        assert_machine_equal(X, X_loop)
        np.testing.assert_allclose(A @ X, B, atol=1e-9)

    def test_one_dimensional_passthrough(self, kernel):
        A = diagonally_dominant(20, dominance=1.5, bandwidth=3, seed=4)
        fact = get_solver(kernel).factor(A)
        b = rhs_batch(20, 1, seed=5)[:, 0]
        np.testing.assert_array_equal(fact.solve_many(b), fact.solve(b))

    def test_single_column_batch(self, kernel):
        A = diagonally_dominant(15, dominance=1.5, bandwidth=3, seed=6)
        fact = get_solver(kernel).factor(A)
        B = rhs_batch(15, 1, seed=7)
        np.testing.assert_array_equal(fact.solve_many(B)[:, 0], fact.solve(B[:, 0]))

    def test_shape_validation(self, kernel):
        A = diagonally_dominant(10, dominance=1.5, bandwidth=2, seed=8)
        fact = get_solver(kernel).factor(A)
        with pytest.raises(ValueError):
            fact.solve(np.ones(11))
        with pytest.raises(ValueError):
            fact.solve(np.ones((10, 1)))
        with pytest.raises(ValueError):
            fact.solve_many(np.zeros((11, 2)))
        with pytest.raises(ValueError):
            fact.solve_many(np.zeros((10, 2, 2)))

    @pytest.mark.parametrize(
        "matrix",
        [
            lambda: poisson_2d(6),
            lambda: advection_diffusion_2d(7, peclet=1.5),
            lambda: cage_like(150, seed=5),
            lambda: banded_random(35, lower_bw=3, upper_bw=2, seed=1),
            lambda: sp.diags([2.0, 4.0, 8.0]).tocsr(),
        ],
        ids=["poisson", "advection", "cage", "asymmetric-band", "diagonal"],
    )
    def test_solve_matches_numpy(self, kernel, matrix):
        A = matrix()
        b = np.linspace(-1.0, 1.0, A.shape[0])
        fact = get_solver(kernel).factor(A)
        assert_oracle(A, fact.solve(b), b)
        B = rhs_batch(A.shape[0], 3, seed=9)
        assert_oracle(A, fact.solve_many(B), B)

    def test_dense_and_sparse_input_agree(self, kernel):
        A = diagonally_dominant(25, dominance=1.5, bandwidth=3, seed=4)
        b = np.ones(25)
        solver = get_solver(kernel)
        np.testing.assert_allclose(
            solver.solve(A, b), solver.solve(A.toarray(), b), atol=1e-12
        )

    def test_zero_on_the_diagonal_needs_a_row_interchange(self, kernel):
        """A tridiagonal matrix with zeros on its diagonal factors only with
        row interchanges (the band kernel pivots too)."""
        A = sp.diags(
            [[1.0, 2.0, 1.0, 3.0, 1.0], [0.0, 1.0, 0.0, 2.0, 0.0, 1.0],
             [2.0, 1.0, 3.0, 1.0, 2.0]],
            offsets=(-1, 0, 1), format="csr",
        )
        b = np.arange(1.0, 7.0)
        x = get_solver(kernel).solve(A, b)
        assert_oracle(A, x, b, atol=1e-12)

    @pytest.mark.parametrize(
        "dense",
        [[[1.0, 2.0], [2.0, 4.0]], [[1.0, 0.0], [2.0, 0.0]], np.zeros((3, 3))],
        ids=["numerically", "structurally", "zero"],
    )
    def test_exact_zero_pivot_raises(self, kernel, dense):
        with pytest.raises(SingularMatrixError):
            get_solver(kernel).factor(sp.csr_matrix(np.array(dense)))

    def test_empty_and_non_square_rejected(self, kernel):
        with pytest.raises(ValueError):
            get_solver(kernel).factor(sp.csr_matrix((0, 0)))
        with pytest.raises(ValueError):
            get_solver(kernel).factor(sp.csr_matrix(np.ones((2, 3))))

    def test_factor_leaves_the_matrix_untouched(self, kernel):
        A = diagonally_dominant(20, dominance=1.5, bandwidth=3, seed=10)
        dense = A.toarray()
        kept_dense, kept_data = dense.copy(), A.data.copy()
        get_solver(kernel).factor(dense)
        get_solver(kernel).factor(A)
        np.testing.assert_array_equal(dense, kept_dense)
        np.testing.assert_array_equal(A.data, kept_data)

    def test_solves_leave_the_right_hand_sides_untouched(self, kernel):
        A = diagonally_dominant(20, dominance=1.5, bandwidth=3, seed=11)
        fact = get_solver(kernel).factor(A)
        B = rhs_batch(20, 3, seed=12)
        b = B[:, 0].copy()
        kept_b, kept_B = b.copy(), B.copy()
        fact.solve(b)
        fact.solve_many(B)
        np.testing.assert_array_equal(b, kept_b)
        np.testing.assert_array_equal(B, kept_B)

    def test_integer_entries_are_promoted(self, kernel):
        A = np.array([[4, 1, 0], [1, 4, 1], [0, 1, 4]])
        b = np.array([1, 2, 3])
        assert_oracle(A, get_solver(kernel).solve(sp.csr_matrix(A), b), b, atol=1e-14)
        assert_oracle(A, get_solver(kernel).solve(A, b), b, atol=1e-14)

    def test_one_by_one(self, kernel):
        fact = get_solver(kernel).factor(sp.csr_matrix([[4.0]]))
        np.testing.assert_allclose(fact.solve(np.array([2.0])), [0.5])
        np.testing.assert_allclose(fact.solve_many(np.array([[2.0, -8.0]])), [[0.5, -2.0]])

    def test_stats_describe_the_factor(self, kernel):
        A = diagonally_dominant(25, dominance=1.5, bandwidth=3, seed=16)
        assert np.all(A.data != 0)
        stats = get_solver(kernel).factor(A).stats
        assert stats.n == 25
        assert stats.factor_flops > 0 and stats.solve_flops > 0
        assert stats.memory_bytes > 0
        assert stats.nnz_factors >= A.nnz
        assert stats.fill_ratio == pytest.approx(stats.nnz_factors / A.nnz)

    def test_strided_right_hand_sides(self, kernel):
        A = diagonally_dominant(30, dominance=1.5, bandwidth=4, seed=13)
        fact = get_solver(kernel).factor(A)
        B = rhs_batch(30, 6, seed=14)
        assert_oracle(A, fact.solve(B[:, 1]), B[:, 1])
        assert_oracle(A, fact.solve_many(B[:, ::2]), B[:, ::2])
        assert_oracle(A, fact.solve_many(np.asfortranarray(B)), B)

    def test_a_tiny_pivot_is_interchanged(self, kernel):
        """Eliminating on a 1e-20 pivot would lose every digit of ``x``."""
        A = sp.csr_matrix(np.array([[1e-20, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 3.0]]))
        b = np.array([1.0, 3.0, 4.0])
        x = get_solver(kernel).solve(A, b)
        np.testing.assert_allclose(x, np.linalg.solve(A.toarray(), b), rtol=1e-12)

    def test_duplicate_entries_are_summed(self, kernel):
        rows = np.array([0, 0, 1, 1, 1, 2, 2])
        cols = np.array([0, 1, 0, 1, 1, 2, 2])
        data = np.array([2.0, 1.0, 1.0, 3.0, 1.0, 2.0, 2.0])
        A = sp.coo_matrix((data, (rows, cols)), shape=(3, 3))
        b = np.ones(3)
        assert_oracle(A, get_solver(kernel).solve(A, b), b, atol=1e-14)
        csr = sp.csr_matrix((data, cols, [0, 2, 5, 7]), shape=(3, 3))
        assert not csr.has_canonical_format
        assert_oracle(A, get_solver(kernel).solve(csr, b), b, atol=1e-14)

    def test_one_factor_solves_on_several_threads(self, kernel):
        """The executors' pool threads share a block's factor.

        Four threads released together each run 1 000 solves on the one
        factor, alternating ``solve`` and ``solve_many``; every result
        must equal the serial one bit for bit.  (SciPy's ``getrs``
        wrapper shifts the pivot array it is given in place, so a dense
        factor that handed its own pivots to every call swapped the
        wrong rows here, or corrupted the heap.)
        """
        import threading

        A = cage_like(150, seed=6)
        fact = get_solver(kernel).factor(A)
        B = rhs_batch(150, 8, seed=15)
        serial = [fact.solve(B[:, j]) for j in range(8)]
        serial_many = fact.solve_many(B[:, :3])
        start = threading.Barrier(4)
        mismatches = [0] * 4

        def hammer(t):
            start.wait()
            for r in range(1000):
                j = (t + r) % 8
                if r % 2:
                    same = np.array_equal(fact.solve_many(B[:, :3]), serial_many)
                else:
                    same = np.array_equal(fact.solve(B[:, j]), serial[j])
                mismatches[t] += not same

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60.0)
        assert not any(th.is_alive() for th in threads)
        assert mismatches == [0, 0, 0, 0]

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 4), st.integers(0, 4), st.integers(0, 999))
    def test_property_matches_numpy(self, kernel, n, kl, ku, seed):
        A = banded_random(n, lower_bw=kl, upper_bw=ku, seed=seed)
        b = np.random.default_rng(seed).random(n)
        assert_oracle(A, get_solver(kernel).solve(A, b), b, atol=1e-8)


def test_kernels_cross_validate():
    A = cage_like(150, seed=5)
    b = np.linspace(-1, 1, 150)
    xs = [get_solver(kernel).solve(A, b) for kernel in KERNELS]
    for x in xs[1:]:
        np.testing.assert_allclose(x, xs[0], atol=1e-10)


class TestBatchedDriver:
    def test_multisplitting_batched_rhs_matches_columns(self):
        """The driver solves a block of right-hand sides in one pass."""
        from repro.core import make_weighting, multisplitting_iterate, uniform_bands

        A = diagonally_dominant(48, dominance=1.4, bandwidth=4, seed=11)
        b, _ = rhs_for_solution(A, seed=12)
        B = np.column_stack([b, -2.0 * b, np.roll(b, 5)])
        part = uniform_bands(48, 3).to_general()
        scheme = make_weighting("ownership", part)
        solver = get_solver("scipy")
        batched = multisplitting_iterate(A, B, part, scheme, solver)
        assert batched.converged
        assert batched.x.shape == B.shape
        assert batched.residual <= 1e-7
        for j in range(B.shape[1]):
            single = multisplitting_iterate(A, B[:, j], part, scheme, solver)
            np.testing.assert_allclose(batched.x[:, j], single.x, atol=1e-7)
