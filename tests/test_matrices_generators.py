"""Tests for the workload generators (repro.matrices.generators)."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import lower_bandwidth, upper_bandwidth
from repro.matrices import (
    advection_diffusion_2d,
    banded_random,
    diagonally_dominant,
    is_irreducibly_diagonally_dominant,
    is_strictly_diagonally_dominant,
    is_z_matrix,
    jacobi_spectral_radius,
    poisson_1d,
    poisson_2d,
    poisson_3d,
    random_sparse,
    rhs_for_solution,
    tridiagonal,
)


class TestDiagonallyDominant:
    def test_is_strictly_dominant(self):
        A = diagonally_dominant(100, dominance=2.0, seed=1)
        assert is_strictly_diagonally_dominant(A)

    def test_determinism(self):
        A = diagonally_dominant(50, seed=3)
        B = diagonally_dominant(50, seed=3)
        assert (A != B).nnz == 0

    def test_different_seeds_differ(self):
        A = diagonally_dominant(50, seed=3)
        B = diagonally_dominant(50, seed=4)
        assert (A != B).nnz > 0

    def test_dominance_bounds_jacobi_radius(self):
        A = diagonally_dominant(120, dominance=2.0, seed=5)
        assert jacobi_spectral_radius(A) <= 1.0 / 2.0 + 1e-9

    def test_near_one_dominance_gives_radius_near_one(self):
        A = diagonally_dominant(150, dominance=1.01, seed=6)
        rho = jacobi_spectral_radius(A)
        assert 0.9 < rho < 1.0

    def test_bandwidth_respected(self):
        A = diagonally_dominant(80, bandwidth=5, seed=7)
        assert lower_bandwidth(A) <= 5
        assert upper_bandwidth(A) <= 5

    def test_m_matrix_structure(self):
        A = diagonally_dominant(40, negative_off_diagonals=True, seed=8)
        assert is_z_matrix(A)

    def test_rejects_bad_dominance(self):
        with pytest.raises(ValueError):
            diagonally_dominant(10, dominance=1.0)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            diagonally_dominant(0)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(5, 60),
        st.floats(1.05, 4.0),
        st.integers(1, 8),
    )
    def test_property_strict_dominance(self, n, dominance, density):
        A = diagonally_dominant(n, dominance=dominance, density_per_row=density, seed=0)
        assert is_strictly_diagonally_dominant(A)


class TestPoisson:
    def test_poisson_1d_structure(self):
        A = poisson_1d(5).toarray()
        assert np.all(np.diag(A) == 2.0)
        assert A[0, 1] == -1.0 and A[1, 0] == -1.0

    def test_poisson_1d_irreducibly_dominant(self):
        assert is_irreducibly_diagonally_dominant(poisson_1d(20))

    def test_poisson_2d_shape_and_symmetry(self):
        A = poisson_2d(4, 3)
        assert A.shape == (12, 12)
        assert (A != A.T).nnz == 0

    def test_poisson_2d_row_interior_sum(self):
        A = poisson_2d(5).toarray()
        interior = 2 * 5 + 2  # an interior point: index (2,2)
        assert A[12, 12] == 4.0
        del interior

    def test_poisson_3d_shape(self):
        A = poisson_3d(3)
        assert A.shape == (27, 27)
        assert A.diagonal().max() == 6.0

    def test_poisson_z_matrix(self):
        assert is_z_matrix(poisson_2d(4))

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            poisson_2d(0)
        with pytest.raises(ValueError):
            poisson_3d(2, 0, 2)


def _advection_diffusion_loop(nx: int, ny: int, peclet: float) -> sp.csr_matrix:
    """The entry-by-entry builder ``advection_diffusion_2d`` used to be."""
    A = sp.lil_matrix((nx * ny, nx * ny))
    for j in range(ny):
        for i in range(nx):
            k = j * nx + i
            if i > 0:
                A[k, k - 1] = -1.0 - peclet
            if i < nx - 1:
                A[k, k + 1] = -1.0
            if j > 0:
                A[k, k - nx] = -1.0 - peclet
            if j < ny - 1:
                A[k, k + nx] = -1.0
            A[k, k] = 4.0 + 2.0 * peclet
    return A.tocsr()


class TestAdvectionDiffusion:
    @pytest.mark.parametrize(
        "nx, ny, peclet",
        [(1, 1, 0.5), (1, 4, 0.1), (3, 1, 3.7), (2, 2, 0.0), (5, 3, 0.7), (4, 7, 1e-3)],
    )
    def test_equals_the_loop_builder(self, nx, ny, peclet):
        A = advection_diffusion_2d(nx, ny, peclet=peclet)
        want = _advection_diffusion_loop(nx, ny, peclet)
        assert A.format == "csr" and A.shape == want.shape
        assert A.dtype == want.dtype and A.has_canonical_format
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(A, name), getattr(want, name))

    def test_nonsymmetric(self):
        A = advection_diffusion_2d(5, peclet=1.0)
        assert (A != A.T).nnz > 0

    def test_zero_peclet_is_poisson(self):
        A = advection_diffusion_2d(4, peclet=0.0)
        B = poisson_2d(4)
        assert abs(A - B).max() == pytest.approx(0.0)

    def test_dominance_preserved(self):
        A = advection_diffusion_2d(6, peclet=2.0)
        assert is_irreducibly_diagonally_dominant(A)

    def test_z_matrix(self):
        assert is_z_matrix(advection_diffusion_2d(4, peclet=0.7))

    def test_rejects_negative_peclet(self):
        with pytest.raises(ValueError):
            advection_diffusion_2d(4, peclet=-1.0)


class TestStructuralGenerators:
    def test_tridiagonal_values(self):
        A = tridiagonal(4, lower=-2.0, diag=5.0, upper=-1.0).toarray()
        assert A[1, 0] == -2.0 and A[1, 1] == 5.0 and A[1, 2] == -1.0

    def test_banded_random_bandwidths(self):
        A = banded_random(30, lower_bw=3, upper_bw=1, seed=2)
        assert lower_bandwidth(A) <= 3
        assert upper_bandwidth(A) <= 1

    def test_banded_random_dominant(self):
        assert is_strictly_diagonally_dominant(banded_random(25, seed=9))

    def test_banded_rejects_negative_bw(self):
        with pytest.raises(ValueError):
            banded_random(10, lower_bw=-1)

    def test_random_sparse_density(self):
        A = random_sparse(100, density=0.05, seed=1)
        assert A.nnz >= 100  # diagonal added
        assert A.shape == (100, 100)

    def test_random_sparse_rejects_bad_density(self):
        with pytest.raises(ValueError):
            random_sparse(10, density=0.0)


class TestRhs:
    def test_manufactured_solution_roundtrip(self):
        A = poisson_2d(5)
        b, x = rhs_for_solution(A, seed=3)
        np.testing.assert_allclose(A @ x, b)

    def test_explicit_solution(self):
        A = sp.identity(4, format="csr")
        x = np.arange(4.0)
        b, x_out = rhs_for_solution(A, x)
        np.testing.assert_allclose(b, x)
        np.testing.assert_allclose(x_out, x)

    def test_shape_check(self):
        with pytest.raises(ValueError):
            rhs_for_solution(sp.identity(4), np.ones(3))
