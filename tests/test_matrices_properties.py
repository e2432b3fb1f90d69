"""Tests for Section-5 matrix class predicates (repro.matrices.properties)."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matrices import (
    diagonal_dominance_margin,
    diagonally_dominant,
    is_irreducible,
    is_irreducibly_diagonally_dominant,
    is_m_matrix,
    is_strictly_diagonally_dominant,
    is_weakly_diagonally_dominant,
    is_z_matrix,
    jacobi_matrix,
    jacobi_spectral_radius,
    poisson_1d,
    poisson_2d,
)


class TestDominance:
    def test_margin_strict(self):
        A = np.array([[3.0, -1.0], [1.0, 2.0]])
        assert diagonal_dominance_margin(A) == pytest.approx(1.0)

    def test_strict_and_weak(self):
        strict = np.array([[3.0, -1.0], [0.5, 2.0]])
        weak = np.array([[1.0, -1.0], [0.5, 2.0]])
        bad = np.array([[0.5, -1.0], [0.5, 2.0]])
        assert is_strictly_diagonally_dominant(strict)
        assert not is_strictly_diagonally_dominant(weak)
        assert is_weakly_diagonally_dominant(weak)
        assert not is_weakly_diagonally_dominant(bad)

    def test_poisson_is_irreducibly_dominant_not_strict(self):
        A = poisson_1d(10)
        assert not is_strictly_diagonally_dominant(A)
        assert is_irreducibly_diagonally_dominant(A)

    def test_reducible_matrix_detected(self):
        A = sp.block_diag([poisson_1d(3), poisson_1d(3)]).tocsr()
        assert not is_irreducible(A)
        assert not is_irreducibly_diagonally_dominant(A)

    def test_irreducible_chain(self):
        assert is_irreducible(poisson_1d(6))


def _strongly_connected_dfs(A) -> bool:
    """Reference for ``is_irreducible``: every node reaches, and is reached
    from, node 0 over off-diagonal entries with a non-zero value."""
    coo = sp.coo_matrix(A)
    n = coo.shape[0]
    edges = [(i, j) for i, j, v in zip(coo.row, coo.col, coo.data) if i != j and v != 0]
    for graph in (edges, [(j, i) for i, j in edges]):
        seen, stack = {0}, [0]
        while stack:
            node = stack.pop()
            for i, j in graph:
                if i == node and j not in seen:
                    seen.add(j)
                    stack.append(j)
        if len(seen) < n:
            return False
    return True


@st.composite
def _patterns(draw):
    """Small sparse patterns, some of whose stored entries are zeros; half
    of them on top of a ring, so that both answers are well represented."""
    n = draw(st.integers(1, 9))
    ring = n > 1 and draw(st.booleans())
    entries = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1),
                st.sampled_from([0.0, 0.0, 1.0, -2.5]),
            ),
            max_size=3 * n, unique_by=lambda e: e[:2],
        )
    )
    if ring:
        # Where an entry above already names the position the two are
        # summed: 1 + 1, 1 - 2.5 and 1 + 0 all stay non-zero.
        entries += [(i, (i + 1) % n, 1.0) for i in range(n) if draw(st.integers(0, 9))]
    rows, cols, vals = (list(t) for t in zip(*entries)) if entries else ([], [], [])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


class TestIrreducibleWithoutNetworkx:
    """``is_irreducible`` asks ``scipy.sparse.csgraph``; the reference is a
    ten-line DFS, not the graph package the repository no longer imports."""

    @settings(max_examples=200, deadline=None)
    @given(_patterns())
    def test_matches_reference_dfs(self, A):
        assert is_irreducible(A) == _strongly_connected_dfs(A)
        assert is_irreducible(A.toarray()) == _strongly_connected_dfs(A)

    def test_orders_zero_and_one(self):
        assert is_irreducible(sp.csr_matrix((0, 0)))
        assert is_irreducible(np.array([[0.0]]))
        assert is_irreducible(np.array([[3.0]]))

    def test_diagonal_only_is_reducible(self):
        assert not is_irreducible(sp.identity(4, format="csr"))
        assert not is_irreducible(np.diag([1.0, 2.0]))

    def test_stored_zero_is_not_an_edge(self):
        # 0 -> 1 -> 2 -> 0 would close the cycle, but 2 -> 0 is a stored zero.
        A = sp.csr_matrix(
            ([1.0, 1.0, 1.0, 1.0, 1.0, 0.0], ([0, 1, 2, 0, 1, 2], [0, 1, 2, 1, 2, 0])),
            shape=(3, 3),
        )
        assert A.nnz == 6
        assert not is_irreducible(A)
        A.data[A.data == 0] = 1e-300
        assert is_irreducible(A)

    def test_block_triangular_and_its_one_entry_completion(self):
        blocks = sp.bmat(
            [[poisson_1d(3), sp.csr_matrix(np.ones((3, 3)))], [None, poisson_1d(3)]]
        ).tolil()
        assert not is_irreducible(blocks.tocsr())
        blocks[5, 0] = -1.0  # one entry below the diagonal blocks
        assert is_irreducible(blocks.tocsr())

    def test_section5_generators_keep_their_answers(self):
        from repro.core.theory import proposition1_applies
        from repro.matrices import advection_diffusion_2d, cage_like

        for A in (poisson_1d(12), poisson_2d(5), advection_diffusion_2d(4, peclet=1.0),
                  cage_like(60, seed=0), diagonally_dominant(40, seed=1)):
            assert is_irreducible(A) == _strongly_connected_dfs(A)
        assert is_irreducibly_diagonally_dominant(poisson_2d(5))
        assert proposition1_applies(poisson_1d(15))
        reducible = sp.block_diag([poisson_1d(3), poisson_1d(3)]).tocsr()
        assert not is_irreducibly_diagonally_dominant(reducible)
        assert not proposition1_applies(reducible)


class TestZAndM:
    def test_poisson_is_m_matrix(self):
        assert is_z_matrix(poisson_2d(4))
        assert is_m_matrix(poisson_2d(4))

    def test_positive_offdiag_not_z(self):
        A = np.array([[2.0, 0.5], [-0.5, 2.0]])
        assert not is_z_matrix(A)

    def test_singular_m_candidate_rejected(self):
        # Weakly dominant Z-matrix with zero row sums everywhere: singular.
        A = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert is_z_matrix(A)
        assert not is_m_matrix(A)

    def test_negative_diagonal_not_m(self):
        A = np.array([[-2.0, -1.0], [-1.0, -2.0]])
        assert is_z_matrix(A)
        assert not is_m_matrix(A)

    def test_generated_m_matrix(self):
        A = diagonally_dominant(60, negative_off_diagonals=True, seed=11)
        assert is_m_matrix(A)


class TestJacobi:
    def test_jacobi_matrix_explicit(self):
        A = np.array([[2.0, -1.0], [-1.0, 2.0]])
        J = jacobi_matrix(A).toarray()
        np.testing.assert_allclose(J, [[0.0, 0.5], [0.5, 0.0]])

    def test_jacobi_zero_diagonal_raises(self):
        with pytest.raises(ZeroDivisionError):
            jacobi_matrix(np.array([[0.0, 1.0], [1.0, 1.0]]))

    def test_proposition1_dominant_implies_radius_below_one(self):
        """Proposition 1: strict dominance => rho(|J|) < 1."""
        A = diagonally_dominant(80, dominance=1.5, seed=2)
        assert jacobi_spectral_radius(A, absolute=True) < 1.0

    def test_plain_vs_absolute_radius(self):
        A = poisson_1d(8)
        rho_abs = jacobi_spectral_radius(A, absolute=True)
        rho = jacobi_spectral_radius(A, absolute=False)
        assert rho <= rho_abs + 1e-12

    @settings(max_examples=15, deadline=None)
    @given(st.integers(4, 40), st.floats(1.1, 3.0))
    def test_property_dominance_jacobi_bound(self, n, dom):
        """rho(|J|) <= 1/dominance for the generated family."""
        A = diagonally_dominant(n, dominance=dom, seed=1)
        assert jacobi_spectral_radius(A) <= 1.0 / dom + 1e-8
