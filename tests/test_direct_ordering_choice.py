"""Each band is ordered for its factor: ``ScipySuperLU``'s per-band options.

On a diagonally dominant band (by rows or by columns, non-zero diagonal)
Gaussian elimination with diagonal pivots is stable, so the default
kernel orders the band with ``MMD_AT_PLUS_A`` in ``SymmetricMode`` and
keeps every pivot on the diagonal; any other band keeps COLAMD with
partial pivoting.  These tests hold the rule, its safety on a band that
needs row interchanges, the fill and resident bytes it saves, and its
independence from how the band's arrays were assembled.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import uniform_bands
from repro.direct import get_solver
from repro.direct.scipy_backend import ScipySuperLU
from repro.matrices import cage_like, diagonally_dominant, poisson_2d

SRC = str(Path(__file__).resolve().parents[1] / "src")
DIAGONAL_PIVOTS = {
    "permc_spec": "MMD_AT_PLUS_A",
    "diag_pivot_thresh": 0.0,
    "options": {"SymmetricMode": True},
}


def bands(A, L=4):
    """The ``L`` diagonal blocks ``A[J, J]`` a uniform band split factors."""
    csr = A.tocsr()
    return [csr[J][:, J] for J in uniform_bands(A.shape[0], L).to_general().sets]


def options_for(band):
    csc = sp.csc_matrix(band)
    csc.sum_duplicates()
    return ScipySuperLU().splu_options(csc)


def needs_row_interchanges(n=200, eps=1e-10, seed=0):
    """A dominant matrix with ``[[eps, 1], [1, 1]]`` blocks on its diagonal:
    each tiny diagonal entry sits above a unit off-diagonal."""
    A = sp.random(n, n, density=0.02, random_state=seed, format="csr") * 0.1
    A = A + sp.diags(np.asarray(abs(A).sum(axis=1)).ravel() + 1.0)
    k = np.arange(0, n, 2)
    pairs = sp.csr_matrix(
        (np.ones(2 * k.size), (np.r_[k, k + 1], np.r_[k + 1, k])), shape=(n, n)
    )
    A = (A + pairs).tocsr()
    diagonal = A.diagonal()
    diagonal[k] = eps
    A.setdiag(diagonal)
    return A


@st.composite
def sparse_systems(draw):
    """Small strictly dominant sparse matrices (every pivot safe)."""
    n = draw(st.integers(1, 40))
    density = draw(st.floats(0.0, 0.5))
    seed = draw(st.integers(0, 2**16))
    A = sp.random(n, n, density=density, random_state=seed, format="csr")
    dominance = np.asarray(abs(A).sum(axis=1)).ravel() + 1.0
    return (A + sp.diags(dominance)).tocsr()


class TestDominantBandsPivotOnTheDiagonal:
    @pytest.mark.parametrize(
        "A",
        [
            cage_like(1200, seed=0),
            poisson_2d(24),
            diagonally_dominant(400, dominance=1.5, bandwidth=15, seed=1),
        ],
        ids=["cage_like", "poisson_2d", "diagonally_dominant"],
    )
    def test_ledger_matrix_classes(self, A):
        for band in bands(A):
            assert options_for(band) == DIAGONAL_PIVOTS
            handle = get_solver("scipy").factor(band)._handle
            np.testing.assert_array_equal(handle.perm_r, handle.perm_c)

    @settings(max_examples=40, deadline=None)
    @given(A=sparse_systems())
    def test_dominant_systems(self, A):
        assert options_for(A) == DIAGONAL_PIVOTS
        fact = get_solver("scipy").factor(A)
        np.testing.assert_array_equal(fact._handle.perm_r, fact._handle.perm_c)
        b = np.ones(A.shape[0])
        assert np.abs(A @ fact.solve(b) - b).max() < 1e-10

    def test_dominant_by_columns_only(self):
        # Row 0 is not dominant (|2| < 3); every column is.
        A = sp.csr_matrix(np.array([[2.0, 3.0], [0.5, 4.0]]))
        assert options_for(A) == DIAGONAL_PIVOTS
        assert options_for(A.T) == DIAGONAL_PIVOTS

    @pytest.mark.parametrize(
        "A",
        [
            np.array([[0.0, 1.0], [1.0, 0.0]]),  # a zero diagonal entry
            np.array([[0.0, 0.0], [1.0, 1.0]]),  # the same, on dominant rows
            np.array([[1.0, 2.0], [2.0, 1.0]]),  # dominant neither way
        ],
    )
    def test_anything_else_keeps_colamd(self, A):
        assert options_for(A) == {"permc_spec": "COLAMD"}

    @pytest.mark.parametrize("permc_spec", ["COLAMD", "MMD_AT_PLUS_A", "MMD_ATA", "NATURAL"])
    def test_an_explicit_ordering_keeps_its_meaning(self, permc_spec):
        band = bands(poisson_2d(12))[0].tocsc()
        solver = ScipySuperLU(permc_spec=permc_spec)
        assert solver.splu_options(band) == {"permc_spec": permc_spec}
        want = spla.splu(band, permc_spec=permc_spec)
        got = solver.factor(band)._handle
        np.testing.assert_array_equal(got.perm_c, want.perm_c)
        np.testing.assert_array_equal(got.perm_r, want.perm_r)


class TestExplicitOrderings:
    @pytest.mark.parametrize("permc_spec", ["COLAMD", "MMD_AT_PLUS_A", "MMD_ATA", "NATURAL"])
    def test_each_solves_a_non_dominant_band(self, permc_spec):
        A = needs_row_interchanges(80, seed=2)
        b = np.linspace(-1.0, 1.0, 80)
        x = ScipySuperLU(permc_spec=permc_spec).solve(A, b)
        np.testing.assert_allclose(x, np.linalg.solve(A.toarray(), b), atol=1e-10)

    def test_the_registry_passes_the_ordering_on(self):
        solver = get_solver("scipy", permc_spec="NATURAL")
        assert isinstance(solver, ScipySuperLU)
        assert solver.permc_spec == "NATURAL"

    def test_an_unknown_ordering_is_rejected(self):
        with pytest.raises(ValueError):
            ScipySuperLU(permc_spec="AMD").factor(poisson_2d(3))

    def test_the_default_orders_an_arrow_without_fill(self):
        """An arrow pointing the wrong way (dense first row and column)
        fills every entry under the natural order; the default's symmetric
        ordering puts the dense row and column last."""
        n = 40
        A = sp.lil_matrix((n, n))
        A[0, :] = 1.0
        A[:, 0] = 1.0
        A.setdiag(n * 1.0)
        A = A.tocsc()
        natural = ScipySuperLU(permc_spec="NATURAL").factor(A).stats.nnz_factors
        default = get_solver("scipy").factor(A).stats.nnz_factors
        assert natural == n * n + n
        assert default <= 4 * n


class TestANonDominantBandIsPivoted:
    def test_solves_at_rounding_level(self):
        A = needs_row_interchanges()
        assert options_for(A) == {"permc_spec": "COLAMD"}
        x_true = np.random.default_rng(1).uniform(-1.0, 1.0, A.shape[0])
        b = A @ x_true
        x = get_solver("scipy").factor(A).solve(b)
        scale = abs(A).sum(axis=1).max() * np.abs(x).max()
        assert np.abs(A @ x - b).max() / scale < 1e-13
        # Diagonal pivots on this band: the residual is not small at all.
        unpivoted = spla.splu(A.tocsc(), **DIAGONAL_PIVOTS).solve(b)
        assert np.abs(A @ unpivoted - b).max() / scale > 1e-6


class TestFillIsCounted:
    """Counts fixed in advance (COLAMD on every band: 2 437 458 and 111 376)."""

    @pytest.mark.parametrize(
        "A, most",
        [(cage_like(6000, seed=0), 1_900_000), (poisson_2d(64), 85_000)],
        ids=["cage_like(6000)", "poisson_2d(64)"],
    )
    def test_four_bands(self, A, most):
        solver = get_solver("scipy")
        fill = sum(solver.factor(band).stats.nnz_factors for band in bands(A))
        assert fill <= most


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_resident_bytes_per_held_factor():
    """Eight held factors of a ``cage_like(6000)`` band grow the process
    by at most 5.3 MB each (measured 4.65 MB; 6.29 MB under COLAMD)."""
    script = """
import resource
from repro.direct import get_solver
from repro.matrices import cage_like

def resident():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * resource.getpagesize()

band = cage_like(6000, seed=0).tocsc()[:1500, :1500]
solver = get_solver("scipy")
solver.factor(band)  # warm-up: imports, allocator arenas
r0 = resident()
kept = [solver.factor(band * 2.0 ** e) for e in range(1, 9)]
print((resident() - r0) // len(kept))
"""
    out = subprocess.run(
        [sys.executable, "-c", script], env={"PYTHONPATH": SRC, "OMP_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=120, check=True,
    )
    per_factor = int(out.stdout)
    assert 0 < per_factor <= 5.3e6, per_factor / 1e6


class TestTheChoiceIgnoresAssembly:
    @staticmethod
    def _non_canonical(A):
        """``A`` as CSC with every off-diagonal entry ``v`` stored twice, as
        ``2v`` and ``-v``: the sums are ``A`` exactly, the magnitudes are
        three times ``A``'s."""
        coo = sp.coo_matrix(A)
        off = coo.row != coo.col
        rows = np.r_[coo.row, coo.row[off]]
        cols = np.r_[coo.col, coo.col[off]]
        data = np.r_[np.where(off, 2.0 * coo.data, coo.data), -coo.data[off]]
        order = np.lexsort((rows, cols))
        indptr = np.searchsorted(cols[order], np.arange(A.shape[1] + 1))
        dup = sp.csc_matrix((data[order], rows[order], indptr), shape=A.shape)
        assert not dup.has_canonical_format
        return dup

    @pytest.mark.parametrize(
        "A",
        [
            diagonally_dominant(200, dominance=1.5, bandwidth=8, seed=3).tocsr(),
            needs_row_interchanges(60),
        ],
        ids=["dominant", "needs-row-interchanges"],
    )
    def test_csr_csc_and_duplicates(self, A):
        b = np.arange(1.0, A.shape[0] + 1.0)
        x, perms = [], []
        for form in (A.tocsr(), A.tocsc(), self._non_canonical(A)):
            handle = get_solver("scipy").factor(form)._handle
            x.append(handle.solve(b))
            perms.append((handle.perm_c, handle.perm_r))
        for got in x[1:]:
            np.testing.assert_array_equal(got, x[0])
        for perm_c, perm_r in perms[1:]:
            np.testing.assert_array_equal(perm_c, perms[0][0])
            np.testing.assert_array_equal(perm_r, perms[0][1])
