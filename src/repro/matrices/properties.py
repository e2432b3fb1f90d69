"""Matrix property checkers backing Section 5 of the paper.

Section 5 identifies the classes of systems for which the
multisplitting-direct algorithms provably converge:

* **Proposition 1** -- strictly or irreducibly diagonally dominant matrices
  (then the point-Jacobi matrix satisfies ``rho(|J|) < 1``);
* **Propositions 2-3** -- Z-matrices that are M-matrices (via an LU
  factorisation with non-negative structure, or positive real eigenvalues).

These predicates are used by :mod:`repro.core.theory` to *check before
solving* and by the test-suite to validate the generators.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from repro.linalg.sparse import as_csr
from repro.linalg.spectral import absolute_spectral_radius

__all__ = [
    "diagonal_dominance_margin",
    "is_strictly_diagonally_dominant",
    "is_weakly_diagonally_dominant",
    "is_irreducible",
    "is_irreducibly_diagonally_dominant",
    "is_z_matrix",
    "is_m_matrix",
    "jacobi_matrix",
    "jacobi_spectral_radius",
]


def _row_data(A) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(|diag|, off-diagonal absolute row sums)``."""
    csr = as_csr(A)
    diag = np.abs(csr.diagonal())
    offsum = np.asarray(np.abs(csr).sum(axis=1)).ravel() - diag
    return diag, offsum


def diagonal_dominance_margin(A) -> float:
    """Return ``min_i (|a_ii| - sum_{j!=i} |a_ij|)``.

    Positive for strictly dominant matrices, zero for weakly dominant ones
    with at least one tight row, negative otherwise.
    """
    diag, offsum = _row_data(A)
    if diag.size == 0:
        return 0.0
    return float(np.min(diag - offsum))


def is_strictly_diagonally_dominant(A) -> bool:
    """Return ``True`` when every row satisfies ``|a_ii| > sum |a_ij|``."""
    return diagonal_dominance_margin(A) > 0.0


def is_weakly_diagonally_dominant(A) -> bool:
    """Return ``True`` when every row satisfies ``|a_ii| >= sum |a_ij|``."""
    return diagonal_dominance_margin(A) >= 0.0


def is_irreducible(A) -> bool:
    """Return ``True`` when the directed adjacency graph is strongly connected.

    Irreducibility is what upgrades weak dominance (with one strict row) to
    convergence in Varga's theorem; we check it exactly on the sparsity
    pattern -- off-diagonal entries with a non-zero value, stored zeros
    ignored -- as one strongly connected component
    (:func:`scipy.sparse.csgraph.connected_components`).
    """
    coo = as_csr(A).tocoo()
    n = coo.shape[0]
    if n == 0:
        return True
    edge = (coo.row != coo.col) & (coo.data != 0)
    pattern = sp.csr_matrix(
        (np.ones(edge.sum(), dtype=bool), (coo.row[edge], coo.col[edge])),
        shape=(n, n),
    )
    return connected_components(pattern, directed=True, connection="strong")[0] == 1


def is_irreducibly_diagonally_dominant(A) -> bool:
    """Return ``True`` for Varga's irreducible diagonal dominance.

    Requires: weak dominance in every row, strict dominance in at least one
    row, and an irreducible pattern.
    """
    diag, offsum = _row_data(A)
    if diag.size == 0:
        return True
    margins = diag - offsum
    if np.any(margins < 0):
        return False
    if not np.any(margins > 0):
        return False
    return is_irreducible(A)


def is_z_matrix(A, *, tol: float = 0.0) -> bool:
    """Return ``True`` when all off-diagonal entries are ``<= tol``.

    Z-matrices are the class of Propositions 2-3 ("square matrices for
    which the off-diagonal entries are non positive").
    """
    coo = as_csr(A).tocoo()
    mask = coo.row != coo.col
    if not mask.any():
        return True
    return bool(np.all(coo.data[mask] <= tol))


def jacobi_matrix(A) -> sp.csr_matrix:
    """Return the point-Jacobi iteration matrix ``J = -D^{-1}(A - D)``.

    Raises
    ------
    ZeroDivisionError
        If the diagonal has a zero entry (Jacobi is then undefined).
    """
    csr = as_csr(A)
    d = csr.diagonal()
    if np.any(d == 0):
        raise ZeroDivisionError("zero diagonal entry; Jacobi matrix undefined")
    n = csr.shape[0]
    Dinv = sp.diags(1.0 / d)
    off = csr - sp.diags(d)
    return (-(Dinv @ off)).tocsr() + sp.csr_matrix((n, n))


def jacobi_spectral_radius(A, *, absolute: bool = True) -> float:
    """Return ``rho(|J|)`` (default) or ``rho(J)`` of the point-Jacobi matrix.

    Proposition 1 rests on ``rho(|J|) < 1`` for (irreducibly/strictly)
    diagonally dominant matrices.
    """
    J = jacobi_matrix(A)
    if absolute:
        return absolute_spectral_radius(J)
    from repro.linalg.spectral import spectral_radius

    return spectral_radius(J)


def is_m_matrix(A, *, tol: float = 1e-12) -> bool:
    """Return ``True`` when ``A`` is a non-singular M-matrix.

    Implementation of the classical characterisation used in the proofs of
    Propositions 2-3 (Berman & Plemmons, theorem 2.3): ``A`` is a Z-matrix
    and can be written ``A = s I - B`` with ``B >= 0`` and
    ``rho(B) < s``.  We take ``s = max_i a_ii`` and test
    ``rho(s I - A) < s - tol``.

    This is exact for Z-matrices with positive diagonal and avoids an
    explicit (and expensive) inverse-positivity test.
    """
    if not is_z_matrix(A):
        return False
    csr = as_csr(A)
    d = csr.diagonal()
    if np.any(d <= 0):
        return False
    s = float(np.max(d))
    B = (sp.diags(np.full(csr.shape[0], s)) - csr).tocsr()
    # B is non-negative by construction for a Z-matrix with diag <= s.
    rho = absolute_spectral_radius(B)
    return rho < s - tol
