"""Workload matrix generators.

The paper evaluates on two families:

* the ``cage`` matrices from the University of Florida collection (DNA
  electrophoresis models) -- see :mod:`repro.matrices.cage`;
* matrices produced by the authors' own *diagonally dominant generator*,
  including one "especially chosen to measure the influence of the
  overlapping, that is why its spectral radius is close to 1".

This module implements the second family from scratch, plus the classic
PDE discretisations (2-D/3-D Poisson, advection-diffusion) that the paper's
introduction motivates ("scientific applications modeled by PDEs and
discretized by the finite difference method" -- Section 5.2), and a few
structural generators (banded, tridiagonal) used by tests.

All generators are deterministic given a ``seed`` and return
``scipy.sparse.csr_matrix`` with ``float64`` data.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = [
    "diagonally_dominant",
    "poisson_1d",
    "poisson_2d",
    "poisson_3d",
    "advection_diffusion_2d",
    "tridiagonal",
    "banded_random",
    "random_sparse",
    "rhs_for_solution",
]


def diagonally_dominant(
    n: int,
    *,
    density_per_row: int = 6,
    bandwidth: int | None = None,
    dominance: float = 2.0,
    negative_off_diagonals: bool = True,
    seed: int = 0,
) -> sp.csr_matrix:
    """Generate a strictly diagonally dominant non-symmetric sparse matrix.

    This mirrors the paper's generator ("we have developed a generator that
    builds diagonal dominant matrices", Section 6).  Each row receives
    ``density_per_row`` off-diagonal entries drawn inside an optional band,
    and the diagonal is set to ``dominance`` times the absolute row sum of
    the off-diagonal part.

    ``dominance`` directly controls the point-Jacobi spectral radius: since
    ``|a_ii| = dominance * sum_j |a_ij|``, every row of the Jacobi matrix has
    absolute sum ``1/dominance``, hence ``rho(|J|) <= 1/dominance``.  The
    paper's overlap experiment (Figure 3) uses a matrix whose spectral radius
    is *close to 1*; pass e.g. ``dominance=1.02`` to reproduce that regime.

    Parameters
    ----------
    n:
        Matrix order.
    density_per_row:
        Number of off-diagonal entries per row (clipped to available
        positions near the matrix borders).
    bandwidth:
        When given, off-diagonal column indices are restricted to
        ``|i-j| <= bandwidth``.  Band-limited coupling is what makes the
        paper's horizontal band decomposition meaningful: dependencies reach
        only a few neighbouring processors.
    dominance:
        Ratio of the diagonal magnitude to the off-diagonal absolute row
        sum; must be > 1 for strict dominance.
    negative_off_diagonals:
        When ``True`` all off-diagonal entries are negative, which combined
        with the positive diagonal makes the matrix a (non-singular)
        M-matrix -- the class covered by Propositions 2 and 3.
    seed:
        RNG seed; the same seed always yields the same matrix.

    Raises
    ------
    ValueError
        If ``dominance <= 1`` or ``n <= 0``.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if dominance <= 1.0:
        raise ValueError("dominance must exceed 1 for strict dominance")
    rng = np.random.default_rng(seed)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    half = bandwidth if bandwidth is not None else n
    for i in range(n):
        lo = max(0, i - half)
        hi = min(n, i + half + 1)
        candidates = np.concatenate(
            [np.arange(lo, i), np.arange(i + 1, hi)]
        )
        if candidates.size == 0:
            continue
        k = min(density_per_row, candidates.size)
        chosen = rng.choice(candidates, size=k, replace=False)
        mags = rng.uniform(0.2, 1.0, size=k)
        if negative_off_diagonals:
            offvals = -mags
        else:
            signs = rng.choice([-1.0, 1.0], size=k)
            offvals = mags * signs
        rows.append(np.full(k, i, dtype=np.int64))
        cols.append(chosen.astype(np.int64))
        vals.append(offvals)
    if rows:
        row = np.concatenate(rows)
        col = np.concatenate(cols)
        val = np.concatenate(vals)
    else:
        row = np.empty(0, dtype=np.int64)
        col = np.empty(0, dtype=np.int64)
        val = np.empty(0)
    off = sp.coo_matrix((val, (row, col)), shape=(n, n)).tocsr()
    rowsum = np.asarray(np.abs(off).sum(axis=1)).ravel()
    diag = dominance * np.maximum(rowsum, 1e-3)
    return (off + sp.diags(diag, format="csr")).tocsr()


def poisson_1d(n: int) -> sp.csr_matrix:
    """Return the ``n x n`` 1-D Poisson (tridiagonal ``[-1, 2, -1]``) matrix.

    Irreducibly diagonally dominant Z-matrix: the canonical Proposition 1 /
    Proposition 3 workload.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    main = 2.0 * np.ones(n)
    off = -1.0 * np.ones(n - 1)
    return sp.diags([off, main, off], offsets=[-1, 0, 1], format="csr")


def poisson_2d(nx: int, ny: int | None = None) -> sp.csr_matrix:
    """Return the 5-point finite-difference Laplacian on an ``nx x ny`` grid.

    Dirichlet boundary conditions; natural (row-major) unknown ordering so
    the matrix is block-tridiagonal with bandwidth ``nx`` -- a realistic PDE
    source of the band-limited coupling that the multisplitting method
    exploits.
    """
    ny = nx if ny is None else ny
    if nx <= 0 or ny <= 0:
        raise ValueError("grid dimensions must be positive")
    Ix = sp.identity(nx, format="csr")
    Iy = sp.identity(ny, format="csr")
    Tx = poisson_1d(nx)
    Ty = poisson_1d(ny)
    return (sp.kron(Iy, Tx) + sp.kron(Ty, Ix)).tocsr()


def poisson_3d(nx: int, ny: int | None = None, nz: int | None = None) -> sp.csr_matrix:
    """Return the 7-point Laplacian on an ``nx x ny x nz`` grid.

    The companion paper [5] solves a 3-D pollutant-transport model; this is
    the matching symmetric substrate for such workloads.
    """
    ny = nx if ny is None else ny
    nz = nx if nz is None else nz
    if min(nx, ny, nz) <= 0:
        raise ValueError("grid dimensions must be positive")
    Ix = sp.identity(nx, format="csr")
    Iy = sp.identity(ny, format="csr")
    Iz = sp.identity(nz, format="csr")
    A2 = poisson_2d(nx, ny)
    return (sp.kron(Iz, A2) + sp.kron(poisson_1d(nz), sp.kron(Iy, Ix))).tocsr()


def advection_diffusion_2d(
    nx: int,
    ny: int | None = None,
    *,
    peclet: float = 0.5,
) -> sp.csr_matrix:
    """Return a non-symmetric upwind advection-diffusion operator.

    Diffusion is the 5-point Laplacian; advection adds a first-order upwind
    term of strength ``peclet`` in both grid directions.  With
    ``0 <= peclet`` the matrix stays an irreducibly diagonally dominant
    Z-matrix while being genuinely non-symmetric -- matching the
    "large, sparse, non-symmetric linear systems" SuperLU targets.
    """
    ny = nx if ny is None else ny
    if nx <= 0 or ny <= 0:
        raise ValueError("grid dimensions must be positive")
    if peclet < 0:
        raise ValueError("peclet must be non-negative")
    # 1-D stencils: the whole diagonal rides on the x term, so no entry
    # of the sum is ever the result of an addition.
    lower = -1.0 - peclet
    Tx = sp.diags(
        [lower, 4.0 + 2.0 * peclet, -1.0], [-1, 0, 1], shape=(nx, nx), format="csr"
    )
    Ty = sp.diags([lower, -1.0], [-1, 1], shape=(ny, ny), format="csr")
    Ix = sp.identity(nx, format="csr")
    Iy = sp.identity(ny, format="csr")
    return (sp.kron(Iy, Tx, format="csr") + sp.kron(Ty, Ix, format="csr")).tocsr()


def tridiagonal(
    n: int,
    *,
    lower: float = -1.0,
    diag: float = 2.0,
    upper: float = -1.0,
) -> sp.csr_matrix:
    """Return a constant-coefficient tridiagonal matrix."""
    if n <= 0:
        raise ValueError("n must be positive")
    return sp.diags(
        [np.full(n - 1, lower), np.full(n, diag), np.full(n - 1, upper)],
        offsets=[-1, 0, 1],
        format="csr",
    )


def banded_random(
    n: int,
    *,
    lower_bw: int = 2,
    upper_bw: int = 2,
    dominance: float = 2.0,
    seed: int = 0,
) -> sp.csr_matrix:
    """Return a dense-in-band random matrix with prescribed bandwidths.

    The band direct solver (:mod:`repro.direct.banded`) is exercised with
    these; ``dominance > 1`` makes them strictly diagonally dominant by
    rows, hence non-singular.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if lower_bw < 0 or upper_bw < 0:
        raise ValueError("bandwidths must be non-negative")
    rng = np.random.default_rng(seed)
    diags = []
    offsets = []
    for off in range(-lower_bw, upper_bw + 1):
        if off == 0:
            continue
        m = n - abs(off)
        if m <= 0:
            continue
        diags.append(rng.uniform(-1.0, 1.0, size=m))
        offsets.append(off)
    A = sp.diags(diags, offsets=offsets, shape=(n, n), format="csr") if diags else sp.csr_matrix((n, n))
    rowsum = np.asarray(np.abs(A).sum(axis=1)).ravel()
    A = A + sp.diags(dominance * np.maximum(rowsum, 1e-3), format="csr")
    return A.tocsr()


def random_sparse(
    n: int,
    *,
    density: float = 0.01,
    seed: int = 0,
    ensure_nonsingular: bool = True,
) -> sp.csr_matrix:
    """Return a uniformly random sparse matrix (general-purpose test input).

    With ``ensure_nonsingular`` a dominant diagonal is added so direct
    kernels can be tested on it without pivoting pathologies.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if not (0.0 < density <= 1.0):
        raise ValueError("density must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    A = sp.random(n, n, density=density, random_state=rng, format="csr", dtype=float)
    if ensure_nonsingular:
        rowsum = np.asarray(np.abs(A).sum(axis=1)).ravel()
        A = A + sp.diags(rowsum + 1.0, format="csr")
    return A.tocsr()


def rhs_for_solution(A, x_true: np.ndarray | None = None, *, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(b, x_true)`` with ``b = A @ x_true``.

    Manufactured right-hand sides let every experiment verify the final
    error against a known solution, not only the residual.
    """
    n = A.shape[0]
    if x_true is None:
        rng = np.random.default_rng(seed)
        x_true = rng.uniform(-1.0, 1.0, size=n)
    x_true = np.asarray(x_true, dtype=float)
    if x_true.shape != (n,):
        raise ValueError(f"x_true must have shape ({n},)")
    return np.asarray(A @ x_true, dtype=float).ravel(), x_true
