"""Analytic cost models for direct kernels.

Two consumers:

* the **grid simulator** charges compute time as ``flops / host_rate``;
  LAPACK counts no flops, so the dense and band adapters report these
  models, and the distributed baseline and capacity planning need them
  as *a-priori* estimates;
* the **memory model** decides whether a factorization fits on a host,
  which is how the paper's "nem" (not enough memory) entries of Table 3
  arise.

All estimates are the standard textbook counts (Golub & Van Loan for
dense/banded; nnz-based for sparse).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "CostEstimate",
    "dense_factor_cost",
    "banded_factor_cost",
    "sparse_factor_cost",
    "BYTES_PER_NNZ",
]

#: Bytes per stored sparse non-zero: 8 (value) + 4 (row index); column
#: pointers are amortised into this constant.
BYTES_PER_NNZ = 12


@dataclass(frozen=True)
class CostEstimate:
    """A-priori cost of one factorization.

    Attributes
    ----------
    factor_flops:
        Estimated floating-point operations for the factorization.
    solve_flops:
        Estimated flops for one two-triangular-solve application.
    memory_bytes:
        Estimated resident size of the factors.
    """

    factor_flops: float
    solve_flops: float
    memory_bytes: int


def dense_factor_cost(n: int) -> CostEstimate:
    """LU with partial pivoting on a dense ``n x n`` matrix: ``(2/3) n^3``."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return CostEstimate(
        factor_flops=(2.0 / 3.0) * n**3,
        solve_flops=2.0 * n**2,
        memory_bytes=8 * n * n,
    )


def banded_factor_cost(n: int, kl: int, ku: int) -> CostEstimate:
    """Band LU: ``~2 n kl ku`` flops, ``O(n (kl+ku))`` memory.

    ``ku`` is ``U``'s upper bandwidth.  Partial pivoting widens it from
    the matrix's ``ku`` to ``kl + ku``, which is what a pivoting caller
    passes.
    """
    if min(n, kl, ku) < 0:
        raise ValueError("arguments must be non-negative")
    width = kl + ku + 1
    return CostEstimate(
        factor_flops=2.0 * n * max(kl, 1) * max(ku, 1),
        solve_flops=2.0 * n * width,
        memory_bytes=8 * n * width,
    )


def sparse_factor_cost(n: int, nnz: int, *, fill_ratio: float = 8.0) -> CostEstimate:
    """Sparse LU estimate from an assumed fill ratio.

    With ``nnz_F = fill_ratio * nnz`` stored factor entries, the standard
    proxy ``flops ~ 2 * nnz_F^2 / n`` (each factor column of average length
    ``nnz_F / n`` updated by a same-length U column) is used.  It
    reproduces the empirical super-linear growth of factorization time with
    fill, which is what the paper's factorization-time discussion needs.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if nnz < 0:
        raise ValueError("nnz must be non-negative")
    if fill_ratio < 1.0:
        raise ValueError("fill_ratio must be >= 1")
    nnz_f = fill_ratio * max(nnz, n)
    return CostEstimate(
        factor_flops=2.0 * nnz_f * nnz_f / n,
        solve_flops=2.0 * nnz_f,
        memory_bytes=int(BYTES_PER_NNZ * nnz_f),
    )

