"""Band LU with partial pivoting: an adapter over LAPACK ``gbtrf``/``gbtrs``.

The paper stresses that the multisplitting construction accepts "any
sequential direct solver whether it is dense, band or sparse".  This
kernel covers the band case: the matrix is packed into the ``gbtrf``
layout (diagonals as rows, ``kl`` extra rows for the fill that row
interchanges bring into ``U``), and ``info > 0`` -- an exact zero pivot
-- raises :class:`SingularMatrixError`.  :attr:`BandedFactorization.stats`
is :func:`repro.direct.costs.banded_factor_cost` with ``U``'s bandwidth
after interchanges, ``kl + ku``, plus the held arrays' size, built when
first read (only the simulated drivers read it).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs

from repro.direct.base import (
    DirectSolver,
    Factorization,
    FactorStats,
    SingularMatrixError,
    register_solver,
)
from repro.direct.costs import banded_factor_cost
from repro.linalg.sparse import as_csr

__all__ = ["BandedLU", "BandedFactorization"]


class BandedFactorization(Factorization):
    """``gbtrf`` factors in band storage, with their pivots and bandwidths."""

    def __init__(self, lu: np.ndarray, piv: np.ndarray, kl: int, ku: int, nnz_a: int):
        self._lu = lu
        self._piv = piv
        self._kl = kl
        self._ku = ku
        self._nnz_a = nnz_a
        self.n = lu.shape[1]

    @cached_property
    def stats(self) -> FactorStats:
        """Cost summary, computed when first asked for."""
        n, kl = self.n, self._kl
        cost = banded_factor_cost(n, kl, kl + self._ku)
        nnz_factors = self._lu.shape[0] * n
        return FactorStats(
            n=n,
            factor_flops=cost.factor_flops,
            solve_flops=cost.solve_flops,
            nnz_factors=nnz_factors,
            memory_bytes=self._lu.nbytes + self._piv.nbytes,
            fill_ratio=nnz_factors / max(self._nnz_a, 1),
        )

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n,):
            raise ValueError(f"rhs must have shape ({self.n},)")
        return dgbtrs(self._lu, self._kl, self._ku, b, self._piv)[0]

    def solve_many(self, B: np.ndarray) -> np.ndarray:
        """``gbtrs`` takes every column in one call."""
        B = np.asarray(B, dtype=float)
        if B.ndim == 1:
            return self.solve(B)
        if B.ndim != 2 or B.shape[0] != self.n:
            raise ValueError(f"B must have shape ({self.n}, k), got {B.shape}")
        return dgbtrs(self._lu, self._kl, self._ku, B, self._piv)[0]


@register_solver
class BandedLU(DirectSolver):
    """Band LU with partial pivoting (registry name ``"banded"``).

    The bandwidths are those of the stored entries of ``A``.
    """

    name = "banded"

    def factor(self, A) -> BandedFactorization:
        coo = as_csr(A).tocoo()
        n = coo.shape[0]
        if coo.shape != (n, n):
            raise ValueError("matrix must be square")
        if n == 0:
            raise ValueError("empty matrix")
        offset = coo.row - coo.col
        kl = int(offset.max(initial=0))
        ku = int(-offset.min(initial=0))
        ab = np.zeros((2 * kl + ku + 1, n))
        np.add.at(ab, (kl + ku + offset, coo.col), coo.data)
        lu, piv, info = dgbtrf(ab, kl, ku)
        if info > 0:
            raise SingularMatrixError(f"exact zero pivot at step {info - 1}")
        return BandedFactorization(lu, piv, kl, ku, coo.nnz)
