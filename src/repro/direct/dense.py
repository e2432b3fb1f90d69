"""Dense LU with partial pivoting: an adapter over LAPACK ``getrf``/``getrs``.

LAPACK is called directly rather than through ``scipy.linalg.lu_factor``,
which only *warns* on an exact zero pivot: here ``info > 0`` raises
:class:`SingularMatrixError`.  :attr:`DenseFactorization.stats` is the
textbook model :func:`repro.direct.costs.dense_factor_cost` plus the
held arrays' size, built when first read (only the simulated drivers
read it).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgetrf, dgetrs

from repro.direct.base import (
    DirectSolver,
    Factorization,
    FactorStats,
    SingularMatrixError,
    register_solver,
)
from repro.direct.costs import dense_factor_cost

__all__ = ["DenseLU", "DenseFactorization"]


class DenseFactorization(Factorization):
    """Packed ``getrf`` factors and their pivots.

    SciPy's ``getrs`` wrapper shifts the pivot array it is given to
    1-based in place for the length of the call, then back.  Executor
    threads share one factor, so every solve hands LAPACK a private
    copy: two threads shifting the shared array at once make LAPACK
    swap the wrong rows, or rows past the end.
    """

    def __init__(self, lu: np.ndarray, piv: np.ndarray, nnz_a: int):
        self._lu = lu
        self._piv = piv
        self._nnz_a = nnz_a
        self.n = lu.shape[0]

    @cached_property
    def stats(self) -> FactorStats:
        """Cost summary, computed when first asked for."""
        n = self.n
        cost = dense_factor_cost(n)
        return FactorStats(
            n=n,
            factor_flops=cost.factor_flops,
            solve_flops=cost.solve_flops,
            nnz_factors=n * n,
            memory_bytes=self._lu.nbytes + self._piv.nbytes,
            fill_ratio=(n * n) / max(self._nnz_a, 1),
        )

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n,):
            raise ValueError(f"rhs must have shape ({self.n},)")
        return dgetrs(self._lu, self._piv.copy(), b)[0]

    def solve_many(self, B: np.ndarray) -> np.ndarray:
        """``getrs`` takes every column in one call."""
        B = np.asarray(B, dtype=float)
        if B.ndim == 1:
            return self.solve(B)
        if B.ndim != 2 or B.shape[0] != self.n:
            raise ValueError(f"B must have shape ({self.n}, k), got {B.shape}")
        return dgetrs(self._lu, self._piv.copy(), B)[0]


@register_solver
class DenseLU(DirectSolver):
    """Dense LU with partial pivoting (registry name ``"dense"``)."""

    name = "dense"

    def factor(self, A) -> DenseFactorization:
        dense = A.toarray() if sp.issparse(A) else np.asarray(A, dtype=float)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError("matrix must be square")
        if dense.shape[0] == 0:
            raise ValueError("empty matrix")
        lu, piv, info = dgetrf(dense)
        if info > 0:
            raise SingularMatrixError(f"exact zero pivot at step {info - 1}")
        return DenseFactorization(lu, piv, int(np.count_nonzero(dense)))
