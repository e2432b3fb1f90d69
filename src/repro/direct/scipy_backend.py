"""SciPy SuperLU adapter.

``scipy.sparse.linalg.splu`` wraps the *actual* SuperLU library (the very
code the paper uses, version-modernised); behind the
:class:`repro.direct.base.DirectSolver` interface it is the repository's
sparse kernel, and the one the paper-table replays run.

**Each band is ordered for its factor.**  By default the options of
``splu`` are chosen per band, from the band alone, in one pass over its
CSC arrays (:meth:`ScipySuperLU.splu_options`).  On a diagonally
dominant band -- the class of Section 5's Proposition 1 -- Gaussian
elimination with diagonal pivots is stable, so the band takes the
symmetric ordering ``MMD_AT_PLUS_A`` in ``SymmetricMode`` with its
pivots kept on the diagonal: about a quarter less fill than COLAMD on
the ledger's bands, hence smaller held factors and shorter triangular
solves every round.  Any other band keeps COLAMD with partial pivoting.
The choice is a pure function of the band, so the content key still
determines the factor.  The dominance test is local rather than
:mod:`repro.matrices.properties`' predicates: those check rows only,
through a CSR copy, and would widen this package's imports.

Flops are not reported by SuperLU, so :attr:`ScipyFactorization.stats`
reconstructs the standard estimate from the factor column counts:
``flops = sum_j 2 * lnz_j * unz_j`` plus the solve cost ``2 * nnz(L+U)``.
It does so on *first read*, not at ``factor`` time: the column counts
need ``handle.L`` / ``handle.U``, and SuperLU keeps every matrix it hands
out, so reading them leaves each factor resident twice.  Only the
simulated drivers read ``stats``; a real solve never does.

**A factor is freed on the thread that made it.**  SciPy keeps
SuperLU's allocations in a *per-thread* table and its ``free`` only
releases a pointer it finds in the calling thread's table, so a SuperLU
object whose last reference dies on another thread is never freed
(about 0.33 MB per 375-row band, without bound).  Solving through a
handle from any thread is fine; only the release is bound to the maker.
:class:`ScipyFactorization` therefore remembers its maker thread, and
when it is finalised elsewhere it parks the raw handle on the maker's
orphan deque instead of letting it die there; :meth:`ScipySuperLU.factor`
drops whatever is parked for the calling thread before it factors.
Finalisers run inside arbitrary allocations, so there is no lock:
``deque.append`` and ``popleft`` are atomic under the interpreter lock.
The deque hangs off a ``threading.local``, so it goes with its thread:
a handle that outlives its maker thread cannot be freed by anyone (its
table died with the thread) and is let go rather than parked for ever.
"""

from __future__ import annotations

import threading
from collections import deque
from functools import cached_property

import numpy as np
import scipy.sparse.linalg as spla

from repro.direct.base import (
    DirectSolver,
    Factorization,
    FactorStats,
    SingularMatrixError,
    register_solver,
)
from repro.linalg.sparse import as_csc

__all__ = ["ScipySuperLU", "ScipyFactorization"]

_thread = threading.local()


def _orphans() -> deque:
    """The calling thread's deque of handles other threads gave back."""
    try:
        return _thread.orphans
    except AttributeError:
        _thread.orphans = deque()
        return _thread.orphans


class ScipyFactorization(Factorization):
    """Wrapper around a ``scipy.sparse.linalg.SuperLU`` object.

    ``n`` (the order, for the shape checks) is kept apart from ``stats``
    so that solving never materialises the statistics.  Construct it on
    the thread that called ``splu``: that is where the handle goes back
    to be released (see the module header).
    """

    def __init__(self, handle, nnz_a: int):
        self._handle = handle
        self._maker = threading.get_ident()
        self._home = _orphans()
        self._nnz_a = nnz_a
        self.n = handle.shape[0]

    def __del__(self, _ident=threading.get_ident):
        if _ident() != self._maker:
            self._home.append(self._handle)

    @cached_property
    def stats(self) -> FactorStats:
        """Cost summary, computed when first asked for (see module header)."""
        L, U = self._handle.L, self._handle.U
        lnz_per_col = np.diff(L.tocsc().indptr) - 1  # exclude unit diagonal
        unz_per_col = np.diff(U.tocsc().indptr)
        factor_flops = float(np.sum(2.0 * lnz_per_col * unz_per_col) + np.sum(lnz_per_col))
        nnz_factors = int(L.nnz + U.nnz)
        return FactorStats(
            n=self.n,
            factor_flops=factor_flops,
            solve_flops=2.0 * nnz_factors,
            nnz_factors=nnz_factors,
            memory_bytes=int(nnz_factors * (8 + 4) + 2 * (self.n + 1) * 4),
            fill_ratio=nnz_factors / max(self._nnz_a, 1),
        )

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n,):
            raise ValueError(f"rhs must have shape ({self.n},)")
        return self._handle.solve(b)

    def solve_many(self, B: np.ndarray) -> np.ndarray:
        """SuperLU's ``gstrs`` handles multiple right-hand sides natively."""
        B = np.asarray(B, dtype=float)
        if B.ndim == 1:
            return self.solve(B)
        if B.ndim != 2 or B.shape[0] != self.n:
            raise ValueError(f"B must have shape ({self.n}, k), got {B.shape}")
        return self._handle.solve(B)


def _diagonally_dominant(csc) -> bool:
    """Whether a canonical CSC matrix has a non-zero diagonal with
    ``|a_ii| >= sum_{j != i} |a_ij|`` on every row or on every column
    (one pass over its arrays)."""
    n = csc.shape[0]
    rows = csc.indices
    cols = np.repeat(np.arange(n), np.diff(csc.indptr))
    mag = np.abs(csc.data)
    on = rows == cols
    diag = np.zeros(n)
    diag[rows[on]] = mag[on]
    if not diag.all():
        return False
    mag[on] = 0.0
    return bool(
        (diag >= np.bincount(rows, mag, n)).all()
        or (diag >= np.bincount(cols, mag, n)).all()
    )


@register_solver
class ScipySuperLU(DirectSolver):
    """SuperLU via SciPy (registry name ``"scipy"``).

    Parameters
    ----------
    permc_spec:
        SuperLU column ordering.  ``None`` (default): chosen per band by
        :meth:`splu_options`.  ``"COLAMD"``, ``"MMD_AT_PLUS_A"``,
        ``"MMD_ATA"`` or ``"NATURAL"``: that ordering on every band, with
        SuperLU's default partial pivoting.
    """

    name = "scipy"

    def __init__(self, *, permc_spec: str | None = None):
        self.permc_spec = permc_spec

    def splu_options(self, csc) -> dict:
        """Keyword arguments of ``splu`` for the canonical CSC matrix ``csc``.

        Chosen per band, from the band alone: a diagonally dominant band
        (by rows or by columns, non-zero diagonal) is one where Gaussian
        elimination with diagonal pivots is stable, so it takes the
        symmetric fill-reducing ordering of ``A + A^T`` with its pivots
        kept on the diagonal.  Any other band keeps COLAMD with partial
        pivoting, the only safe path when rows must be interchanged.  An
        explicit ``permc_spec`` is passed on alone.
        """
        if self.permc_spec is not None:
            return {"permc_spec": self.permc_spec}
        if _diagonally_dominant(csc):
            return {
                "permc_spec": "MMD_AT_PLUS_A",
                "diag_pivot_thresh": 0.0,
                "options": {"SymmetricMode": True},
            }
        return {"permc_spec": "COLAMD"}

    def factor(self, A) -> ScipyFactorization:
        csc = as_csc(A)
        n = csc.shape[0]
        if n == 0:
            raise ValueError("empty matrix")
        orphans = _orphans()
        while orphans:
            orphans.popleft()  # made here, dropped elsewhere: released here
        csc.sum_duplicates()  # what splu does first; the choice needs it too
        try:
            handle = spla.splu(csc, **self.splu_options(csc))
        except RuntimeError as exc:  # SuperLU signals singularity this way
            raise SingularMatrixError(str(exc)) from exc
        return ScipyFactorization(handle, csc.nnz)
