"""Direct-solver kernel interface.

The multisplitting method treats the sequential direct solver as an opaque
kernel with exactly two operations (Remark 4 and Section 6 of the paper):

* ``factor(A)`` -- performed **once** per sub-matrix, potentially expensive
  (the paper highlights factorization time as the dominant cost of the
  multisplitting-LU solvers);
* ``Factorization.solve(b)`` -- performed at **every outer iteration**,
  cheap (triangular solves).

Every kernel reports a :class:`FactorStats` on request
(``Factorization.stats``) so the grid simulator can charge realistic
compute time and memory for the factorization and for each re-solve, and
so the "not enough memory" outcome of Table 3 can be reproduced
faithfully.  The built-in kernels compute it when first read: nothing on
the path of a real solve reads it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DirectSolver",
    "Factorization",
    "FactorStats",
    "SingularMatrixError",
    "available_solvers",
    "get_solver",
    "register_solver",
]


class SingularMatrixError(ValueError):
    """Raised when a kernel meets an (numerically) singular pivot."""


@dataclass(frozen=True)
class FactorStats:
    """Cost summary of one factorization.

    Attributes
    ----------
    n:
        Order of the factored matrix.
    factor_flops:
        Floating point operations spent by ``factor`` (counted, or modelled
        for backends that do not expose counters).
    solve_flops:
        Flops for a single ``solve`` call (two triangular solves).
    nnz_factors:
        Stored non-zeros of ``L + U`` (dense kernels report ``n*n``).
    memory_bytes:
        Resident bytes of the factorization (values + indices); this is
        what the host memory model charges.
    fill_ratio:
        ``nnz_factors / nnz(A)`` -- the fill-in factor, reported because the
        paper's memory argument (sequential SuperLU failing on cage11 with
        1 GB) is a fill-in story.
    """

    n: int
    factor_flops: float
    solve_flops: float
    nnz_factors: int
    memory_bytes: int
    fill_ratio: float


class Factorization(abc.ABC):
    """Handle returned by :meth:`DirectSolver.factor`."""

    #: Provided by concrete kernels -- an attribute, or (the built-in
    #: kernels) a property computed on first read.
    stats: FactorStats

    @abc.abstractmethod
    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` for one right-hand side using the stored factors."""

    def solve_many(self, B: np.ndarray) -> np.ndarray:
        """Solve ``A X = B`` for a batch of right-hand sides, shape ``(n, k)``.

        Returns ``X`` with the same shape.  Concrete kernels override this
        with a vectorized sweep (one pass over the factors for *all*
        columns); this fallback loops so every kernel honours the batched
        contract regardless.  A 1-D ``B`` is handled as a single system.
        """
        B = np.asarray(B, dtype=float)
        if B.ndim == 1:
            return self.solve(B)
        if B.ndim != 2 or B.shape[0] != self.stats.n:
            raise ValueError(f"B must have shape ({self.stats.n}, k), got {B.shape}")
        out = np.empty_like(B)
        for j in range(B.shape[1]):
            out[:, j] = self.solve(B[:, j])
        return out


class DirectSolver(abc.ABC):
    """A sequential direct solver kernel (the SuperLU role)."""

    #: Registry key, set by concrete classes.
    name: str = "abstract"

    @abc.abstractmethod
    def factor(self, A) -> Factorization:
        """Factor ``A`` (dense array or scipy sparse) and return a handle.

        Raises
        ------
        SingularMatrixError
            If a zero (or numerically negligible) pivot is encountered.
        """

    def solve(self, A, b: np.ndarray) -> np.ndarray:
        """Convenience: factor then solve a single system."""
        return self.factor(A).solve(b)


_REGISTRY: dict[str, type[DirectSolver]] = {}


def register_solver(cls: type[DirectSolver]) -> type[DirectSolver]:
    """Class decorator adding a kernel to the registry under ``cls.name``."""
    key = cls.name
    if key in _REGISTRY and _REGISTRY[key] is not cls:
        raise ValueError(f"solver name {key!r} already registered")
    _REGISTRY[key] = cls
    return cls


def available_solvers() -> list[str]:
    """Return the registered kernel names (import side effects included)."""
    _ensure_builtin_imports()
    return sorted(_REGISTRY)


def get_solver(name: str, **kwargs) -> DirectSolver:
    """Instantiate a registered kernel by name.

    ``kwargs`` are forwarded to the kernel constructor (e.g.
    ``permc_spec=`` for ``"scipy"``).
    """
    _ensure_builtin_imports()
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown direct solver {name!r}; available: {available_solvers()}"
        ) from None
    return cls(**kwargs)


def _ensure_builtin_imports() -> None:
    # Import the built-in kernels for their registration side effects.
    from repro.direct import banded, dense, scipy_backend  # noqa: F401
