"""Sequential direct solver kernels (the SuperLU 3.0 role).

The paper builds its multisplitting solvers on the *sequential* version of
SuperLU and accepts "any sequential direct solver whether it is dense,
band or sparse"; this package puts each behind a single
:class:`~repro.direct.base.DirectSolver` interface:

==========  ===========================================================
``dense``   LAPACK ``getrf``/``getrs`` (:mod:`repro.direct.dense`)
``banded``  LAPACK ``gbtrf``/``gbtrs`` (:mod:`repro.direct.banded`)
``scipy``   SuperLU via ``scipy.sparse.linalg.splu``, the sparse kernel
            (:mod:`repro.direct.scipy_backend`)
==========  ===========================================================

Use :func:`get_solver` to instantiate by name, e.g.
``get_solver("scipy", permc_spec="COLAMD")``.
"""

from repro.direct.banded import BandedFactorization, BandedLU
from repro.direct.cache import (
    CacheKey,
    CacheStats,
    FactorizationCache,
    matrix_fingerprint,
    solver_fingerprint,
)
from repro.direct.base import (
    DirectSolver,
    Factorization,
    FactorStats,
    SingularMatrixError,
    available_solvers,
    get_solver,
    register_solver,
)
from repro.direct.costs import (
    BYTES_PER_NNZ,
    CostEstimate,
    banded_factor_cost,
    dense_factor_cost,
    sparse_factor_cost,
)
from repro.direct.dense import DenseFactorization, DenseLU
from repro.direct.scipy_backend import ScipyFactorization, ScipySuperLU

__all__ = [
    "BYTES_PER_NNZ",
    "BandedFactorization",
    "BandedLU",
    "CacheKey",
    "CacheStats",
    "CostEstimate",
    "FactorizationCache",
    "DenseFactorization",
    "DenseLU",
    "DirectSolver",
    "Factorization",
    "FactorStats",
    "ScipyFactorization",
    "ScipySuperLU",
    "SingularMatrixError",
    "available_solvers",
    "banded_factor_cost",
    "dense_factor_cost",
    "get_solver",
    "matrix_fingerprint",
    "register_solver",
    "solver_fingerprint",
    "sparse_factor_cost",
]
