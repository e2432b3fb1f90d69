"""The paper's contribution: multisplitting-direct linear solvers.

Layered as:

* :mod:`repro.core.partition` -- band/general decompositions, overlap;
* :mod:`repro.core.weighting` -- the ``E_lk`` families of Section 4;
* :mod:`repro.core.local` -- the per-processor factored band kernel;
* :mod:`repro.core.stopping` -- stopping rules (the paper's ``1e-8``);
* :mod:`repro.core.result` -- the one :class:`SolveResult` record;
* :mod:`repro.core.session` -- the run session every in-process
  schedule shares (binding, fold, monitor, result assembly);
* :mod:`repro.core.sequential` -- the in-process schedules: barrier
  and bounded-delay chaotic;
* :mod:`repro.core.sync` / :mod:`repro.core.asynchronous` -- the two
  distributed algorithms on the grid simulator;
* :mod:`repro.core.solver` -- the :class:`MultisplittingSolver` facade;
* :mod:`repro.core.theory` -- Theorem 1 / Propositions 1-3, extended
  fixed-point operator;
* :mod:`repro.core.preconditioning` -- Remark-5 hooks;
* :mod:`repro.core.newton` -- the nonlinear (companion-paper) extension.
"""

from repro.core.asynchronous import run_asynchronous
from repro.core.distributed import CommPattern, communication_pattern
from repro.core.local import LocalSystem, build_local_systems
from repro.core.newton import NewtonResult, newton_multisplitting
from repro.core.partition import (
    BandPartition,
    GeneralPartition,
    interleaved_partition,
    permuted_bands,
    proportional_bands,
    uniform_bands,
)
from repro.core.preconditioning import jacobi_preconditioner, row_equilibrate
from repro.core.result import SolveResult
from repro.core.sequential import chaotic_iterate, multisplitting_iterate
from repro.core.solver import MultisplittingSolver
from repro.core.stopping import LocalConvergenceState, StoppingCriterion
from repro.core.sync import run_synchronous
from repro.core.theory import (
    TheoremOneReport,
    check_theorem1,
    extended_operator,
    iteration_matrix,
    proposition1_applies,
    proposition2_applies,
    proposition3_applies,
    splitting_matrices,
)
from repro.core.weighting import (
    AveragingWeighting,
    BlockJacobiWeighting,
    OwnershipWeighting,
    SchwarzWeighting,
    WeightingScheme,
    make_weighting,
    validate_weighting,
)

__all__ = [
    "AveragingWeighting",
    "BandPartition",
    "BlockJacobiWeighting",
    "CommPattern",
    "GeneralPartition",
    "LocalConvergenceState",
    "LocalSystem",
    "MultisplittingSolver",
    "NewtonResult",
    "OwnershipWeighting",
    "SchwarzWeighting",
    "SolveResult",
    "StoppingCriterion",
    "TheoremOneReport",
    "WeightingScheme",
    "build_local_systems",
    "chaotic_iterate",
    "check_theorem1",
    "communication_pattern",
    "extended_operator",
    "interleaved_partition",
    "iteration_matrix",
    "jacobi_preconditioner",
    "permuted_bands",
    "make_weighting",
    "multisplitting_iterate",
    "newton_multisplitting",
    "proportional_bands",
    "proposition1_applies",
    "proposition2_applies",
    "proposition3_applies",
    "row_equilibrate",
    "run_asynchronous",
    "run_synchronous",
    "splitting_matrices",
    "uniform_bands",
    "validate_weighting",
]
