"""repro -- multisplitting-direct linear solvers for grid environments.

Reproduction of Bahi & Couturier, *Parallelization of direct algorithms
using multisplitting methods in grid environments* (IPPS 2005).

The package is organised as:

* :mod:`repro.core` -- the paper's contribution: the multisplitting-direct
  solver (synchronous and asynchronous), partitions/overlap, weighting
  families, convergence theory.
* :mod:`repro.direct` -- sequential direct solver kernels (LAPACK dense
  and band LU, SuperLU) playing the role of SuperLU 3.0.
* :mod:`repro.distbaseline` -- the distributed-LU baseline playing the role
  of SuperLU_DIST 2.0.
* :mod:`repro.grid` -- deterministic discrete-event grid simulator (hosts,
  networks, the paper's three cluster presets).
* :mod:`repro.detection` -- centralized and decentralized convergence
  detection protocols.
* :mod:`repro.matrices` -- workload generators and the named registry for
  the paper's five inputs.
* :mod:`repro.experiments` -- runners regenerating every table and figure.
* :mod:`repro.serve` -- the multi-tenant batching gateway serving live
  concurrent solve requests over a shared factorization cache.

Quickstart::

    from repro import MultisplittingSolver, load_workload
    from repro.grid import cluster1

    A, b, x_true = load_workload("cage10")
    solver = MultisplittingSolver(processors=8, mode="synchronous")
    result = solver.solve(A, b, cluster=cluster1(8))
    print(result.iterations, result.simulated_time, result.residual)
"""

__version__ = "1.0.0"

from repro.matrices.collection import load_workload, workload_names

__all__ = [
    "FactorizationCache",
    "MultisplittingSolver",
    "SolveResult",
    "load_workload",
    "workload_names",
    "__version__",
]


def __getattr__(name):  # pragma: no cover - thin lazy-import shim
    # core imports grid/direct/detection; keep top-level import light and
    # cycle-free by resolving the solver facade lazily.
    if name in {"MultisplittingSolver", "SolveResult"}:
        from repro.core.solver import MultisplittingSolver, SolveResult

        return {"MultisplittingSolver": MultisplittingSolver, "SolveResult": SolveResult}[name]
    if name == "FactorizationCache":
        from repro.direct.cache import FactorizationCache

        return FactorizationCache
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
