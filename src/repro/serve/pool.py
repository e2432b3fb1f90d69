"""The solving substrate behind the gateway: :class:`SolverPool`.

A batch is one thread's work from admission to free.  One re-entrant
:class:`~repro.core.solver.MultisplittingSolver` facade resolves every
factorization through one cross-tenant
:class:`~repro.direct.cache.FactorizationCache`: the first request
against a matrix pays the band factorizations, every coalesced or
repeat request after it is solve-only (the paper's factor-once /
solve-many economics, applied across tenants instead of across
iterations).  The cache is capacity-bounded so a long-lived pool under
many cold tenants evicts least-recently-used factorizations instead of
growing without bound.

**One batch iterates at a time.**  The iteration is interpreter-bound
with ~70 thin kernel calls per solve, each of which drops the
interpreter lock; two threads doing that do not overlap, they convoy
(two threads looping on a 31-39 us SuperLU ``solve`` take 66-171 us per
pair of calls -- up to 2.8x slower than taking turns -- where a 600 us
call does scale, ~670 us per pair).  So :attr:`SolverPool.threads` has
one worker and :meth:`SolverPool.solve_batch` holds one lock;
parallelism for fat tenants belongs *under* the batch, where the paper
puts it (``backend="processes"`` runs the ``L`` band solves on a fleet).

**A tenant is bound once.**  Matrices are admitted by *content*:
:meth:`SolverPool.register` fingerprints the matrix and returns the key
requests are submitted under, so two tenants uploading byte-identical
systems share one cache entry (and one solve round, when their requests
coalesce).  The key is the digest taken at ``register``, so a
registered matrix is immutable: everything a solve derives from the
matrix alone -- the partition, the weighting with its update weights,
the ``L`` band slices and their cache keys -- is derived on the key's
first batch and kept beside the matrix (arrays the size of ``A``; never
a factor, the LRU stays their only owner).  A batch is then ``B[J_l]``,
``L`` keyed cache lookups and the rounds.  A matrix mutated in place
must be registered again: it gets a new key and its own binding.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.core.local import BandSlice, slice_local_system
from repro.core.solver import MultisplittingSolver
from repro.direct.cache import CacheStats, FactorizationCache, matrix_fingerprint
from repro.linalg.sparse import as_csr
from repro.runtime.api import InProcessExecutor

__all__ = ["SolverPool"]


@dataclass
class _Tenant:
    """A registered matrix and what its first batch derived from it."""

    A: object
    #: the facade's ``(plan, partition, weighting)`` of ``A``
    layout: tuple | None = None
    #: ``A``'s band slices, keyed -- in-process backends only
    slices: list[BandSlice] | None = None


class SolverPool:
    """One solver worker over one shared cache.

    Parameters
    ----------
    size:
        Accepted, validated and readable, but it no longer sets a thread
        count: batches iterate one at a time whatever it says (see the
        module header for the measurement), so the default is 1.  Kept
        because callers pass it; use ``backend="processes"`` to put more
        cores under a batch.
    processors:
        Band count ``L`` of every multisplitting solve.
    cache_capacity:
        LRU bound on the shared factorization cache (``None`` =
        unbounded).  Each matrix consumes ``L`` entries (one per band).
    backend / direct_solver / solver_kwargs:
        Forwarded to :class:`MultisplittingSolver` (sequential mode).
    """

    def __init__(
        self,
        *,
        size: int = 1,
        processors: int = 4,
        cache_capacity: int | None = 256,
        backend: str = "inline",
        direct_solver: str = "scipy",
        **solver_kwargs,
    ):
        if size < 1:
            raise ValueError("size must be positive")
        self.size = size
        self.cache = FactorizationCache(capacity=cache_capacity)
        self.solver = MultisplittingSolver(
            processors=processors,
            mode="sequential",
            direct_solver=direct_solver,
            cache=self.cache,
            backend=backend,
            **solver_kwargs,
        )
        #: The gateway's ``run_in_executor`` seam: one worker, so the
        #: gateway's batches queue here and the event loop stays free.
        self.threads = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        #: Serialises direct :meth:`solve_batch` callers on any thread
        #: with the worker (uncontended on the gateway path).
        self._one_batch = threading.Lock()
        self._tenants: dict[str, _Tenant] = {}

    # -- tenancy ---------------------------------------------------------
    def register(self, A) -> str:
        """Admit matrix ``A``; returns its content key.

        Byte-identical matrices map to the same key regardless of who
        registers them -- cross-tenant sharing is structural.  ``A``
        must not be mutated afterwards (register the mutated matrix
        again: other content, other key).
        """
        kind, shape, _, digest = matrix_fingerprint(A)
        key = f"{kind}:{shape[0]}x{shape[1]}:{digest[:16]}"
        self._tenants.setdefault(key, _Tenant(A))
        return key

    def _tenant(self, key: str) -> _Tenant:
        try:
            return self._tenants[key]
        except KeyError:
            raise KeyError(f"unknown matrix key {key!r}; register() it first")

    def matrix_for(self, key: str):
        return self._tenant(key).A

    @property
    def known_keys(self) -> list[str]:
        return list(self._tenants)

    # -- solving ---------------------------------------------------------
    def _sliced(self, tenant: _Tenant, sets, executor) -> list[BandSlice]:
        """``tenant``'s band slices over ``sets`` with their cache keys, made once.

        A cold layout may have sliced them already: the overlap rule
        hands the bands it probed on to ``executor``.
        """
        if tenant.slices is None:
            tenant.slices = executor.handed(tenant.A, sets)
        if tenant.slices is None:
            csr = as_csr(tenant.A)
            kernels = self.solver.direct_solver
            if not isinstance(kernels, list):
                kernels = [kernels] * len(sets)
            slices = [slice_local_system(csr, rows, l) for l, rows in enumerate(sets)]
            for sliced, kernel in zip(slices, kernels):
                sliced.cache_key = self.cache.key_for(kernel, sliced.a_sub)
            tenant.slices = slices
        return tenant.slices

    def solve_batch(self, key: str, B: np.ndarray) -> np.ndarray:
        """Solve ``A X = B`` for the registered matrix ``key``.

        ``B`` is an ``(n, k)`` column block (one column per coalesced
        request); returns ``X`` with the same shape, bit-identical to
        ``MultisplittingSolver.solve(A, B).x``.  Runs on the calling
        thread -- the gateway dispatches it onto :attr:`threads` -- one
        batch at a time.
        """
        tenant = self._tenant(key)
        solver = self.solver
        with self._one_batch:
            if tenant.layout is None:
                tenant.layout = solver._layout(tenant.A)
            sets = tenant.layout[1].sets
            executor = solver._get_executor()
            if isinstance(executor, InProcessExecutor):
                # A fleet slices and ships bands at attach as ever; an
                # in-process backend takes them ready-made.
                executor.hand_over(tenant.A, sets, self._sliced(tenant, sets, executor))
            result = solver._iterate(tenant.A, B, tenant.layout, trace=solver.trace)
        if not result.converged:
            raise RuntimeError(
                f"solve for {key} did not converge ({result.status}, "
                f"{result.iterations} iterations, residual {result.residual:.2e})"
            )
        return result.x

    def cache_stats(self) -> CacheStats:
        return self.cache.stats.snapshot()

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Drain the worker and tear down every owned executor (idempotent)."""
        self.threads.shutdown(wait=True)
        self.solver.close()

    def __enter__(self) -> "SolverPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
