"""Per-processor local system: the computational kernel of Algorithm 1.

For processor ``l`` with extended set ``J_l``, the iteration solves

    ``ASub * XSub = BSub - DepLeft * XLeft - DepRight * XRight``

which, for general index sets, is ``A[J_l, J_l] x_J = b[J_l] - A[J_l, ~J_l]
z[~J_l]``.  We store the coupling block ``Dep = A[J_l, :]`` without its
``J_l`` columns, so the right-hand side update is a single sparse
mat-vec against the *full* local copy ``z`` (entries under ``J_l`` are
not stored and cost nothing: the matrix is pruned).

``ASub`` is factorized **once** (Remark 4); every call to
:meth:`LocalSystem.solve_with` reuses the factors, and the handle exposes
the factor/solve flop counts so the simulator can charge realistic times
(read through to the kernel's statistics when asked; a real run never asks).

When a :class:`repro.direct.cache.FactorizationCache` is supplied, the
factorization is obtained (and every re-solve resolved) *through the
cache*: the initial factor is the entry's single miss, and each outer
iteration's solve performs one keyed lookup -- a hit -- so the
factor-once/solve-many invariant of the paper becomes an observable
counter rather than an implicit property.  Re-running against the same
sub-blocks (another execution mode, a repeated right-hand side, a frozen
Newton Jacobian) then skips the factorization entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.direct.base import DirectSolver, Factorization
from repro.direct.cache import CacheKey, FactorizationCache
from repro.linalg.sparse import as_csr

__all__ = [
    "BandSlice",
    "LocalSystem",
    "bind_local_system",
    "build_local_system",
    "build_local_systems",
    "dep_entries",
    "halo_columns",
    "slice_local_system",
]


def dep_entries(band: sp.csr_matrix, rows: np.ndarray):
    """What ``Dep`` keeps of ``band = A[J_l, :]``: the one derivation.

    Returns ``(band, keep)``: the band in canonical form (a *copy* when
    the input had unsorted indices or duplicates -- the caller's object
    is only read) and the boolean mask over its stored entries that
    selects the coupling block: entries outside the ``J_l`` columns
    whose (duplicate-summed) value is non-zero.
    """
    if not band.has_canonical_format:
        band = band.copy()
        band.sum_duplicates()
    outside = np.ones(band.shape[1], dtype=bool)
    outside[rows] = False
    return band, outside[band.indices] & (band.data != 0)


def halo_columns(band: sp.csr_matrix, rows: np.ndarray) -> np.ndarray:
    """Sorted columns of the full iterate that block ``J_l``'s solve reads.

    The non-zero columns of ``Dep_l`` -- what Algorithm 1 receives as
    ``XLeft``/``XRight``.  :func:`build_local_system`'s ``dep``,
    :meth:`~repro.core.partition.GeneralPartition.boundary_columns` and
    the fleets' per-round halo all come from :func:`dep_entries`, so
    they describe the same dependency graph by construction.
    """
    band, keep = dep_entries(band, rows)
    read = np.zeros(band.shape[1], dtype=bool)
    read[band.indices[keep]] = True
    return np.flatnonzero(read)


@dataclass
class LocalSystem:
    """One processor's factored band system.

    Attributes
    ----------
    index:
        Processor rank ``l``.
    rows:
        The extended index set ``J_l`` (sorted).
    factorization:
        Direct-kernel handle for ``A[J_l, J_l]``.
    dep:
        ``A[J_l, :]`` without the ``J_l`` columns (canonical CSR, no
        stored zeros; see :func:`build_local_system`).
    b_sub:
        ``b[J_l]`` -- shape ``(|J_l|,)`` or ``(|J_l|, k)`` for batched
        right-hand sides.
    rhs_flops:
        Flops of one right-hand-side update (``2 nnz(dep)``).
    factor_flops / solve_flops / factor_memory_bytes:
        Properties reading through to the kernel's
        :class:`~repro.direct.base.FactorStats` -- not stored, so building
        and solving a system never asks a kernel for statistics it may
        compute lazily; only the simulated drivers do.
    solver / cache / cache_key:
        When built through a :class:`~repro.direct.cache.FactorizationCache`,
        the kernel and precomputed key used to resolve the factors on every
        solve (each resolve is a counted cache hit; after an eviction the
        retained handle is used, never a re-factorization).
    """

    index: int
    rows: np.ndarray
    factorization: Factorization
    dep: sp.csr_matrix
    b_sub: np.ndarray
    rhs_flops: float
    a_sub: sp.csr_matrix | None = None
    solver: DirectSolver | None = None
    cache: FactorizationCache | None = None
    cache_key: CacheKey | None = None

    @property
    def size(self) -> int:
        """Number of unknowns this processor solves (``|J_l|``)."""
        return int(self.rows.size)

    @property
    def factor_flops(self) -> float:
        return self.factorization.stats.factor_flops

    @property
    def solve_flops(self) -> float:
        return self.factorization.stats.solve_flops

    @property
    def factor_memory_bytes(self) -> int:
        return self.factorization.stats.memory_bytes

    def _factors(self) -> Factorization:
        """Resolve the factorization, through the cache when one is attached."""
        if self.cache is not None:
            # One keyed lookup per solve (a counted hit).  If the entry was
            # evicted or invalidated behind our back, fall back to the
            # retained handle: re-registering would thrash a cache whose
            # capacity is below the number of live sub-blocks, paying a
            # full factorization per solve.
            fact = self.cache.get(self.cache_key, count_miss=False)
            if fact is not None:
                self.factorization = fact
        return self.factorization

    def local_rhs(self, z_full: np.ndarray) -> np.ndarray:
        """Return ``BLoc = BSub - Dep @ z`` for the current local copy.

        ``z_full`` may be a vector ``(n,)`` or a batch ``(n, k)``; the
        coupling product handles all columns at once.
        """
        if z_full.ndim == 2 and self.b_sub.ndim == 1:
            return self.b_sub[:, None] - self.dep @ z_full
        return self.b_sub - self.dep @ z_full

    def solve_with(self, z_full: np.ndarray) -> np.ndarray:
        """One inner direct solve: returns ``XSub`` over ``J_l``.

        A 2-D local copy triggers the batched multi-RHS path: all columns
        are forwarded to :meth:`Factorization.solve_many` in one call.
        """
        rhs = self.local_rhs(z_full)
        fact = self._factors()
        if rhs.ndim == 2:
            return fact.solve_many(rhs)
        return fact.solve(rhs)

    @property
    def iteration_flops(self) -> float:
        """Flops of one outer iteration (rhs update + triangular solves)."""
        return self.rhs_flops + self.solve_flops

    def local_residual(self, piece: np.ndarray, z_full: np.ndarray) -> np.ndarray:
        """True residual on the ``J_l`` rows of the *current global* iterate.

        ``r = BSub - ASub @ piece - Dep @ z`` -- zero right after the solve
        by construction (direct solves are exact), non-zero once fresher
        neighbour values have been folded into ``z``.  This is the
        residual-metric monitor of the distributed solvers.
        """
        if self.a_sub is None:
            raise ValueError("LocalSystem built without a_sub retention")
        if z_full.ndim == 2 and self.b_sub.ndim == 1:
            return self.b_sub[:, None] - self.a_sub @ piece - self.dep @ z_full
        return self.b_sub - self.a_sub @ piece - self.dep @ z_full

    @property
    def residual_flops(self) -> float:
        """Flops of one :meth:`local_residual` evaluation."""
        nnz_a = self.a_sub.nnz if self.a_sub is not None else 0
        return 2.0 * (nnz_a + self.dep.nnz)


@dataclass
class BandSlice:
    """The half of a local system that reads ``A`` alone.

    ``rows`` is ``J_l`` (sorted), ``a_sub`` is ``A[J_l, J_l]`` and ``dep``
    is ``A[J_l, :]`` without the ``J_l`` columns, both canonical CSR as
    :func:`slice_local_system` leaves them; ``a_csc`` is ``a_sub`` in
    the CSC form every kernel is handed (a dense kernel's rounding
    follows the memory order of its input, so the form is part of the
    result).  Nothing here depends on a right-hand side or holds a
    factor, so a slice may be kept for as long as its matrix is not
    mutated and bound any number of times.

    ``cache_key`` is optional: whoever keeps a slice across binds under
    one kernel stores ``cache.key_for(kernel, a_sub)`` here, and
    :func:`bind_local_system` then skips hashing ``a_sub`` again.
    """

    index: int
    rows: np.ndarray
    a_sub: sp.csr_matrix
    a_csc: sp.csc_matrix
    dep: sp.csr_matrix
    cache_key: CacheKey | None = None


def slice_local_system(
    csr: sp.csr_matrix | None,
    rows: np.ndarray,
    index: int,
    *,
    band: sp.spmatrix | None = None,
) -> BandSlice:
    """Slice and prune one processor's band (``csr`` is the full A).

    Pass the pre-sliced ``band`` (``A[J_l, :]``, shape ``(|J_l|, n)``)
    instead and leave ``csr`` as ``None`` where the full matrix never
    arrived; both inputs produce identical slices.

    One pass over the band's CSR arrays -- a boolean column lookup, no
    format change.  ``dep`` is canonical whatever the input looked like:
    row-wise sorted indices, duplicates summed, stored and summed-to
    zeros dropped, so its columns are exactly
    :meth:`~repro.core.partition.GeneralPartition.boundary_columns` and
    iterates, cache keys and ``rhs_flops`` do not depend on how ``A``
    was assembled.  ``a_sub`` is sliced from the same canonical band.
    The caller's ``band`` is only read.
    """
    rows = np.asarray(rows, dtype=np.int64)
    # A run of consecutive indices (every band) is cut as a range: the
    # same arrays as the index gather, for less work.
    cut = rows
    if rows.size and np.all(np.diff(rows) == 1):
        cut = slice(int(rows[0]), int(rows[-1]) + 1)
    if band is None:
        band = csr[cut, :].tocsr()
    else:
        band = band.tocsr()
        if band.shape[0] != rows.size:
            raise ValueError(
                f"band has {band.shape[0]} rows for an index set of {rows.size}"
            )
    band, keep = dep_entries(band, rows)
    indptr = np.concatenate(([0], np.cumsum(keep)))[band.indptr]
    dep = sp.csr_matrix(
        (band.data[keep], band.indices[keep], indptr), shape=band.shape
    )
    a_csc = band[:, cut].tocsc()
    return BandSlice(index, rows, a_csc.tocsr(), a_csc, dep)


def bind_local_system(
    sliced: BandSlice,
    b_sub: np.ndarray,
    solver: DirectSolver,
    *,
    cache: FactorizationCache | None = None,
) -> LocalSystem:
    """Bind a right-hand side to a slice and resolve its factor.

    ``b_sub`` is ``b[J_l]`` (copied; the caller's array is only read).
    Through ``cache`` the factor is one keyed
    :meth:`~repro.direct.cache.FactorizationCache.factor` call -- a hit,
    or the factorisation -- under ``sliced.cache_key`` when the slice
    carries one; without a cache the kernel factors directly.
    """
    if cache is not None:
        key = sliced.cache_key
        if key is None:
            key = cache.key_for(solver, sliced.a_sub)
        fact = cache.factor(solver, sliced.a_csc, key=key)
    else:
        key = None
        fact = solver.factor(sliced.a_csc)
    return LocalSystem(
        index=sliced.index,
        rows=sliced.rows,
        factorization=fact,
        dep=sliced.dep,
        b_sub=np.asarray(b_sub, dtype=float).copy(),
        rhs_flops=2.0 * sliced.dep.nnz,
        a_sub=sliced.a_sub,
        solver=solver,
        cache=cache,
        cache_key=key,
    )


def build_local_system(
    csr: sp.csr_matrix | None,
    b: np.ndarray | None,
    rows: np.ndarray,
    index: int,
    solver: DirectSolver,
    *,
    cache: FactorizationCache | None = None,
    band: sp.spmatrix | None = None,
    b_sub: np.ndarray | None = None,
) -> LocalSystem:
    """Slice, prune and factor one processor's band (``csr`` is the full A).

    :func:`slice_local_system` then :func:`bind_local_system`, exposed so
    the parallel runtime backends can build each block where it will be
    solved (a worker thread, or a worker *process* that received the
    matrix exactly once).

    The block only ever reads its own ``J_l`` *rows* of ``A`` and ``b``,
    so a distributed backend need not ship the full matrix: pass the
    pre-sliced ``band`` (``A[J_l, :]``, shape ``(|J_l|, n)``) and
    ``b_sub`` (``b[J_l]``) instead and leave ``csr``/``b`` as ``None``.
    Both construction paths produce identical systems (and identical
    cache keys, so factor reuse across re-attaches is preserved).
    """
    sliced = slice_local_system(csr, rows, index, band=band)
    if b_sub is None:
        b_sub = b[sliced.rows]
    return bind_local_system(sliced, b_sub, solver, cache=cache)


def build_local_systems(
    A,
    b: np.ndarray,
    sets: tuple[np.ndarray, ...] | list[np.ndarray],
    solver: "DirectSolver | list[DirectSolver] | tuple[DirectSolver, ...]",
    *,
    cache: FactorizationCache | None = None,
    executor=None,
    slices: "list[BandSlice] | None" = None,
) -> list[LocalSystem]:
    """Slice, prune, and factor every processor's band (the init step).

    ``solver`` may be a single kernel (used by every processor) or a
    sequence of one kernel per processor -- the paper's conclusion
    announces exactly this: "we will also consider the case where
    different direct algorithms on different clusters are used and we
    will study the impact of coupling such direct algorithms".  The
    outer iteration is oblivious to the mix: each kernel only has to
    honour the ``factor``/``solve`` contract.

    ``cache`` routes the factorization through a
    :class:`~repro.direct.cache.FactorizationCache`: a sub-block already
    factored (by an earlier run, another execution mode, or a previous
    Newton step with the same Jacobian block) is reused instead of
    re-factored, and every subsequent solve resolves the factors through
    a keyed lookup so reuse is counted.

    ``b`` may be a single right-hand side ``(n,)`` or a batch ``(n, k)``;
    the batched case flows through the multi-RHS triangular kernels.

    ``executor`` (a :class:`repro.runtime.Executor`) parallelises the
    per-block setup via its generic :meth:`~repro.runtime.Executor.map`:
    with a thread backend the L slice-and-factor bodies run concurrently
    (the factorization is the dominant init cost, and the kernels spend
    it inside GIL-releasing BLAS/LAPACK/SuperLU calls).  Results are
    identical to the serial path -- blocks are independent and returned
    in rank order.

    ``slices`` (one :class:`BandSlice` per entry of ``sets``, from
    :func:`slice_local_system` on this very ``A``) skips the slicing: a
    caller that solves one matrix against many right-hand sides -- the
    serving pool -- slices it once and only binds here; ``A`` is then
    not read at all.

    Raises whatever the direct kernel raises on singular sub-blocks; for
    the matrix classes of Section 5 every principal sub-matrix is
    non-singular, so a failure here signals an input outside the theory.
    """
    b = np.asarray(b, dtype=float)
    if slices is None:
        csr = as_csr(A)
        n = csr.shape[0]

        def slice_of(l: int) -> BandSlice:
            return slice_local_system(csr, sets[l], l)
    else:
        n = slices[0].dep.shape[1]
        slice_of = slices.__getitem__
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError(f"b must have shape ({n},) or ({n}, k)")
    if isinstance(solver, (list, tuple)):
        if len(solver) != len(sets):
            raise ValueError(
                f"{len(solver)} kernels for {len(sets)} processors; "
                "provide one per band (or a single shared kernel)"
            )
        per_band = list(solver)
    else:
        per_band = [solver] * len(sets)

    def _build(l: int) -> LocalSystem:
        sliced = slice_of(l)
        return bind_local_system(sliced, b[sliced.rows], per_band[l], cache=cache)

    if executor is not None:
        return executor.map(_build, range(len(sets)))
    return [_build(l) for l in range(len(sets))]
