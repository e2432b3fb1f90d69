"""Band partitions and general index-set partitions (Figure 1, Remarks 2-3).

The multisplitting-direct method assigns each processor ``l`` a subset
``J_l`` of the unknowns with ``union(J_l) = {0..n-1}``.  Two layers:

* :class:`BandPartition` -- the paper's primary construction: contiguous
  horizontal bands, optionally *extended* by an overlap of ``overlap``
  indices on each side (Section 6.4 / Figure 3 studies the overlap size);
  bands may be sized proportionally to heterogeneous host speeds.
* :class:`GeneralPartition` -- arbitrary index sets ``J_l`` (Remark 2
  allows non-adjacent bands via permutations; Remark 3 allows arbitrary
  sharing).  Every ``BandPartition`` lowers to a ``GeneralPartition``.

Both expose, per processor: the *extended* set ``J_l`` it solves for, the
*core* set it owns exclusively (a disjoint cover used to assemble the final
solution and to define ownership weightings), and the dependency structure
derived from the matrix pattern (``DependsOnMe`` in Algorithm 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.local import halo_columns
from repro.linalg.sparse import as_csr

__all__ = [
    "BandPartition",
    "GeneralPartition",
    "uniform_bands",
    "proportional_bands",
    "cost_balanced_bands",
    "interleaved_partition",
    "permuted_bands",
]


@dataclass(frozen=True)
class GeneralPartition:
    """Arbitrary (possibly overlapping) index sets.

    Attributes
    ----------
    n:
        Dimension of the unknown vector.
    sets:
        ``sets[l]`` is the sorted array of indices processor ``l`` solves
        for (the extended ``J_l``).
    core:
        ``core[l]`` is the sorted array of indices *owned* by ``l``; cores
        are disjoint and cover ``{0..n-1}``.
    """

    n: int
    sets: tuple[np.ndarray, ...]
    core: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError("n must be positive")
        if len(self.sets) != len(self.core):
            raise ValueError("sets and core must have the same length")
        if len(self.sets) == 0:
            raise ValueError("at least one processor required")
        covered = np.zeros(self.n, dtype=np.int64)
        for l, (J, C) in enumerate(zip(self.sets, self.core)):
            if J.size == 0:
                raise ValueError(f"processor {l} has an empty J_l")
            if np.any((J < 0) | (J >= self.n)) or np.any((C < 0) | (C >= self.n)):
                raise ValueError(f"processor {l}: indices out of range")
            if np.any(np.diff(J) <= 0) or (C.size and np.any(np.diff(C) <= 0)):
                raise ValueError(f"processor {l}: index sets must be sorted unique")
            if not np.isin(C, J).all():
                raise ValueError(f"processor {l}: core must be a subset of J_l")
            covered[C] += 1
        if not np.all(covered == 1):
            raise ValueError("core sets must partition {0..n-1} exactly")

    @property
    def nprocs(self) -> int:
        """Number of processors ``L``."""
        return len(self.sets)

    def owner_of(self) -> np.ndarray:
        """Return ``owner[i]`` = the processor whose core contains ``i``."""
        owner = np.empty(self.n, dtype=np.int64)
        for l, C in enumerate(self.core):
            owner[C] = l
        return owner

    def multiplicity(self) -> np.ndarray:
        """Return ``m[i]`` = number of extended sets containing ``i``."""
        m = np.zeros(self.n, dtype=np.int64)
        for J in self.sets:
            m[J] += 1
        return m

    def to_general(self) -> "GeneralPartition":
        """Already the index-set representation (mirror of
        :meth:`BandPartition.to_general`, so callers can lower either
        kind without an isinstance check)."""
        return self

    def boundary_columns(self, A) -> list[np.ndarray]:
        """Per-processor sorted columns read *outside* ``J_l``.

        Exactly the non-zero columns of the pruned coupling block each
        :class:`~repro.core.local.LocalSystem` stores (``A[J_l, :]``
        with duplicates summed, masked to the entries outside the
        ``J_l`` columns whose value is non-zero) -- stored and
        summed-to zeros are ignored here too, so the pattern-level
        derivation and the built systems always describe the same
        dependency graph (``tests/test_core_local_build.py`` holds the
        two together).  This is the one source of truth shared by
        :meth:`dependencies` and the scheduler's a-priori path of
        :func:`repro.core.distributed.communication_pattern`.
        """
        csr = as_csr(A)
        return [halo_columns(csr[J, :], J) for J in self.sets]

    def dependencies(self, A) -> list[list[int]]:
        """Return ``deps[l]`` = processors whose core values ``l`` reads.

        Processor ``l`` reads component ``i`` outside ``J_l`` whenever
        ``A[J_l, i]`` has a non-zero; the owner of ``i`` must then send to
        ``l`` (this is the transpose of Algorithm 1's ``DependsOnMe``).
        """
        owner = self.owner_of()
        deps: list[list[int]] = []
        for l, cols in enumerate(self.boundary_columns(A)):
            owners = {int(o) for o in owner[cols]}
            owners.discard(l)
            deps.append(sorted(owners))
        return deps

    def dependents(self, A) -> list[list[int]]:
        """Return ``DependsOnMe[l]`` = processors that read ``l``'s values."""
        deps = self.dependencies(A)
        out: list[list[int]] = [[] for _ in range(self.nprocs)]
        for l, ds in enumerate(deps):
            for k in ds:
                out[k].append(l)
        return [sorted(v) for v in out]


@dataclass(frozen=True)
class BandPartition:
    """Contiguous horizontal bands with symmetric overlap (Figure 1).

    Attributes
    ----------
    n:
        Matrix order.
    bounds:
        ``bounds[l] = (start, stop)`` of the *core* band of processor
        ``l``; cores are disjoint and consecutive.
    overlap:
        Number of extra indices annexed on each side of the core (clipped
        at the matrix borders).  ``overlap=0`` is the plain block-Jacobi
        decomposition of Section 2.
    """

    n: int
    bounds: tuple[tuple[int, int], ...]
    overlap: int = 0

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError("n must be positive")
        if self.overlap < 0:
            raise ValueError("overlap must be non-negative")
        expected = 0
        for l, (start, stop) in enumerate(self.bounds):
            if start != expected:
                raise ValueError(f"band {l} must start at {expected}, got {start}")
            if stop <= start:
                raise ValueError(f"band {l} is empty")
            expected = stop
        if expected != self.n:
            raise ValueError(f"bands cover [0,{expected}) but n={self.n}")

    @property
    def nprocs(self) -> int:
        """Number of bands ``L``."""
        return len(self.bounds)

    def core_range(self, l: int) -> tuple[int, int]:
        """Owned (disjoint) range of processor ``l``."""
        return self.bounds[l]

    def extended_range(self, l: int) -> tuple[int, int]:
        """Solved range ``J_l``: core extended by ``overlap`` on each side."""
        start, stop = self.bounds[l]
        return max(0, start - self.overlap), min(self.n, stop + self.overlap)

    def core_indices(self, l: int) -> np.ndarray:
        """Owned indices as an array."""
        start, stop = self.core_range(l)
        return np.arange(start, stop, dtype=np.int64)

    def extended_indices(self, l: int) -> np.ndarray:
        """``J_l`` as an array."""
        start, stop = self.extended_range(l)
        return np.arange(start, stop, dtype=np.int64)

    def to_general(self) -> GeneralPartition:
        """Lower to the index-set representation."""
        return GeneralPartition(
            n=self.n,
            sets=tuple(self.extended_indices(l) for l in range(self.nprocs)),
            core=tuple(self.core_indices(l) for l in range(self.nprocs)),
        )

    def with_overlap(self, overlap: int) -> "BandPartition":
        """Return a copy with a different overlap (used by the Figure-3 sweep)."""
        return BandPartition(n=self.n, bounds=self.bounds, overlap=overlap)


def uniform_bands(n: int, nprocs: int, *, overlap: int = 0) -> BandPartition:
    """Split ``{0..n-1}`` into ``nprocs`` near-equal contiguous bands."""
    if nprocs <= 0:
        raise ValueError("nprocs must be positive")
    if nprocs > n:
        raise ValueError(f"cannot split {n} unknowns over {nprocs} processors")
    cuts = np.linspace(0, n, nprocs + 1).round().astype(int)
    bounds = tuple((int(cuts[l]), int(cuts[l + 1])) for l in range(nprocs))
    return BandPartition(n=n, bounds=bounds, overlap=overlap)


def proportional_bands(
    n: int, speeds: list[float], *, overlap: int = 0
) -> BandPartition:
    """Split bands proportionally to host speeds (heterogeneous load balance).

    The paper's cluster2/cluster3 mix 1.7-2.6 GHz machines; giving faster
    machines proportionally larger bands balances the per-iteration solve
    time.  Every band keeps at least one row.
    """
    if not speeds:
        raise ValueError("speeds must be non-empty")
    if any(s <= 0 for s in speeds):
        raise ValueError("speeds must be positive")
    L = len(speeds)
    if L > n:
        raise ValueError(f"cannot split {n} unknowns over {L} processors")
    total = float(sum(speeds))
    raw = [s / total * n for s in speeds]
    sizes = [max(1, int(round(r))) for r in raw]
    # repair rounding drift while keeping every band non-empty
    drift = n - sum(sizes)
    i = 0
    while drift != 0:
        idx = i % L
        if drift > 0:
            sizes[idx] += 1
            drift -= 1
        elif sizes[idx] > 1:
            sizes[idx] -= 1
            drift += 1
        i += 1
    bounds = []
    start = 0
    for s in sizes:
        bounds.append((start, start + s))
        start += s
    return BandPartition(n=n, bounds=tuple(bounds), overlap=overlap)


def cost_balanced_bands(
    n: int,
    speeds: list[float],
    *,
    cost=None,
    fixed: list[float] | None = None,
    overlap: int = 0,
) -> BandPartition:
    """Split bands so the *estimated per-band time* is equalised.

    :func:`proportional_bands` equalises row counts per unit of speed,
    which is only optimal when per-row work is uniform and communication
    is free.  This builder instead balances a cost model: band ``l`` of
    size ``s`` is estimated to take ``cost(s) / speeds[l] + fixed[l]``
    seconds per outer iteration, where ``cost`` maps a band size to work
    (flops; monotone non-decreasing, default linear) and ``fixed[l]`` is
    a per-iteration constant the band pays regardless of its size
    (message latency and volume -- a WAN-facing band should shrink so
    its compute share absorbs the link it sits behind).

    The equalised time ``T`` is found by bisection: for a candidate
    ``T``, each band takes the largest size it can finish within ``T``;
    the smallest ``T`` whose sizes cover ``n`` wins, and rounding drift
    is repaid by shrinking the currently-slowest bands.  Every band
    keeps at least one row.
    """
    if not speeds:
        raise ValueError("speeds must be non-empty")
    if any(s <= 0 for s in speeds):
        raise ValueError("speeds must be positive")
    L = len(speeds)
    if L > n:
        raise ValueError(f"cannot split {n} unknowns over {L} processors")
    if cost is None:
        cost = float
    fixed = [0.0] * L if fixed is None else [float(f) for f in fixed]
    if len(fixed) != L:
        raise ValueError(f"{len(fixed)} fixed costs for {L} bands")
    if any(f < 0 for f in fixed):
        raise ValueError("fixed costs must be non-negative")

    def band_time(l: int, size: int) -> float:
        return float(cost(size)) / speeds[l] + fixed[l]

    def size_within(l: int, T: float) -> int:
        """Largest size in [0, n] band ``l`` finishes within ``T``."""
        if band_time(l, 1) > T:
            return 0
        lo, hi = 1, n
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if band_time(l, mid) <= T:
                lo = mid
            else:
                hi = mid - 1
        return lo

    lo_T = min(band_time(l, 1) for l in range(L))
    hi_T = max(band_time(l, n) for l in range(L))
    for _ in range(64):
        mid_T = 0.5 * (lo_T + hi_T)
        if sum(size_within(l, mid_T) for l in range(L)) >= n:
            hi_T = mid_T
        else:
            lo_T = mid_T
    sizes = [max(1, size_within(l, hi_T)) for l in range(L)]
    # Rounding drift: shave rows off the currently-slowest bands (never
    # below one row), or grow the currently-fastest ones.
    while sum(sizes) != n:
        if sum(sizes) > n:
            candidates = [l for l in range(L) if sizes[l] > 1]
            worst = max(candidates, key=lambda l: band_time(l, sizes[l]))
            sizes[worst] -= 1
        else:
            best = min(range(L), key=lambda l: band_time(l, sizes[l] + 1))
            sizes[best] += 1
    bounds = []
    start = 0
    for s in sizes:
        bounds.append((start, start + s))
        start += s
    return BandPartition(n=n, bounds=tuple(bounds), overlap=overlap)


def interleaved_partition(
    n: int, nprocs: int, *, chunk: int = 1, overlap: int = 0
) -> GeneralPartition:
    """Round-robin assignment of ``chunk``-sized blocks (Remark 2).

    Processor ``l`` owns chunks ``l, l+L, l+2L, ...`` -- several
    non-adjacent bands per processor.  Remark 2 observes that permutation
    matrices reduce this case to the contiguous Figure-1 layout; this
    builder produces it directly so tests can verify the equivalence.

    ``overlap`` annexes that many extra indices on each side of every
    owned chunk (clipped at the matrix borders) into the extended set
    ``J_l``, the interleaved analogue of :class:`BandPartition`'s
    overlap; cores stay disjoint.
    """
    if nprocs <= 0:
        raise ValueError("nprocs must be positive")
    if chunk <= 0:
        raise ValueError("chunk must be positive")
    if overlap < 0:
        raise ValueError("overlap must be non-negative")
    if nprocs > n:
        raise ValueError(f"cannot split {n} unknowns over {nprocs} processors")
    assignment = (np.arange(n) // chunk) % nprocs
    cores = tuple(
        np.nonzero(assignment == l)[0].astype(np.int64) for l in range(nprocs)
    )
    if any(c.size == 0 for c in cores):
        raise ValueError(
            f"chunk={chunk} leaves a processor empty for n={n}, L={nprocs}"
        )
    if overlap == 0:
        return GeneralPartition(n=n, sets=cores, core=cores)
    sets = tuple(
        np.unique(
            np.clip(
                np.concatenate(
                    [idx + d for d in range(-overlap, overlap + 1)]
                ),
                0,
                n - 1,
            )
        ).astype(np.int64)
        for idx in cores
    )
    return GeneralPartition(n=n, sets=sets, core=cores)


def permuted_bands(
    perm: np.ndarray, nprocs: int, *, overlap: int = 0
) -> GeneralPartition:
    """Contiguous bands in a *permuted* ordering (Remark 2).

    ``perm`` lists the unknowns in the order along which bands are cut;
    processor ``l`` owns the ``l``-th contiguous slice of that order (plus
    ``overlap`` annexed positions on each side).  With ``perm = identity``
    this reduces to :func:`uniform_bands`.
    """
    perm = np.asarray(perm, dtype=np.int64)
    n = perm.size
    if sorted(perm.tolist()) != list(range(n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    band = uniform_bands(n, nprocs, overlap=overlap)
    sets = []
    cores = []
    for l in range(nprocs):
        es, ee = band.extended_range(l)
        cs, ce = band.core_range(l)
        sets.append(np.sort(perm[es:ee]))
        cores.append(np.sort(perm[cs:ce]))
    return GeneralPartition(n=n, sets=tuple(sets), core=tuple(cores))
