"""Factorization reuse: the factor-once / solve-many cache.

The paper's central performance argument is that embedding a *direct*
solver inside a multisplitting iteration amortises the expensive
factorization: each sub-block matrix is factored **once** and only
re-solved against new right-hand sides at every outer iteration
(Remark 4).  :class:`FactorizationCache` makes that invariant an
explicit, observable subsystem instead of an implicit property of one
code path:

* every factorization request goes through :meth:`FactorizationCache.factor`,
  keyed by a content fingerprint of the matrix plus the kernel's identity
  and configuration;
* a repeated request (same sub-block, same kernel) is a *hit* and returns
  the stored handle without touching the kernel -- this is what the hot
  paths of :mod:`repro.core` rely on, and what the ledger's
  ``seq_cage`` workload times (a cold solve beside a warm one);
* mutating a matrix changes its fingerprint, so a stale entry can never be
  returned for fresh data (invalidation is structural, not advisory);
* :class:`CacheStats` counts hits, misses, evictions and the factor
  wall-clock seconds spent and saved, so the speedup is measured rather
  than asserted.  The counters surface through
  :class:`repro.grid.trace.RunStats` in the distributed solvers.

The cache is deliberately backend-agnostic: any
:class:`~repro.direct.base.DirectSolver` (the dense and band LAPACK
adapters, SuperLU) can sit behind it, including a mixed per-band kernel
assignment.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.direct.base import DirectSolver, Factorization

__all__ = [
    "CacheKey",
    "CacheStats",
    "FactorizationCache",
    "matrix_fingerprint",
    "solver_fingerprint",
]


def matrix_fingerprint(A) -> tuple:
    """Return a hashable content fingerprint of a dense or sparse matrix.

    The fingerprint covers the shape, the sparsity structure and every
    stored value (SHA-1 over the raw buffers), so *any* in-place mutation
    of the matrix yields a different fingerprint -- this is what makes the
    cache invalidation-aware without needing explicit notifications.
    """
    h = hashlib.sha1()
    if sp.issparse(A):
        csr = A.tocsr()
        if not csr.has_canonical_format:
            # canonicalise on a copy so equal matrices hash equally without
            # mutating the caller's buffers
            csr = csr.copy()
            csr.sum_duplicates()
        h.update(str(csr.data.dtype).encode())
        h.update(csr.indptr.tobytes())
        h.update(csr.indices.tobytes())
        h.update(np.ascontiguousarray(csr.data).tobytes())
        kind = "sparse"
        nnz = int(csr.nnz)
        shape = tuple(int(s) for s in csr.shape)
    else:
        arr = np.ascontiguousarray(np.asarray(A, dtype=float))
        h.update(str(arr.dtype).encode())
        h.update(arr.tobytes())
        kind = "dense"
        nnz = int(arr.size)
        shape = tuple(int(s) for s in arr.shape)
    return (kind, shape, nnz, h.hexdigest())


class _IdentityPin:
    """Identity-keyed wrapper for opaque config objects.

    Holding the object inside the key keeps it alive for as long as any
    cache entry references it, so its address can never be recycled for a
    *different* configuration (the GC-aliasing hazard of a bare ``id()``).
    """

    __slots__ = ("obj",)

    def __init__(self, obj):
        self.obj = obj

    def __hash__(self) -> int:
        return id(self.obj)

    def __eq__(self, other) -> bool:
        return isinstance(other, _IdentityPin) and self.obj is other.obj

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_IdentityPin({type(self.obj).__qualname__}@{id(self.obj):#x})"


def _config_value_fingerprint(value) -> tuple:
    """Normalise one kernel attribute into a collision-safe hashable form.

    Primitives compare by value; arrays by content hash; nested kernels
    recurse.  Anything else falls back to object *identity* (pinned so the
    address cannot be recycled) -- conservative (equivalent instances then
    never share entries) but never wrong (two *different* configurations
    can never collide the way a truncated ``repr`` could).
    """
    if value is None or isinstance(value, (bool, int, float, complex, str, bytes)):
        return ("prim", type(value).__name__, value)
    if isinstance(value, (tuple, list)):
        return ("seq", type(value).__name__, tuple(_config_value_fingerprint(v) for v in value))
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        return ("ndarray", str(arr.dtype), arr.shape, hashlib.sha1(arr.tobytes()).hexdigest())
    if isinstance(value, DirectSolver):
        return ("solver", solver_fingerprint(value))
    return ("object", type(value).__qualname__, _IdentityPin(value))


def solver_fingerprint(solver: DirectSolver) -> tuple:
    """Return a hashable identity for a kernel *configuration*.

    Two kernel instances with the same class and constructor parameters
    produce interchangeable factorizations, so they share cache entries;
    a kernel with different parameters (e.g. another ordering) must not.
    """
    cfg = tuple(
        sorted((k, _config_value_fingerprint(v)) for k, v in vars(solver).items())
    )
    return (type(solver).__module__, type(solver).__qualname__, cfg)


@dataclass(frozen=True)
class CacheKey:
    """Cache key: kernel identity x matrix content."""

    solver: tuple
    matrix: tuple


@dataclass
class CacheStats:
    """Observable counters of one :class:`FactorizationCache`.

    Attributes
    ----------
    hits / misses:
        Lookup outcomes.  On the multisplitting hot path every outer
        iteration performs one lookup per sub-block, so a run of ``m``
        iterations over ``L`` blocks should show ``L`` misses and about
        ``m * L`` hits -- the factor-once/solve-many invariant in numbers.
    evictions:
        Entries dropped by the LRU capacity bound.
    invalidations:
        Entries removed explicitly via :meth:`FactorizationCache.invalidate`.
    factor_seconds_spent:
        Wall-clock seconds spent inside kernels on misses.
    factor_seconds_saved:
        Sum, over hits, of the recorded factor time of the reused entry --
        the wall-clock a refactor-per-iteration implementation would have
        paid.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    factor_seconds_spent: float = 0.0
    factor_seconds_saved: float = 0.0

    @property
    def lookups(self) -> int:
        """Total lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when the cache was never consulted)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def since(self, before: "CacheStats") -> "CacheStats":
        """Counter delta relative to an earlier :meth:`snapshot`.

        Lets a driver that shares a long-lived cache report only the hits
        and misses attributable to its own run.
        """
        return CacheStats(
            hits=self.hits - before.hits,
            misses=self.misses - before.misses,
            evictions=self.evictions - before.evictions,
            invalidations=self.invalidations - before.invalidations,
            factor_seconds_spent=self.factor_seconds_spent - before.factor_seconds_spent,
            factor_seconds_saved=self.factor_seconds_saved - before.factor_seconds_saved,
        )

    def merge_in(self, delta: "CacheStats | None") -> None:
        """Accumulate another counter set into this one (in place).

        The aggregation primitive for backends whose counters live in
        per-worker caches (process and socket executors sum the worker
        deltas into one run-level record).  ``None`` deltas -- a worker
        that ran uncached -- are ignored.
        """
        if delta is None:
            return
        self.hits += delta.hits
        self.misses += delta.misses
        self.evictions += delta.evictions
        self.invalidations += delta.invalidations
        self.factor_seconds_spent += delta.factor_seconds_spent
        self.factor_seconds_saved += delta.factor_seconds_saved

    def snapshot(self) -> "CacheStats":
        """Return an immutable-by-convention copy of the current counters."""
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            invalidations=self.invalidations,
            factor_seconds_spent=self.factor_seconds_spent,
            factor_seconds_saved=self.factor_seconds_saved,
        )


@dataclass
class _Entry:
    factorization: Factorization
    factor_seconds: float = 0.0


class FactorizationCache:
    """Keyed, invalidation-aware store of direct-solver factorizations.

    Parameters
    ----------
    capacity:
        Maximum number of retained factorizations (LRU eviction).  ``None``
        means unbounded -- appropriate when the caller controls the number
        of distinct sub-blocks, as the multisplitting drivers do.  A
        long-lived *shared* cache (the serve gateway's cross-tenant
        store) bounds it and may later :meth:`resize` the bound as
        tenancy changes.
    on_evict:
        Optional callback invoked as ``on_evict(key)`` for every entry
        dropped by the capacity bound (not for explicit
        :meth:`invalidate`/:meth:`clear`).  Called *outside* the cache
        lock -- it may safely consult the cache -- and after the entry
        is already gone; the serve layer uses it to observe cold-start
        pressure per tenant.

    Notes
    -----
    The class is safe to share across threads (the
    :class:`repro.runtime.ThreadExecutor` workers all resolve their
    factors through one instance): a single lock covers the table, the
    LRU order *and* every counter update, so ``hits + misses`` always
    equals the number of lookups regardless of interleaving.  Kernel
    factorization itself runs *outside* that lock -- a per-key in-flight
    event makes concurrent requests for the same key factor exactly once
    (latecomers wait on the event), while requests for *different* keys
    factor genuinely in parallel instead of serialising on the cache.
    """

    def __init__(self, *, capacity: int | None = None, on_evict=None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive (or None for unbounded)")
        self.capacity = capacity
        self.on_evict = on_evict
        self._entries: OrderedDict[CacheKey, _Entry] = OrderedDict()
        self._lock = threading.Lock()
        self._in_flight: dict[CacheKey, threading.Event] = {}
        self.stats = CacheStats()
        self._tracer = None
        self._trace_lane = "driver"

    # -- tracing ---------------------------------------------------------
    def set_tracer(self, tracer, lane: str | None = None) -> None:
        """Install a :class:`repro.observe.Tracer` (None disables).

        ``lane`` names the timeline track the cache's hit/miss/evict
        events and factor spans land on -- the driver's executors leave
        the default, worker processes pass their ``worker-<rank>`` lane.
        The tracer is strictly observational: counters and entries are
        untouched, so traced and untraced runs stay bit-identical.
        """
        self._tracer = tracer
        if lane is not None:
            self._trace_lane = lane

    def _trace_event(self, name: str, **args) -> None:
        tracer = self._tracer
        if tracer is not None:
            tracer.event(name, cat="cache", lane=self._trace_lane, **args)

    # -- capacity management ---------------------------------------------
    def _evict_over_capacity_locked(self) -> list[CacheKey]:
        """Drop LRU entries past ``capacity``; returns the evicted keys.

        Must be called with ``_lock`` held; the caller fires ``on_evict``
        after releasing it.
        """
        evicted: list[CacheKey] = []
        if self.capacity is not None:
            while len(self._entries) > self.capacity:
                key, _ = self._entries.popitem(last=False)
                self.stats.evictions += 1
                evicted.append(key)
        return evicted

    def _notify_evicted(self, evicted: list[CacheKey]) -> None:
        for _ in evicted:
            self._trace_event("cache.evict")
        if self.on_evict is not None:
            for key in evicted:
                self.on_evict(key)

    def resize(self, capacity: int | None) -> int:
        """Change the LRU bound in place; returns how many entries were
        evicted to honour a *tighter* bound.

        ``None`` lifts the bound.  Shrinking drops least-recently-used
        entries immediately (counted as evictions, reported to
        ``on_evict``) so the next admission does not pay the debt.
        """
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive (or None for unbounded)")
        with self._lock:
            self.capacity = capacity
            evicted = self._evict_over_capacity_locked()
        self._notify_evicted(evicted)
        return len(evicted)

    # -- keying ----------------------------------------------------------
    def key_for(self, solver: DirectSolver, A) -> CacheKey:
        """Compute the cache key of ``(solver, A)``.

        Hot paths compute the key once per sub-block (the matrix is
        immutable for the duration of a run) and pass it back to
        :meth:`factor` / :meth:`get` to skip re-hashing.
        """
        return CacheKey(solver=solver_fingerprint(solver), matrix=matrix_fingerprint(A))

    # -- core operations -------------------------------------------------
    def factor(self, solver: DirectSolver, A, *, key: CacheKey | None = None) -> Factorization:
        """Return the factorization of ``A`` by ``solver``, reusing if cached.

        When ``key`` is omitted it is recomputed from the matrix content,
        so a caller that mutated ``A`` in place gets a fresh factorization
        (the stale entry simply stops being reachable).
        """
        if key is None:
            key = self.key_for(solver, A)
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self.stats.hits += 1
                    self.stats.factor_seconds_saved += entry.factor_seconds
                    self._trace_event("cache.hit", saved=entry.factor_seconds)
                    return entry.factorization
                pending = self._in_flight.get(key)
                if pending is None:
                    # We factor this key; others wait on the event.  The
                    # miss is counted now so hits + misses == lookups even
                    # while the kernel is still running.
                    pending = self._in_flight[key] = threading.Event()
                    self.stats.misses += 1
                    break
            # Another thread is factoring this very key: wait for it to
            # publish (or fail), then re-run the lookup.
            pending.wait()
        self._trace_event("cache.miss")
        t0 = time.perf_counter()
        try:
            fact = solver.factor(A)
        except BaseException:
            with self._lock:
                del self._in_flight[key]
            pending.set()
            raise
        dt = time.perf_counter() - t0
        tracer = self._tracer
        if tracer is not None:
            tracer.add("factor", "compute", t0, dt, lane=self._trace_lane)
        with self._lock:
            self.stats.factor_seconds_spent += dt
            self._entries[key] = _Entry(factorization=fact, factor_seconds=dt)
            del self._in_flight[key]
            evicted = self._evict_over_capacity_locked()
        pending.set()
        self._notify_evicted(evicted)
        return fact

    def get(self, key: CacheKey, *, count_miss: bool = True) -> Factorization | None:
        """Lookup without factoring; counts a hit, and (by default) a miss.

        Callers that hold their own fallback handle -- like
        :class:`repro.core.local.LocalSystem` after an eviction -- pass
        ``count_miss=False`` so ``misses`` keeps meaning "factorizations
        actually performed".
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                if count_miss:
                    self.stats.misses += 1
                    self._trace_event("cache.miss")
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            self.stats.factor_seconds_saved += entry.factor_seconds
            self._trace_event("cache.hit", saved=entry.factor_seconds)
            return entry.factorization

    def contains(self, key: CacheKey) -> bool:
        """Membership check that does not touch the counters or LRU order."""
        with self._lock:
            return key in self._entries

    def invalidate(self, key: CacheKey) -> bool:
        """Drop one entry; returns whether it existed."""
        with self._lock:
            existed = self._entries.pop(key, None) is not None
            if existed:
                self.stats.invalidations += 1
            return existed

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self.stats.invalidations += len(self._entries)
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats
        return (
            f"FactorizationCache(entries={len(self._entries)}, hits={s.hits}, "
            f"misses={s.misses}, saved={s.factor_seconds_saved:.3f}s)"
        )
