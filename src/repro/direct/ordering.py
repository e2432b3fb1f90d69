"""Fill-reducing symmetric orderings, implemented from scratch.

Sparse direct solvers permute the matrix before factorization to limit
fill-in; SuperLU uses column orderings such as MMD and COLAMD.  We provide:

* ``natural`` -- the identity (useful as an ablation baseline);
* ``rcm`` -- reverse Cuthill-McKee on the symmetrised pattern, a
  bandwidth-reducing ordering that behaves well for the banded workloads
  of the paper;
* ``mindeg`` -- a straightforward minimum-degree elimination ordering on
  the symmetrised pattern (clique fill updates on an adjacency-set graph).

All orderings operate on the pattern of ``A + A^T`` so they are valid
symmetric permutations for non-symmetric inputs.

These serve the from-scratch :class:`~repro.direct.sparse.SparseLU`.
The SciPy kernel orders inside SuperLU and chooses per band
(:meth:`~repro.direct.scipy_backend.ScipySuperLU.splu_options`): a
diagonally dominant band takes SuperLU's ``MMD_AT_PLUS_A`` with its
pivots on the diagonal, any other band COLAMD with partial pivoting.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.linalg.sparse import as_csr

__all__ = ["compute_ordering", "rcm_ordering", "minimum_degree_ordering", "ORDERINGS"]


def _symmetric_adjacency(A) -> list[np.ndarray]:
    """Return adjacency lists (without self loops) of ``pattern(A + A^T)``."""
    csr = as_csr(A)
    n = csr.shape[0]
    sym = (csr + csr.T).tocsr()
    adj: list[np.ndarray] = []
    for i in range(n):
        nbrs = sym.indices[sym.indptr[i] : sym.indptr[i + 1]]
        adj.append(nbrs[nbrs != i])
    return adj


def rcm_ordering(A) -> np.ndarray:
    """Return the reverse Cuthill-McKee permutation of ``A``.

    BFS from a minimum-degree start node in each connected component,
    visiting neighbours in increasing-degree order, then reversing the
    visit order.  Returns ``perm`` such that ``A[perm][:, perm]`` has small
    bandwidth.
    """
    adj = _symmetric_adjacency(A)
    n = len(adj)
    degrees = np.array([len(a) for a in adj])
    visited = np.zeros(n, dtype=bool)
    order: list[int] = []
    # Deterministic component starts: lowest degree, ties by index.
    starts = sorted(range(n), key=lambda i: (degrees[i], i))
    for s in starts:
        if visited[s]:
            continue
        queue = [s]
        visited[s] = True
        qi = 0
        while qi < len(queue):
            node = queue[qi]
            qi += 1
            order.append(node)
            nbrs = [v for v in adj[node] if not visited[v]]
            nbrs.sort(key=lambda v: (degrees[v], v))
            for v in nbrs:
                visited[v] = True
                queue.append(v)
    return np.asarray(order[::-1], dtype=np.int64)


def minimum_degree_ordering(A) -> np.ndarray:
    """Return a minimum-degree elimination ordering of ``A``.

    Textbook algorithm: repeatedly eliminate a node of minimum current
    degree and connect its neighbours into a clique.  Uses a lazy heap
    (stale entries skipped by degree re-check).  Quadratic in the worst
    case, intended for the moderate orders used in this repository.
    """
    adj_sets = [set(map(int, a)) for a in _symmetric_adjacency(A)]
    n = len(adj_sets)
    eliminated = np.zeros(n, dtype=bool)
    heap: list[tuple[int, int]] = [(len(adj_sets[i]), i) for i in range(n)]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        deg, node = heapq.heappop(heap)
        if eliminated[node] or deg != len(adj_sets[node]):
            continue
        eliminated[node] = True
        order.append(node)
        nbrs = [v for v in adj_sets[node] if not eliminated[v]]
        # Clique the neighbourhood (this is where fill would appear).
        for a in nbrs:
            adj_sets[a].discard(node)
        for idx, a in enumerate(nbrs):
            for b in nbrs[idx + 1 :]:
                if b not in adj_sets[a]:
                    adj_sets[a].add(b)
                    adj_sets[b].add(a)
        for a in nbrs:
            heapq.heappush(heap, (len(adj_sets[a]), a))
        adj_sets[node] = set()
    return np.asarray(order, dtype=np.int64)


ORDERINGS = {
    "natural": lambda A: np.arange(A.shape[0], dtype=np.int64),
    "rcm": rcm_ordering,
    "mindeg": minimum_degree_ordering,
}


def compute_ordering(A, name: str) -> np.ndarray:
    """Dispatch to a named ordering; raises ``KeyError`` for unknown names."""
    try:
        fn = ORDERINGS[name]
    except KeyError:
        raise KeyError(
            f"unknown ordering {name!r}; available: {sorted(ORDERINGS)}"
        ) from None
    perm = fn(A)
    if sorted(perm.tolist()) != list(range(A.shape[0])):
        raise AssertionError(f"ordering {name!r} returned a non-permutation")
    return perm
