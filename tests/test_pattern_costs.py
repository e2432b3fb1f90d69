"""Property tests of the pattern-aware message cost model (repro.schedule.pattern).

Three invariants pin the model to the exchanges the drivers actually
perform:

* **band specialisation** -- on a uniform band partition of a
  nearest-neighbour matrix, the priced per-block terms reproduce the
  pattern-blind band formula (:func:`repro.schedule.band_comm_costs`)
  *exactly*: the legacy formula falls out as a special case rather than
  living on as a second source of truth;
* **pattern consistency** -- the message matrix has a non-zero entry
  exactly on the edges of :func:`repro.core.distributed
  .communication_pattern`, and each entry is byte-exact with what the
  simulator charges per exchange (one ``|J_l|``-row piece, ``k``
  columns);
* **relabeling invariance** -- renaming the blocks permutes rows and
  columns of the message matrix but cannot change the total priced
  traffic.

One simulated run shows the terms are worth pricing: on a hub matrix
the pattern-aware calibrated plan beats the pattern-blind one.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import run_synchronous
from repro.core.distributed import communication_pattern
from repro.core.partition import (
    GeneralPartition,
    interleaved_partition,
    permuted_bands,
    uniform_bands,
)
from repro.core.stopping import StoppingCriterion
from repro.core.weighting import make_weighting
from repro.direct import get_solver
from repro.grid.comm import vector_bytes
from repro.grid.topology import cluster1, cluster3, custom_cluster
from repro.matrices import diagonally_dominant, rhs_for_solution
from repro.schedule import (
    band_comm_costs,
    message_bytes_matrix,
    partition_placement,
    pattern_comm_costs,
)


def _banded_matrix(n: int, bandwidth: int) -> sp.csr_matrix:
    """Diagonally dominant with *every* in-band entry non-zero.

    A full band guarantees each uniform band couples to both adjacent
    bands (and, with ``bandwidth`` below the band size, to nothing
    further) -- the exact regime the band formula was written for.
    """
    diags = [np.full(n, 4.0 * bandwidth)]
    offsets = [0]
    for off in range(1, bandwidth + 1):
        diags += [np.full(n - off, -1.0), np.full(n - off, -1.0)]
        offsets += [off, -off]
    return sp.diags(diags, offsets=offsets, format="csr")


class TestBandSpecialisation:
    @settings(max_examples=40, deadline=None)
    @given(
        L=st.integers(2, 6),
        rows=st.integers(8, 24),
        bandwidth=st.integers(1, 3),
        k=st.integers(1, 3),
        two_sites=st.booleans(),
    )
    def test_band_partition_reproduces_band_formula_exactly(
        self, L, rows, bandwidth, k, two_sites
    ):
        n = L * rows  # uniform bands of exactly n/L rows, the formula's piece
        A = _banded_matrix(n, bandwidth)
        part = uniform_bands(n, L).to_general()
        scheme = make_weighting("ownership", part)
        cluster = cluster3(max(L, 2)) if two_sites else cluster1(L)
        hosts = cluster.hosts[:L]
        pattern = pattern_comm_costs(A, part, scheme, hosts, cluster, k=k)
        band = band_comm_costs(hosts, cluster, n, k)
        assert [float(x) for x in pattern] == [float(x) for x in band]


def _draw_partition(kind: str, n: int, L: int, seed: int) -> GeneralPartition:
    if kind == "interleaved":
        return interleaved_partition(n, L, chunk=max(1, n // (4 * L)))
    if kind == "permuted":
        perm = np.random.default_rng(seed).permutation(n)
        return permuted_bands(perm, L, overlap=2)
    return uniform_bands(n, L, overlap=3).to_general()


class TestPatternConsistency:
    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["interleaved", "permuted", "overlap-bands"]),
        weighting=st.sampled_from(["ownership", "averaging", "schwarz"]),
        L=st.integers(2, 5),
        rows=st.integers(6, 16),
        k=st.integers(1, 2),
        seed=st.integers(0, 10),
    )
    def test_matrix_matches_communication_pattern(
        self, kind, weighting, L, rows, k, seed
    ):
        n = L * rows
        A = diagonally_dominant(n, dominance=1.5, bandwidth=3, seed=seed)
        part = _draw_partition(kind, n, L, seed)
        scheme = make_weighting(weighting, part)
        bytes_mat = message_bytes_matrix(A, part, scheme, k=k)
        pattern = communication_pattern(part, scheme, A=A)
        for l in range(L):
            expected = float(vector_bytes(int(part.sets[l].size), k))
            for m in range(L):
                if m in pattern.dependents[l]:
                    assert bytes_mat[l, m] == expected
                else:
                    assert bytes_mat[l, m] == 0.0
        # The edge set is exactly the transpose relation of deps.
        for l in range(L):
            assert pattern.dependents[l] == sorted(
                m for m in range(L) if l in pattern.deps[m]
            )


class TestStoredZeroPruning:
    def test_stored_zeros_do_not_create_dependencies(self):
        """An explicitly stored zero crossing a block boundary must not
        produce a priced message: the built systems prune it
        (``eliminate_zeros``), so the a-priori pattern path must too."""
        from repro.core.local import build_local_systems
        from repro.direct import get_solver

        n, L = 12, 3
        A = sp.identity(n, format="csr") * 4.0
        A = A.tolil()
        A[0, 8] = 1.0  # crosses from block 0 into block 2...
        A = A.tocsr()
        lo, hi = A.indptr[0], A.indptr[1]  # ...but is explicitly zeroed
        A.data[lo:hi][A.indices[lo:hi] == 8] = 0.0  # in place (row 0 only)
        part = uniform_bands(n, L).to_general()
        scheme = make_weighting("ownership", part)
        from_matrix = communication_pattern(part, scheme, A=A)
        systems = build_local_systems(A, np.ones(n), part.sets, get_solver("scipy"))
        from_systems = communication_pattern(part, scheme, systems)
        assert from_matrix.deps == from_systems.deps == [[], [], []]
        assert part.dependencies(A) == [[], [], []]
        assert message_bytes_matrix(A, part, scheme).sum() == 0.0


class TestRelabelingInvariance:
    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["interleaved", "permuted", "overlap-bands"]),
        weighting=st.sampled_from(["ownership", "averaging", "schwarz"]),
        L=st.integers(2, 5),
        rows=st.integers(6, 16),
        seed=st.integers(0, 10),
        relabel_seed=st.integers(0, 10),
    )
    def test_total_priced_bytes_invariant_under_relabeling(
        self, kind, weighting, L, rows, seed, relabel_seed
    ):
        n = L * rows
        A = diagonally_dominant(n, dominance=1.5, bandwidth=3, seed=seed)
        part = _draw_partition(kind, n, L, seed)
        sigma = np.random.default_rng(relabel_seed).permutation(L)
        relabeled = GeneralPartition(
            n=n,
            sets=tuple(part.sets[s] for s in sigma),
            core=tuple(part.core[s] for s in sigma),
        )
        original = message_bytes_matrix(A, part, make_weighting(weighting, part))
        renamed = message_bytes_matrix(
            A, relabeled, make_weighting(weighting, relabeled)
        )
        assert renamed.sum() == original.sum()
        # Stronger: the renamed matrix is the sigma-permuted original.
        np.testing.assert_array_equal(renamed, original[np.ix_(sigma, sigma)])


def _hub_system(n: int, nblocks: int, hub: int) -> sp.csr_matrix:
    """Tridiagonal base plus one *hub* block whose rows couple to strided
    columns across the whole matrix (a coarse-grid coupling, a set of
    dense constraint rows): every other block exchanges with the hub."""
    lo, hi = hub * n // nblocks, (hub + 1) * n // nblocks
    cols = np.array([c for c in range(0, n, max(1, n // 60)) if not lo <= c < hi])
    rows = np.arange(lo, hi, 4)
    r, c = (g.ravel() for g in np.meshgrid(rows, cols, indexing="ij"))
    coupling = sp.coo_matrix((np.full(r.size, -0.01), (r, c)), shape=(n, n))
    diag = np.full(n, 4.0)
    diag[rows] += 0.02 * cols.size  # the hub rows and columns stay dominant
    diag[cols] += 0.02 * rows.size
    off = np.full(n - 1, -1.0)
    return (sp.diags([off, diag, off], (-1, 0, 1)) + coupling + coupling.T).tocsr()


class TestPatternAwarePlacementPays:
    def test_aware_plan_keeps_the_hub_off_the_wan_host(self):
        """Five equal bands on four fast hosts and one slow host behind
        the shared WAN link, eight right-hand sides so message volume
        dominates.  Blind to the pattern, the calibrated matching sees
        equal blocks, keeps the identity and parks the hub on the WAN
        host; aware of it, the hub stays on the big site.  Same
        partition and weighting, so the iterates are bit-identical and
        only the simulated time moves (the simulator is deterministic;
        the blind plan takes ~1.8x as long)."""
        L, n, k, hub = 5, 2000, 8, 4
        wan_host = L - 1
        A = _hub_system(n, L, hub)
        b, _ = rhs_for_solution(A, seed=1)
        B = np.column_stack([b * (j + 1) for j in range(k)])
        cluster = custom_cluster("hub", {"siteA": [2e8] * (L - 1), "siteB": [1e8]})
        part = uniform_bands(n, L).to_general()
        scheme = make_weighting("ownership", part)
        stopping = StoppingCriterion(tolerance=1e-300, max_iterations=24)
        plans, runs = {}, {}
        for name, pattern in (("blind", None), ("aware", A)):
            plans[name] = partition_placement(
                cluster, part, strategy="calibrated", A=pattern, k=k
            )
            runs[name] = run_synchronous(
                A, B, part, scheme, get_solver("scipy"), cluster,
                placement=plans[name], stopping=stopping,
            )
        assert plans["blind"].assignment[hub] == wan_host
        assert plans["aware"].assignment[hub] != wan_host
        assert runs["blind"].iterations == runs["aware"].iterations == 24
        np.testing.assert_array_equal(runs["blind"].x, runs["aware"].x)
        assert runs["blind"].simulated_time >= 1.3 * runs["aware"].simulated_time
