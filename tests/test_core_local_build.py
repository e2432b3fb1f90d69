"""The per-band build of ``(ASub, Dep)``: one CSR pass, byte-for-byte.

:func:`repro.core.local.build_local_system` used to prune the coupling
block through a LIL round trip.  That code survives here only, as the
*reference builder* the CSR column mask is compared against
array-for-array; the last test makes sure the round trip cannot come
back.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MultisplittingSolver
from repro.core.local import build_local_system, halo_columns
from repro.core.partition import (
    interleaved_partition,
    permuted_bands,
    uniform_bands,
)
from repro.direct import get_solver
from repro.direct.cache import FactorizationCache
from repro.matrices import cage_like, diagonally_dominant
from repro.runtime import InlineExecutor, ProcessExecutor


def _lil_reference(band: sp.csr_matrix, rows: np.ndarray):
    """``(a_sub, dep)`` as built before the mask (mutates ``band``).

    ``tolil`` sums the duplicates of ``band`` in place and ``a_sub`` is
    sliced after it: on canonical input (all the repo generates) that is
    the old ``a_sub`` byte for byte; on non-canonical input the old one
    depended on whether the kernel had run (``splu`` canonicalises its
    argument in place, a cache hit does not), the new one never does.
    """
    dep = band.tolil(copy=True)
    dep[:, rows] = 0.0
    dep = dep.tocsr()
    dep.eliminate_zeros()
    a_sub = band[:, rows].tocsc().tocsr()
    return a_sub, dep


def _csr_bytes(M) -> tuple:
    return tuple(
        (str(a.dtype), a.tobytes()) for a in (M.indptr, M.indices, M.data)
    )


def _assert_same_csr(got, want) -> None:
    assert got.format == want.format == "csr"
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert _csr_bytes(got) == _csr_bytes(want)
    assert got.has_canonical_format == want.has_canonical_format


#: Exact small values (cancelling pairs really sum to zero) beside a few
#: whose sum depends on the order duplicates are added in.
_VALUES = (0.0, 1.0, -1.0, 2.0, -2.0, 0.5, 0.1, 0.2, 0.3, -0.3)


@st.composite
def _raw_csr(draw):
    """A strictly diagonally dominant CSR matrix in *non-canonical* form:
    unsorted indices, duplicates (some summing to zero), stored zeros,
    rows that couple to nothing."""
    n = draw(st.integers(4, 16))
    cell = st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from(_VALUES)
    )
    entries = draw(st.lists(cell, max_size=4 * n))
    for k in draw(st.lists(st.integers(0, max(len(entries) - 1, 0)), max_size=n)):
        if entries:
            i, j, v = entries[k]
            entries.append((i, j, -v))
    weight = np.zeros(n)
    for i, _, v in entries:
        weight[i] += abs(v)
    entries += [(i, i, 10.0 * (1.0 + weight[i])) for i in range(n)]
    entries = draw(st.permutations(entries))
    by_row = sorted(entries, key=lambda e: e[0])  # stable: columns stay shuffled
    indptr = np.zeros(n + 1, dtype=draw(st.sampled_from((np.int32, np.int64))))
    np.cumsum(np.bincount([e[0] for e in by_row], minlength=n), out=indptr[1:])
    indices = np.array([e[1] for e in by_row], dtype=indptr.dtype)
    data = np.array([e[2] for e in by_row], dtype=float)
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


@st.composite
def _partition(draw, n: int):
    L = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(("band", "schwarz", "interleaved", "permuted")))
    if kind == "band":
        return uniform_bands(n, L).to_general()
    if kind == "schwarz":
        return uniform_bands(n, L, overlap=draw(st.integers(1, 3))).to_general()
    if kind == "interleaved":
        return interleaved_partition(n, L, overlap=draw(st.integers(0, 1)))
    perm = np.array(draw(st.permutations(range(n))))
    return permuted_bands(perm, L, overlap=draw(st.integers(0, 2)))


class TestMaskEqualsLilReference:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_byte_identical_on_both_paths(self, data):
        A = data.draw(_raw_csr())
        n = A.shape[0]
        partition = data.draw(_partition(n))
        b = np.arange(1.0, n + 1.0)
        solver = get_solver("scipy")
        cache = FactorizationCache()
        boundary = partition.boundary_columns(A)
        for l, J in enumerate(partition.sets):
            rows = J
            if data.draw(st.booleans()):
                rows = np.array(data.draw(st.permutations(J.tolist())))
            want_a, want_dep = _lil_reference(A[rows, :], rows)
            via_csr = build_local_system(A, b, rows, l, solver, cache=cache)
            via_band = build_local_system(
                None, None, rows, l, solver,
                cache=cache, band=A[rows, :], b_sub=b[rows],
            )
            for got in (via_csr, via_band):
                _assert_same_csr(got.dep, want_dep)
                _assert_same_csr(got.a_sub, want_a)
                assert got.rhs_flops == 2.0 * want_dep.nnz
                assert got.cache_key == cache.key_for(solver, want_a)
                np.testing.assert_array_equal(got.b_sub, b[rows])
            # One derivation of "what Dep reads": the helper, the
            # partition's pattern-level view and the built system agree,
            # whatever order the rows came in.
            halo = halo_columns(A[rows, :], rows)
            assert halo.dtype == np.int64
            np.testing.assert_array_equal(halo, boundary[l])
            np.testing.assert_array_equal(halo, np.unique(via_csr.dep.indices))

    def test_single_block_has_an_empty_dep(self):
        A = cage_like(40, seed=1)
        rows = np.arange(40)
        system = build_local_system(A, np.ones(40), rows, 0, get_solver("scipy"))
        _assert_same_csr(system.dep, _lil_reference(A[rows, :], rows)[1])
        assert system.dep.nnz == 0 and system.rhs_flops == 0.0


def _scrambled(A: sp.csr_matrix) -> sp.csr_matrix:
    """``A`` in non-canonical form: every row's entries reversed, each
    followed by a cancelling pair on a far column and a stored zero."""
    n = A.shape[0]
    data, indices, indptr = [], [], [0]
    for i in range(n):
        lo, hi = A.indptr[i], A.indptr[i + 1]
        far = (i + n // 2) % n
        data += [*A.data[lo:hi][::-1], 3.0, -3.0, 0.0]
        indices += [*A.indices[lo:hi][::-1], far, far, (far + 1) % n]
        indptr.append(len(data))
    out = sp.csr_matrix((data, indices, indptr), shape=A.shape)
    assert not out.has_canonical_format
    return out


class TestFleetHaloIsDepColumns:
    """What a fleet round ships of ``z`` is exactly what ``Dep`` reads:
    the binding's halo, ``boundary_columns`` and the built systems'
    ``dep`` columns are one set, and the z-plane slots are cut to it."""

    @pytest.fixture(scope="class")
    def fleet(self):
        ex = ProcessExecutor(max_workers=2)
        yield ex
        ex.close()

    @staticmethod
    def _partition(kind: str, n: int, L: int):
        if kind == "band":
            return uniform_bands(n, L).to_general()
        if kind == "schwarz":
            return uniform_bands(n, L, overlap=5).to_general()
        if kind == "interleaved":
            return interleaved_partition(n, L, chunk=4)
        perm = np.random.default_rng(3).permutation(n)
        return permuted_bands(perm, L, overlap=3)

    @pytest.mark.parametrize("canonical", [True, False])
    @pytest.mark.parametrize("L", [1, 4])
    @pytest.mark.parametrize("kind", ["band", "schwarz", "interleaved", "permuted"])
    def test_halo_plane_and_dep_agree(self, fleet, kind, L, canonical):
        n = 72
        A = diagonally_dominant(n, dominance=1.5, bandwidth=4, seed=9).tocsr()
        if not canonical:
            A = _scrambled(A)
        before = _csr_bytes(A)
        b = np.linspace(1.0, 2.0, n)
        part = self._partition(kind, n, L)
        boundary = part.boundary_columns(A)
        kernel = get_solver("scipy")
        z = np.linspace(-1.0, 1.0, n)
        z.flags.writeable = False
        with InlineExecutor() as inline:
            inline.attach(A, b, part.sets, kernel)
            deps = [np.unique(system.dep.indices) for system in inline.systems]
            ref = inline.solve_round([z] * L)
        fleet.attach(A, b, part.sets, kernel)
        try:
            for l in range(L):
                np.testing.assert_array_equal(fleet._halo[l], boundary[l])
                np.testing.assert_array_equal(fleet._halo[l], deps[l])
            assert fleet._z_plane.shapes == [(h.size,) for h in boundary]
            if L == 1:  # nothing outside J_0: an empty halo, a zero-size slot
                assert fleet._z_plane.shapes == [(0,)]
            got = fleet.solve_round([z] * L)
            sent = fleet.wire_stats()["vector_bytes_sent"]
        finally:
            fleet.detach()
        assert sent == 8 * sum(h.size for h in boundary)
        for x, y in zip(got, ref):
            np.testing.assert_array_equal(x, y)
        assert _csr_bytes(A) == before  # the caller's matrix is only read


class TestCallerBandUntouched:
    """``band.tocsr()`` is the caller's own object when it is already
    CSR; the build must read it, never canonicalise or mask it in place."""

    @pytest.mark.parametrize("canonical", [True, False])
    def test_band_and_b_sub_are_byte_identical_after_build(self, canonical):
        A = cage_like(60, seed=2)
        rows = np.arange(10, 40)
        band = A[rows, :]
        if not canonical:
            # Reverse every row's entries and append a cancelling pair
            # plus a stored zero to the last row.
            order = np.concatenate(
                [np.arange(s, e)[::-1] for s, e in zip(band.indptr, band.indptr[1:])]
            )
            indptr = band.indptr.copy()
            indptr[-1] += 3
            band = sp.csr_matrix(
                (
                    np.concatenate((band.data[order], [4.0, -4.0, 0.0])),
                    np.concatenate((band.indices[order], [2, 2, 50])),
                    indptr,
                ),
                shape=band.shape,
            )
            assert not band.has_sorted_indices
        b_sub = np.linspace(1.0, 2.0, rows.size)
        before = _csr_bytes(band), b_sub.tobytes()
        want = _lil_reference(band.copy(), rows)[1]
        system = build_local_system(
            None, None, rows, 0, get_solver("scipy"), band=band, b_sub=b_sub
        )
        assert (_csr_bytes(band), b_sub.tobytes()) == before
        _assert_same_csr(system.dep, want)
        assert not np.shares_memory(system.b_sub, b_sub)


class TestNoLilOnTheSolvePath:
    """Deterministic guard: with every LIL entry point raising, a cold
    and a warm solve still run on the two backends that cover both
    construction paths (``csr=`` in-process, ``band=`` in fleet workers;
    ``fork`` so the workers inherit the patch)."""

    @pytest.mark.parametrize("backend", ["inline", "processes"])
    def test_cold_and_warm_solve_with_lil_disabled(self, monkeypatch, backend):
        def banned(*args, **kwargs):
            raise AssertionError("LIL round trip on the solve path")

        monkeypatch.setattr(sp.csr_matrix, "tolil", banned)
        monkeypatch.setattr(sp.lil_matrix, "__init__", banned)
        A = cage_like(1200, seed=0)
        b = A @ np.random.default_rng(0).uniform(-1.0, 1.0, 1200)
        if backend == "inline":
            executor = InlineExecutor()
        else:
            executor = ProcessExecutor(max_workers=2, start_method="fork")
        try:
            solver = MultisplittingSolver(
                mode="sequential", processors=4,
                direct_solver="scipy", weighting="ownership",
                tolerance=1e-8, backend=executor, cache=True,
            )
            cold = solver.solve(A, b)
            warm = solver.solve(A, b)
        finally:
            executor.close()
        assert cold.converged and warm.converged
        np.testing.assert_array_equal(cold.x, warm.x)
        # The counters the ledger reads, as they were before the mask:
        # one miss per band cold, then one hit per band per round; warm
        # adds the attach's own hit per band.  Inline, a cold solve also
        # probes its overlap (overlap=None) through the same cache: 4
        # rounds on the same factors (16 hits), which the solve's attach
        # then finds (4 hits).  A fleet's counters are its workers'.
        probe_hits = 20 if backend == "inline" else 0
        assert cold.iterations == warm.iterations == 17
        assert (cold.cache_stats.misses, cold.cache_stats.hits) == (4, 68 + probe_hits)
        assert (warm.cache_stats.misses, warm.cache_stats.hits) == (0, 72)
