"""Factor once, hold once: ``ScipyFactorization.stats`` is computed on request.

The flop counts the grid simulator charges need ``handle.L`` /
``handle.U``, and SuperLU keeps every matrix it hands out, so reading
them at ``factor`` time left each cached factor resident twice.  These
tests hold the three halves of the change together: the lazy numbers are
the eager formula's (kept here as the reference), a real solve never
asks for them, and not asking is what halves the resident bytes.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    MultisplittingSolver,
    make_weighting,
    uniform_bands,
)
from repro.core.asynchronous import run_asynchronous
from repro.core.distributed import band_memory_bytes
from repro.core.local import build_local_systems
from repro.core.sync import run_synchronous
from repro.direct import banded_factor_cost, dense_factor_cost, get_solver
from repro.direct.base import FactorStats
from repro.direct.scipy_backend import ScipyFactorization, ScipySuperLU
from repro.grid import custom_cluster
from repro.linalg.sparse import as_csc
from repro.matrices import (
    banded_random,
    cage_like,
    diagonally_dominant,
    poisson_2d,
    rhs_for_solution,
)
from repro.runtime import (
    FlakySolver,
    InlineExecutor,
    ProcessExecutor,
    StallOnceSolver,
    StragglerSolver,
)
from repro.serve import SolverPool

SRC = str(Path(__file__).resolve().parents[1] / "src")
PERMC_SPECS = [None, "COLAMD", "MMD_AT_PLUS_A", "MMD_ATA", "NATURAL"]


def eager_stats(A, permc_spec: str | None = None) -> FactorStats:
    """The statistics as ``ScipySuperLU.factor`` computed them at every
    factorisation before they became lazy -- the reference formula, on
    the ``splu`` options the kernel chooses for ``A``."""
    csc = as_csc(A)
    n = csc.shape[0]
    handle = spla.splu(csc, **ScipySuperLU(permc_spec=permc_spec).splu_options(csc))
    L, U = handle.L, handle.U
    lnz_per_col = np.diff(L.tocsc().indptr) - 1  # exclude unit diagonal
    unz_per_col = np.diff(U.tocsc().indptr)
    factor_flops = float(np.sum(2.0 * lnz_per_col * unz_per_col) + np.sum(lnz_per_col))
    nnz_factors = int(L.nnz + U.nnz)
    memory = int(nnz_factors * (8 + 4) + 2 * (n + 1) * 4)
    return FactorStats(
        n=n,
        factor_flops=factor_flops,
        solve_flops=2.0 * nnz_factors,
        nnz_factors=nnz_factors,
        memory_bytes=memory,
        fill_ratio=nnz_factors / max(csc.nnz, 1),
    )


class EagerScipySuperLU(ScipySuperLU):
    """The kernel as it was: statistics filled in by ``factor`` itself."""

    def factor(self, A):
        fact = super().factor(A)
        fact.stats = eager_stats(A, self.permc_spec)
        return fact


@st.composite
def sparse_systems(draw):
    """Small strictly dominant sparse matrices (every pivot safe)."""
    n = draw(st.integers(1, 40))
    density = draw(st.floats(0.0, 0.5))
    seed = draw(st.integers(0, 2**16))
    A = sp.random(n, n, density=density, random_state=seed, format="csr")
    dominance = np.asarray(abs(A).sum(axis=1)).ravel() + 1.0
    return (A + sp.diags(dominance)).tocsr()


class TestLazyStatsAreTheEagerFormula:
    @pytest.mark.parametrize("permc_spec", PERMC_SPECS)
    @settings(max_examples=25, deadline=None)
    @given(A=sparse_systems())
    def test_field_for_field(self, permc_spec, A):
        fact = get_solver("scipy", permc_spec=permc_spec).factor(A)
        assert "stats" not in vars(fact)
        assert fact.n == A.shape[0]
        want = eager_stats(A, permc_spec)
        got = fact.stats
        for field in FactorStats.__dataclass_fields__:
            assert getattr(got, field) == getattr(want, field), field
        assert fact.stats is got  # computed once, then held

    def test_solving_does_not_compute_them(self):
        A = cage_like(400, seed=0)
        fact = get_solver("scipy").factor(A)
        fact.solve(np.ones(400))
        fact.solve_many(np.ones((400, 3)))
        with pytest.raises(ValueError, match=r"shape \(400,\)"):
            fact.solve(np.ones(399))
        with pytest.raises(ValueError, match=r"shape \(400, k\)"):
            fact.solve_many(np.ones((399, 2)))
        assert "stats" not in vars(fact)

    @pytest.mark.parametrize("kernel", ["dense", "banded", "scipy"])
    def test_no_kernel_computes_stats_at_factor_time(self, kernel):
        A = diagonally_dominant(30, dominance=1.5, bandwidth=3, seed=0)
        fact = get_solver(kernel).factor(A)
        fact.solve_many(np.ones((30, 2)))
        assert "stats" not in vars(fact)
        assert isinstance(fact.stats, FactorStats)
        assert fact.stats.n == 30 and fact.stats.factor_flops > 0
        assert fact.stats is vars(fact)["stats"]


class TestAdapterStatsAreTheCostModels:
    """LAPACK counts nothing: the dense and band adapters report the
    textbook models of :mod:`repro.direct.costs` and the size of what
    they hold."""

    def test_dense(self):
        A = diagonally_dominant(40, dominance=1.5, bandwidth=3, seed=2)
        stats = get_solver("dense").factor(A.toarray()).stats
        cost = dense_factor_cost(40)
        assert stats.factor_flops == cost.factor_flops
        assert stats.solve_flops == cost.solve_flops == 2.0 * 40 * 40
        assert stats.nnz_factors == 40 * 40
        assert stats.memory_bytes == 8 * 40 * 40 + 4 * 40
        assert stats.fill_ratio == 40 * 40 / np.count_nonzero(A.toarray())

    def test_banded_counts_the_fill_of_row_interchanges(self):
        A = banded_random(50, lower_bw=2, upper_bw=3, seed=2)
        stats = get_solver("banded").factor(A).stats
        cost = banded_factor_cost(50, 2, 2 + 3)  # U widens to kl + ku
        assert stats.factor_flops == cost.factor_flops
        assert stats.solve_flops == cost.solve_flops == 2.0 * (2 * 2 + 3 + 1) * 50
        assert stats.nnz_factors == (2 * 2 + 3 + 1) * 50
        assert stats.memory_bytes == 8 * (2 * 2 + 3 + 1) * 50 + 4 * 50
        assert stats.fill_ratio == stats.nnz_factors / A.nnz

    def test_the_sparse_kernel_holds_less_than_dense(self):
        A = poisson_2d(12)
        held = {k: get_solver(k).factor(A).stats.memory_bytes for k in ("dense", "scipy")}
        assert held["scipy"] < held["dense"]


class TestSimulatorGetsTheSameNumbers:
    """``simulated_time`` and the "nem" decision, lazy against eager."""

    @staticmethod
    def _problem():
        A = diagonally_dominant(400, dominance=1.5, bandwidth=15, seed=1)
        b, _ = rhs_for_solution(A, seed=2)
        part = uniform_bands(400, 4).to_general()
        return A, b, part, make_weighting("ownership", part)

    def test_local_system_reads_through(self):
        A, b, part, _ = self._problem()
        lazy = build_local_systems(A, b, part.sets, get_solver("scipy"))
        eager = build_local_systems(A, b, part.sets, EagerScipySuperLU())
        for s, e in zip(lazy, eager):
            assert "stats" not in vars(s.factorization)
            assert s.factor_flops == e.factor_flops == e.factorization.stats.factor_flops
            assert s.solve_flops == e.solve_flops
            assert s.iteration_flops == e.iteration_flops
            assert s.factor_memory_bytes == e.factor_memory_bytes
            assert band_memory_bytes(s) == band_memory_bytes(e)

    @pytest.mark.parametrize("run", [run_synchronous, run_asynchronous])
    def test_simulated_time_and_nem(self, run):
        A, b, part, w = self._problem()
        need = max(
            band_memory_bytes(s)
            for s in build_local_systems(A, b, part.sets, EagerScipySuperLU())
        )
        # A host that holds the largest band exactly, and one a byte short:
        # the decision turns on the factor's memory_bytes.
        for memory, status in ((need, "ok"), (need - 1, "nem")):
            got, want = (
                # a cluster per run: simulated hosts keep what a run allocated
                run(A, b, part, w, kernel,
                    custom_cluster("c", {"s": [1e8] * 4}, memory_bytes=memory))
                for kernel in (get_solver("scipy"), EagerScipySuperLU())
            )
            assert got.status == want.status == status
            assert got.simulated_time == want.simulated_time
            assert got.factorization_time == want.factorization_time
            assert got.iterations == want.iterations
            if status == "ok":
                np.testing.assert_array_equal(got.x, want.x)


class TestTheRealPathNeverReadsStats:
    """Deterministic guard (same shape as ``TestNoLilOnTheSolvePath``):
    with the statistics raising on read, a cold and a warm solve still
    run wherever ``build_local_system`` is behind a real executor."""

    @staticmethod
    def _ban(monkeypatch):
        def banned(self):
            raise AssertionError("FactorStats read on the real solve path")

        monkeypatch.setattr(ScipyFactorization, "stats", property(banned))

    @pytest.mark.parametrize("backend", ["inline", "processes"])
    def test_cold_and_warm_solve(self, monkeypatch, backend):
        self._ban(monkeypatch)
        A = cage_like(1200, seed=0)
        b = A @ np.random.default_rng(0).uniform(-1.0, 1.0, 1200)
        if backend == "inline":
            executor = InlineExecutor()
        else:
            # fork, so the workers inherit the patch
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
        # The counters the ledger reads: one miss per band cold, then one
        # hit per band per round; warm adds the attach's own hit per band.
        # Inline, a cold solve's overlap probe (overlap=None) adds 4
        # rounds on the same factors and the attach that finds them.
        probe_hits = 20 if backend == "inline" else 0
        assert cold.iterations == warm.iterations == 17
        assert (cold.cache_stats.misses, cold.cache_stats.hits) == (4, 68 + probe_hits)
        assert (warm.cache_stats.misses, warm.cache_stats.hits) == (0, 72)

    def test_solver_pool_batch(self, monkeypatch):
        A = diagonally_dominant(300, dominance=1.5, bandwidth=10, seed=0)
        B = np.random.default_rng(0).uniform(-1.0, 1.0, (300, 3))

        def cold_then_warm():
            with SolverPool(size=1, processors=4, cache_capacity=16) as pool:
                key = pool.register(A)
                X = pool.solve_batch(key, B)
                cold = pool.cache_stats()
                np.testing.assert_array_equal(pool.solve_batch(key, B), X)
                warm = pool.cache_stats()
            return X, (cold.misses, cold.hits), (warm.misses, warm.hits)

        X0, cold0, warm0 = cold_then_warm()
        self._ban(monkeypatch)
        X, cold, warm = cold_then_warm()
        np.testing.assert_array_equal(X, X0)
        assert cold == cold0 and warm == warm0
        assert cold[0] == warm[0] == 4  # the warm batch factored nothing
        assert np.abs(A @ X - B).max() < 1e-6

    def test_the_guard_bites(self, monkeypatch):
        self._ban(monkeypatch)
        A, b = diagonally_dominant(60, dominance=1.5, bandwidth=5, seed=0), np.ones(60)
        part = uniform_bands(60, 2).to_general()
        system = build_local_systems(A, b, part.sets, get_solver("scipy"))[0]
        with pytest.raises(AssertionError, match="FactorStats read"):
            system.factor_flops


class TestHeldOnce:
    def test_three_inline_rounds_leave_stats_unread(self):
        A = cage_like(800, seed=0)
        b = np.ones(800)
        part = uniform_bands(800, 4).to_general()
        ex = InlineExecutor()
        try:
            ex.attach(A, b, part.sets, get_solver("scipy"))
            Z = [np.zeros(800)] * 4
            for _ in range(3):
                ex.solve_round(Z)
            for system in ex.systems:
                assert isinstance(system.factorization, ScipyFactorization)
                assert "stats" not in vars(system.factorization)
        finally:
            ex.close()

    @pytest.mark.parametrize("wrapper", ["flaky", "straggler", "stall-once"])
    def test_the_chaos_kernels_read_through(self, wrapper, tmp_path):
        kernel = get_solver("scipy")
        solver = {
            "flaky": lambda: FlakySolver(kernel),
            "straggler": lambda: StragglerSolver(kernel),
            "stall-once": lambda: StallOnceSolver(kernel, tmp_path / "stalled"),
        }[wrapper]()
        A = cage_like(800, seed=0)
        part = uniform_bands(800, 4).to_general()
        ex = InlineExecutor()
        try:
            ex.attach(A, np.ones(800), part.sets, solver)
            ex.solve_round([np.zeros(800)] * 4)
            for system in ex.systems:
                fact = system.factorization
                assert "stats" not in vars(fact._inner)
                assert fact.stats is fact._inner.stats  # computed on request
        finally:
            ex.close()

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="reads /proc/self/statm"
    )
    def test_resident_growth_per_factor(self):
        """The memory claim as a measurement: eight held factors of a
        ``cage_like(3000)`` band grow the process by at most 0.65x as
        much with ``stats`` unread as with it read (measured 0.47: 1.4
        against 3.1 MB per factor; 6.4 against 13.5 at order 6000)."""
        script = """
import resource
from repro.direct import banded_factor_cost, dense_factor_cost, get_solver
from repro.matrices import cage_like

def resident():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * resource.getpagesize()

band = cage_like(3000, seed=0).tocsc()[:750, :750]
solver = get_solver("scipy")
solver.factor(band).stats  # warm-up: imports, allocator arenas
r0 = resident()
kept = [solver.factor(band * 2.0 ** e) for e in range(1, 9)]
r1 = resident()
for fact in kept:
    fact.stats
r2 = resident()
print(r1 - r0, r2 - r0)
"""
        out = subprocess.run(
            [sys.executable, "-c", script], env={"PYTHONPATH": SRC, "OMP_NUM_THREADS": "1"},
            capture_output=True, text=True, timeout=120, check=True,
        )
        unread, read = (int(v) for v in out.stdout.split())
        assert unread > 0 and read > unread
        assert unread <= 0.65 * read, (unread / 8e6, read / 8e6)
