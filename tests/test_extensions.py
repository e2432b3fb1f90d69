"""Tests for the extension features.

Covers the paper's announced future-work items and Remark-2 machinery:
heterogeneous per-band direct kernels, permuted/interleaved partitions,
residual-metric distributed stopping, and MatrixMarket IO.
"""

import numpy as np
import pytest

from repro.core import (
    MultisplittingSolver,
    StoppingCriterion,
    interleaved_partition,
    make_weighting,
    multisplitting_iterate,
    permuted_bands,
    uniform_bands,
)
from repro.core.sync import run_synchronous
from repro.direct import ScipySuperLU, get_solver
from repro.grid import cluster1
from repro.matrices import (
    MMFormatError,
    cage_like,
    diagonally_dominant,
    poisson_2d,
    read_mm,
    rhs_for_solution,
    write_mm,
)


def problem(n=120, seed=1, **kw):
    A = diagonally_dominant(n, dominance=kw.pop("dominance", 1.5),
                            bandwidth=kw.pop("bandwidth", 10), seed=seed)
    b, x_true = rhs_for_solution(A, seed=seed + 1)
    return A, b, x_true


class TestHeterogeneousKernels:
    """Paper conclusion: 'different direct algorithms on different clusters'."""

    def test_mixed_kernels_sequential(self):
        A, b, x_true = problem()
        kernels = [
            get_solver("dense"),
            ScipySuperLU(permc_spec="COLAMD"),
            ScipySuperLU(permc_spec="NATURAL"),
            get_solver("banded"),
        ]
        s = MultisplittingSolver(4, mode="sequential", direct_solver=kernels)
        r = s.solve(A, b)
        assert r.converged
        np.testing.assert_allclose(r.x, x_true, atol=1e-6)

    def test_mixed_kernels_by_name(self):
        A, b, x_true = problem()
        s = MultisplittingSolver(
            2, mode="sequential", direct_solver=["banded", "scipy"]
        )
        r = s.solve(A, b)
        np.testing.assert_allclose(r.x, x_true, atol=1e-6)

    def test_mixed_kernels_distributed(self):
        A, b, x_true = problem(n=200)
        s = MultisplittingSolver(
            mode="synchronous",
            direct_solver=[
                "scipy", ScipySuperLU(permc_spec="NATURAL"), "scipy", "dense"
            ],
        )
        r = s.solve(A, b, cluster=cluster1(4))
        assert r.status == "ok"
        np.testing.assert_allclose(r.x, x_true, atol=1e-6)

    def test_same_iterates_as_homogeneous(self):
        """Kernel choice must not change the mathematics, only the cost."""
        A, b, _ = problem()
        part = uniform_bands(120, 3).to_general()
        w = make_weighting("ownership", part)
        hom = multisplitting_iterate(A, b, part, w, get_solver("scipy"))
        mixed = multisplitting_iterate(
            A, b, part, w,
            [get_solver("dense"), get_solver("scipy"), ScipySuperLU(permc_spec="COLAMD")],
        )
        assert hom.iterations == mixed.iterations
        np.testing.assert_allclose(hom.x, mixed.x, atol=1e-9)

    @pytest.mark.parametrize("kernel", ["dense", "banded", "scipy"])
    @pytest.mark.parametrize("mode", ["sequential", "synchronous", "asynchronous"])
    def test_each_kernel_in_each_mode(self, kernel, mode):
        """The simulated modes also read each adapter's cost statistics."""
        A, b, x_true = problem()
        s = MultisplittingSolver(4, mode=mode, direct_solver=kernel)
        r = s.solve(A, b) if mode == "sequential" else s.solve(A, b, cluster=cluster1(4))
        assert r.converged
        np.testing.assert_allclose(r.x, x_true, atol=1e-6)

    def test_wrong_count_rejected(self):
        A, b, _ = problem()
        s = MultisplittingSolver(
            4, mode="sequential", direct_solver=["scipy", "dense"]
        )
        with pytest.raises(ValueError, match="kernels for"):
            s.solve(A, b)


class TestRemark2Partitions:
    def test_interleaved_is_valid_partition(self):
        g = interleaved_partition(12, 3, chunk=2)
        np.testing.assert_array_equal(g.sets[0], [0, 1, 6, 7])
        np.testing.assert_array_equal(g.sets[1], [2, 3, 8, 9])
        assert g.multiplicity().max() == 1

    def test_interleaved_converges(self):
        A, b, x_true = problem(n=120)
        g = interleaved_partition(120, 4, chunk=10)
        w = make_weighting("ownership", g)
        res = multisplitting_iterate(A, b, g, w, get_solver("scipy"))
        assert res.converged
        np.testing.assert_allclose(res.x, x_true, atol=1e-6)

    def test_interleaved_validation(self):
        with pytest.raises(ValueError):
            interleaved_partition(10, 0)
        with pytest.raises(ValueError):
            interleaved_partition(10, 2, chunk=0)
        with pytest.raises(ValueError):
            interleaved_partition(3, 5)
        with pytest.raises(ValueError):
            interleaved_partition(4, 3, chunk=2)  # leaves processor 2 empty

    def test_permuted_identity_equals_uniform(self):
        g1 = permuted_bands(np.arange(20), 4)
        g2 = uniform_bands(20, 4).to_general()
        for a, b_ in zip(g1.sets, g2.sets):
            np.testing.assert_array_equal(a, b_)

    def test_permuted_bands_converge(self):
        """Remark 2: permutation reduces scattered sets to Figure-1 bands."""
        A, b, x_true = problem(n=100)
        rng = np.random.default_rng(3)
        perm = rng.permutation(100)
        g = permuted_bands(perm, 4)
        w = make_weighting("ownership", g)
        res = multisplitting_iterate(
            A, b, g, w, get_solver("scipy"),
            stopping=StoppingCriterion(max_iterations=4000),
        )
        assert res.converged
        np.testing.assert_allclose(res.x, x_true, atol=1e-5)

    def test_permuted_with_overlap(self):
        g = permuted_bands(np.arange(20)[::-1], 2, overlap=2)
        assert g.multiplicity().max() == 2

    def test_permuted_validation(self):
        with pytest.raises(ValueError):
            permuted_bands(np.array([0, 0, 1]), 2)


class TestResidualMetricDistributed:
    def test_sync_residual_metric_converges(self):
        A, b, x_true = problem(n=200)
        part = uniform_bands(200, 4).to_general()
        w = make_weighting("ownership", part)
        res = run_synchronous(
            A, b, part, w, get_solver("scipy"), cluster1(4),
            stopping=StoppingCriterion(metric="residual", tolerance=1e-7),
        )
        assert res.status == "ok"
        assert res.residual <= 1e-6  # the monitor controlled the true residual
        np.testing.assert_allclose(res.x, x_true, atol=1e-5)

    def test_residual_metric_via_facade(self):
        A, b, _ = problem(n=150)
        s = MultisplittingSolver(mode="synchronous")
        s.stopping = StoppingCriterion(metric="residual", tolerance=1e-7)
        r = s.solve(A, b, cluster=cluster1(3))
        assert r.status == "ok" and r.residual <= 1e-6

    def test_local_residual_zero_right_after_solve(self):
        from repro.core.local import build_local_systems

        A, b, _ = problem(n=60)
        part = uniform_bands(60, 2).to_general()
        systems = build_local_systems(A, b, part.sets, get_solver("scipy"))
        z = np.zeros(60)
        piece = systems[0].solve_with(z)
        r = systems[0].local_residual(piece, z)
        assert np.max(np.abs(r)) < 1e-10

    def test_residual_flops_positive(self):
        from repro.core.local import build_local_systems

        A, b, _ = problem(n=40)
        part = uniform_bands(40, 2).to_general()
        systems = build_local_systems(A, b, part.sets, get_solver("scipy"))
        assert systems[0].residual_flops > 0


class TestMatrixMarket:
    def test_roundtrip_general(self, tmp_path):
        A = cage_like(80, seed=4)
        p = tmp_path / "cage.mtx"
        write_mm(p, A, comment="cage analog\nsecond line")
        B = read_mm(p)
        assert abs(A - B).max() < 1e-12

    def test_roundtrip_poisson(self, tmp_path):
        A = poisson_2d(5)
        p = tmp_path / "poisson.mtx"
        write_mm(p, A)
        assert abs(read_mm(p) - A).max() < 1e-12

    def test_reads_symmetric_storage(self, tmp_path):
        p = tmp_path / "sym.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 4\n"
            "1 1 2.0\n2 2 2.0\n3 3 2.0\n3 1 -1.0\n"
        )
        A = read_mm(p).toarray()
        assert A[0, 2] == -1.0 and A[2, 0] == -1.0

    def test_reads_pattern(self, tmp_path):
        p = tmp_path / "pat.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n"
            "2 2 2\n1 1\n2 2\n"
        )
        A = read_mm(p).toarray()
        np.testing.assert_allclose(A, np.eye(2))

    def test_skew_symmetric(self, tmp_path):
        p = tmp_path / "skew.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real skew-symmetric\n"
            "2 2 1\n2 1 3.0\n"
        )
        A = read_mm(p).toarray()
        assert A[1, 0] == 3.0 and A[0, 1] == -3.0

    def test_comments_skipped(self, tmp_path):
        p = tmp_path / "c.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment\n% another\n"
            "1 1 1\n1 1 5.0\n"
        )
        assert read_mm(p)[0, 0] == 5.0

    def test_errors(self, tmp_path):
        bad = tmp_path / "bad.mtx"
        bad.write_text("hello\n")
        with pytest.raises(MMFormatError):
            read_mm(bad)
        bad.write_text("%%MatrixMarket matrix array real general\n1 1\n1.0\n")
        with pytest.raises(MMFormatError):
            read_mm(bad)
        bad.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n"
        )
        with pytest.raises(MMFormatError):
            read_mm(bad)
        bad.write_text(
            "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n"
        )
        with pytest.raises(MMFormatError):
            read_mm(bad)

    def test_hb_and_mm_agree(self, tmp_path):
        from repro.matrices import read_rua, write_rua

        A = cage_like(60, seed=5)
        write_mm(tmp_path / "a.mtx", A)
        write_rua(tmp_path / "a.rua", A)
        B1 = read_mm(tmp_path / "a.mtx")
        B2 = read_rua(tmp_path / "a.rua")
        assert abs(B1 - B2).max() < 1e-9
