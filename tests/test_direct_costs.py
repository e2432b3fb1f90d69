"""Tests for the analytic cost models of :mod:`repro.direct.costs`."""

import pytest

from repro.direct import (
    BYTES_PER_NNZ,
    banded_factor_cost,
    dense_factor_cost,
    sparse_factor_cost,
)


class TestCosts:
    def test_dense_cubic(self):
        assert dense_factor_cost(30).factor_flops == pytest.approx((2 / 3) * 30**3)
        assert dense_factor_cost(30).solve_flops == 2 * 900

    def test_banded_linear_in_n(self):
        c1 = banded_factor_cost(100, 2, 2)
        c2 = banded_factor_cost(200, 2, 2)
        assert c2.factor_flops == pytest.approx(2 * c1.factor_flops)

    def test_sparse_cost_scales_with_fill(self):
        lo = sparse_factor_cost(1000, 5000, fill_ratio=2.0)
        hi = sparse_factor_cost(1000, 5000, fill_ratio=8.0)
        assert hi.factor_flops > lo.factor_flops
        assert hi.memory_bytes == int(BYTES_PER_NNZ * 8.0 * 5000)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            dense_factor_cost(-1)
        with pytest.raises(ValueError):
            banded_factor_cost(-1, 0, 0)
        with pytest.raises(ValueError):
            sparse_factor_cost(0, 10)
        with pytest.raises(ValueError):
            sparse_factor_cost(10, 10, fill_ratio=0.5)
