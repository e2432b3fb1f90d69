"""Fill-in profiling and extrapolation for the distributed baseline.

The baseline's schedule and memory accounting need the per-column fill of
the LU factors.  Two sources:

* :func:`exact_fill_profile` -- run the real SuperLU (via scipy) once and
  read off ``nnz(L[:, j])`` / ``nnz(U[:, j])``;
* :func:`extrapolated_fill_profile` -- when the full factorization is too
  large (or is exactly the case whose infeasibility we are deciding --
  the paper's "nem" row), factor two *leading principal sub-matrices* and
  fit a power law ``nnz_F(m) = c * m^gamma``, then spread the predicted
  fill uniformly over columns.

The probe approach is standard capacity-planning practice; EXPERIMENTS.md
documents where each source is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.direct.scipy_backend import ScipySuperLU
from repro.linalg.sparse import as_csc

__all__ = ["FillProfile", "exact_fill_profile", "extrapolated_fill_profile"]


@dataclass(frozen=True)
class FillProfile:
    """Per-column factor structure.

    Attributes
    ----------
    lnz:
        ``lnz[j]`` = below-diagonal non-zeros of ``L[:, j]``.
    unz:
        ``unz[j]`` = non-zeros of ``U[:, j]`` (diagonal included).
    exact:
        True when measured from a real factorization.
    """

    lnz: np.ndarray
    unz: np.ndarray
    exact: bool

    @property
    def n(self) -> int:
        return int(self.lnz.size)

    @property
    def nnz_factors(self) -> int:
        """Total stored non-zeros of ``L + U`` (unit diagonal of L excluded)."""
        return int(self.lnz.sum() + self.unz.sum())

    @property
    def total_flops(self) -> float:
        """Standard LU flop estimate ``sum_j 2 lnz_j unz_j + lnz_j``."""
        return float(np.sum(2.0 * self.lnz * self.unz) + self.lnz.sum())

    def _panel_totals(self, start: int, stop: int) -> np.ndarray:
        seg_l = self.lnz[start:stop]
        seg_u = self.unz[start:stop]
        return 2.0 * seg_l * seg_u + seg_l

    def panel_flops(self, start: int, stop: int, width: int) -> float:
        """Panel-internal factorization flops for columns ``[start, stop)``.

        Each column's total work ``2 lnz_j unz_j + lnz_j`` is split by the
        fraction of its U-row targets inside the panel (``width / unz_j``,
        capped at 1), so panel + update always reconstruct the column
        total exactly.
        """
        totals = self._panel_totals(start, stop)
        frac = np.minimum(1.0, width / np.maximum(self.unz[start:stop], 1.0))
        return float(np.sum(totals * frac))

    def panel_update_flops(self, start: int, stop: int, width: int) -> float:
        """Trailing-update flops generated by panel ``[start, stop)``."""
        totals = self._panel_totals(start, stop)
        return float(totals.sum()) - self.panel_flops(start, stop, width)

    def panel_bytes(self, start: int, stop: int) -> int:
        """Wire size of the L-panel broadcast for columns ``[start, stop)``."""
        return int(12 * self.lnz[start:stop].sum()) + 64


def exact_fill_profile(A) -> FillProfile:
    """Measure the per-column fill with one real SuperLU factorization
    under SuperLU's default options (COLAMD, partial pivoting)."""
    handle = ScipySuperLU(permc_spec="COLAMD").factor(A)
    L = handle._handle.L.tocsc()
    U = handle._handle.U.tocsc()
    lnz = np.diff(L.indptr) - 1  # exclude the unit diagonal
    unz = np.diff(U.indptr)
    return FillProfile(lnz=np.maximum(lnz, 0), unz=np.maximum(unz, 1), exact=True)


def extrapolated_fill_profile(A, *, probe_fractions=(0.125, 0.25), min_probe: int = 200) -> FillProfile:
    """Fit ``nnz_F(m) = c m^gamma`` on two principal sub-matrix probes.

    The predicted total fill at full order is spread uniformly over
    columns, which is sufficient for aggregate flop/byte/memory charging.
    ``gamma`` is clipped to ``[1, 2.5]`` (fill grows at least linearly and
    is bounded by dense).
    """
    csc = as_csc(A)
    n = csc.shape[0]
    sizes = sorted({max(min_probe, int(f * n)) for f in probe_fractions})
    sizes = [min(s, n) for s in sizes]
    if len(set(sizes)) < 2 or sizes[-1] >= n:
        # matrix too small to probe meaningfully: just measure it exactly
        return exact_fill_profile(A)
    probes: list[tuple[int, "FillProfile"]] = []
    for m in sizes:
        sub = csc[:m, :][:, :m]
        probes.append((m, exact_fill_profile(sub)))
    (m1, p1), (m2, p2) = probes[0], probes[-1]
    f1 = max(p1.nnz_factors, m1)
    f2 = max(p2.nnz_factors, m2)
    gamma = np.log(f2 / f1) / np.log(m2 / m1)
    gamma = float(np.clip(gamma, 1.0, 2.5))
    c = f1 / (m1**gamma)
    nnz_pred = min(c * (n**gamma), float(n) * n)  # cannot exceed dense
    per_col = nnz_pred / n
    # split between L and U with the larger probe's observed ratio
    l_share = p2.lnz.sum() / max(p2.nnz_factors, 1)
    lnz = np.full(n, per_col * l_share)
    unz = np.full(n, per_col * (1.0 - l_share))
    return FillProfile(lnz=lnz, unz=np.maximum(unz, 1.0), exact=False)
