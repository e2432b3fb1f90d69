"""Stopping criteria.

The paper fixes "the accuracy for each experiment ... to 1e-8" and stops
on the stabilisation of the iterates.  :class:`StoppingCriterion`
implements the two standard monitors:

* ``diff``  -- max-norm of the change of the locally owned components
  between consecutive outer iterations (what Algorithm 1's convergence
  detection aggregates);
* ``residual`` -- max-norm of the true local residual ``(b - A x)|J_l``
  (more expensive: one extra band mat-vec per check).

``consecutive`` requires the monitor to stay below tolerance for that many
successive iterations before declaring local convergence -- the classical
guard for asynchronous mode, where a single small diff can be an artifact
of a stale dependency rather than of convergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.linalg.norms import max_norm

__all__ = ["StoppingCriterion", "LocalConvergenceState", "observed_contraction"]


@dataclass(frozen=True)
class StoppingCriterion:
    """Declarative stopping rule.

    Attributes
    ----------
    tolerance:
        Threshold on the monitor (default the paper's ``1e-8``).
    metric:
        ``"diff"`` or ``"residual"``.
    consecutive:
        Successive below-tolerance iterations required (>= 1).
    max_iterations:
        Safety cap on outer iterations; hitting it marks the run as not
        converged rather than looping forever.
    """

    tolerance: float = 1e-8
    metric: str = "diff"
    consecutive: int = 1
    max_iterations: int = 10_000

    def __post_init__(self) -> None:
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.metric not in ("diff", "residual"):
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.consecutive < 1:
            raise ValueError("consecutive must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")

    def new_state(self) -> "LocalConvergenceState":
        """Return a fresh per-processor tracker."""
        return LocalConvergenceState(criterion=self)


@dataclass
class LocalConvergenceState:
    """Per-processor convergence tracker (mutable)."""

    criterion: StoppingCriterion
    streak: int = 0
    last_value: float = field(default=np.inf)

    def observe(self, value: float) -> bool:
        """Feed one monitor value; returns current local convergence flag."""
        self.last_value = float(value)
        if value <= self.criterion.tolerance:
            self.streak += 1
        else:
            self.streak = 0
        return self.converged

    def reset(self) -> None:
        """Discard the current streak.

        Used when an external verification (e.g. a true-residual check on
        a candidate stop) contradicts the monitor: the tracker starts
        collecting evidence from scratch instead of re-declaring
        convergence on the very next quiet observation.
        """
        self.streak = 0

    def observe_diff(self, x_new: np.ndarray, x_old: np.ndarray) -> bool:
        """Feed the iterate change ``||x_new - x_old||_inf``."""
        return self.observe(max_norm(np.asarray(x_new) - np.asarray(x_old)))

    @property
    def converged(self) -> bool:
        """True when the streak requirement is met."""
        return self.streak >= self.criterion.consecutive


def observed_contraction(history) -> float | None:
    """The contraction factor per round that a monitor ``history`` shows.

    The geometric mean of the round-to-round ratios over the second half
    of the history: a linear iteration's early rounds also carry fast
    modes, its tail only the slowest one, which sets how many rounds a
    run takes (about ``log(tol) / log(contraction)`` from a unit start).
    ``None`` below 3 rounds; ``0.0`` once the monitor reached zero.
    """
    if len(history) < 3:
        return None
    mid = len(history) // 2
    if history[mid] == 0.0:
        return 0.0
    return float((history[-1] / history[mid]) ** (1.0 / (len(history) - 1 - mid)))
