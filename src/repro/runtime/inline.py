"""The serial baseline backend: everything runs on the calling thread.

``InlineExecutor`` reproduces the pre-runtime behaviour of the drivers
bit for bit -- same systems, same solve order, same cache traffic -- and
is therefore both the default backend and the reference the parallel
backends are verified against (see ``tests/test_runtime_executors.py``
and ``tests/test_runtime_conformance.py``).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from repro.runtime.api import InProcessExecutor

__all__ = ["InlineExecutor"]


class InlineExecutor(InProcessExecutor):
    """Solve every block serially in the driver thread."""

    name = "inline"

    def solve_blocks(
        self, tasks: Sequence[tuple[int, np.ndarray]]
    ) -> list[np.ndarray]:
        pieces: list[np.ndarray] = []
        for l, z in tasks:
            piece, dt = self._traced_solve(l, z)
            self._account(l, dt)
            pieces.append(piece)
        return pieces

    def map(self, fn: Callable, items: Iterable) -> list:
        return [fn(item) for item in items]
