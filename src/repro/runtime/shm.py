"""Shared-memory vector plane: zero-pickle exchange of iterate pieces.

The process backend must move two families of vectors every outer
iteration: the *halo* of each block's local copy -- the rows of ``z``
its ``Dep`` reads, ``z[halo_l]`` (driver -> worker) -- and each block's
solution piece ``XSub`` (worker -> driver).  Pickling them through pipes
would copy every float twice; instead both families live in named
``multiprocessing.shared_memory`` segments laid out as fixed slots:

``SharedVectorPlane([shape_0, shape_1, ...])`` maps one float64 slot per
block, at offset ``8 * sum(prod(shape_j) for j < i)``.  The driver writes
slot ``l`` of the z plane *before* posting the solve ticket that names
block ``l`` and reads the piece slot *after* receiving the completion
ticket, so the ticket round-trip orders every access: no two processes
ever touch a slot concurrently, and the only data crossing the pipes are
tiny control tuples.

Matrices never enter the plane -- they are shipped exactly once at
``attach`` time; see :mod:`repro.runtime.processes`.
"""

from __future__ import annotations

import contextlib
from multiprocessing import resource_tracker, shared_memory

import numpy as np

__all__ = ["SharedVectorPlane"]


@contextlib.contextmanager
def _untracked_attach():
    """Suppress resource-tracker registration while attaching a segment.

    Only the *creator* of a segment should own its tracker entry.
    Python < 3.13 registers attachers too; depending on the start method
    the attacher either shares the creator's tracker (an ``unregister``
    there would strip the creator's entry and make its ``unlink`` fail)
    or runs its own (which would unlink the segment when the attacher
    exits, under the creator's feet).  Not registering at all is the
    behaviour ``track=False`` standardises in 3.13.
    """
    original = resource_tracker.register
    resource_tracker.register = lambda name, rtype: None
    try:
        yield
    finally:
        resource_tracker.register = original


class SharedVectorPlane:
    """A named shared-memory arena of fixed-shape float64 slots.

    Parameters
    ----------
    shapes:
        One array shape per slot (``(m,)`` or ``(m, k)``).
    name:
        Segment name to attach to; ``None`` creates a fresh segment.
    create:
        Whether to create (and own) the segment or attach to an existing
        one.  The creator calls :meth:`unlink`; attachers only
        :meth:`close`.
    """

    def __init__(
        self,
        shapes: list[tuple[int, ...]],
        *,
        name: str | None = None,
        create: bool = True,
    ):
        self.shapes = [tuple(int(s) for s in shape) for shape in shapes]
        counts = [int(np.prod(shape)) for shape in self.shapes]
        if create:
            self._shm = shared_memory.SharedMemory(
                name=name, create=True, size=max(8 * sum(counts), 8)
            )
        else:
            with _untracked_attach():
                self._shm = shared_memory.SharedMemory(name=name, create=False)
        self._owner = create
        # Built once: a slot access is on the per-round path, and
        # ``frombuffer`` + ``reshape`` cost several times the copy of a
        # thin halo.  (A zero-size slot -- an empty halo -- is fine.)
        offsets = 8 * np.cumsum([0] + counts[:-1])
        self._slots = [
            np.frombuffer(
                self._shm.buf, dtype=np.float64, count=count, offset=int(offset)
            ).reshape(shape)
            for shape, count, offset in zip(self.shapes, counts, offsets)
        ]

    @property
    def name(self) -> str:
        """Segment name workers attach to."""
        return self._shm.name

    def slot(self, i: int) -> np.ndarray:
        """Zero-copy view of slot ``i`` (drop it before :meth:`close`)."""
        return self._slots[i]

    def write(self, i: int, values: np.ndarray) -> None:
        """Copy ``values`` into slot ``i`` (shape-checked)."""
        view = self._slots[i]
        if values.shape != view.shape:
            raise ValueError(f"slot {i} holds {view.shape}, got {values.shape}")
        view[...] = values

    def read(self, i: int) -> np.ndarray:
        """Materialised copy of slot ``i`` (safe to keep across writes)."""
        return self._slots[i].copy()

    def close(self) -> None:
        """Release this process's mapping (the segment survives)."""
        self._slots = []  # the mapping cannot close under live views
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (creator only; idempotent)."""
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double unlink
                pass
            self._owner = False
