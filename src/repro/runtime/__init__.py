"""``repro.runtime`` -- real parallel execution behind a pluggable API.

The rest of the package describes *what* the multisplitting method
computes (``repro.core``) and *how a grid would price it*
(``repro.grid``); this subsystem is where sub-block solves actually
execute.  Four interchangeable backends implement the
:class:`Executor` contract:

======================  =============================================
``"inline"``            serial, on the calling thread -- the
                        bit-identical baseline
``"threads"``           per-block tasks on a persistent thread pool
                        (kernels release the GIL inside
                        BLAS/LAPACK/SuperLU)
``"processes"``         worker processes; matrices shipped once,
                        vectors exchanged via shared memory
``"sockets"``           worker processes over TCP -- possibly on
                        other machines; matrices shipped once per
                        attach, vectors exchanged per round
======================  =============================================

``"processes"`` and ``"sockets"`` are one fleet protocol
(:mod:`repro.runtime.fleet`) over two transports.

Select one by name (:func:`get_executor`), through the
``backend=`` option of :class:`repro.core.solver.MultisplittingSolver`,
or by passing an instance to the ``executor=`` parameter of the core
drivers.  The asynchronous mode runs over any of them as
:func:`repro.core.sequential.chaotic_iterate` (seeded bounded delays,
deterministic on every backend); the grid simulator prices it as
:func:`repro.core.asynchronous.run_asynchronous`.
"""

from __future__ import annotations

from repro.runtime.api import Executor
from repro.runtime.inline import InlineExecutor
from repro.runtime.processes import ProcessExecutor
from repro.runtime.resilience import (
    ChaosExecutor,
    CrashOnceSolver,
    FaultInjector,
    FaultPolicy,
    FaultStats,
    FlakySolver,
    StallOnceSolver,
    StragglerSolver,
)
from repro.runtime.shm import SharedVectorPlane
from repro.runtime.sockets import SocketExecutor, serve_worker
from repro.runtime.threads import ThreadExecutor
from repro.runtime.wire import BufferPool, FrameError, recv_frame, send_frame

__all__ = [
    "BufferPool",
    "ChaosExecutor",
    "CrashOnceSolver",
    "Executor",
    "FaultInjector",
    "FaultPolicy",
    "FaultStats",
    "FlakySolver",
    "FrameError",
    "InlineExecutor",
    "ProcessExecutor",
    "SharedVectorPlane",
    "SocketExecutor",
    "StallOnceSolver",
    "StragglerSolver",
    "ThreadExecutor",
    "recv_frame",
    "send_frame",
    "available_backends",
    "get_executor",
    "serve_worker",
]

_BACKENDS: dict[str, type[Executor]] = {
    "inline": InlineExecutor,
    "threads": ThreadExecutor,
    "processes": ProcessExecutor,
    "sockets": SocketExecutor,
}


def available_backends() -> list[str]:
    """Names accepted by :func:`get_executor` (and ``backend=`` options)."""
    return sorted(_BACKENDS)


def get_executor(backend: "str | Executor", **kwargs) -> Executor:
    """Instantiate an execution backend by name.

    An :class:`Executor` *instance* passes through unchanged (``kwargs``
    must then be empty), so every ``backend=`` option accepts either
    form.
    """
    if isinstance(backend, Executor):
        if kwargs:
            raise ValueError("kwargs are only valid with a backend name")
        return backend
    try:
        cls = _BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown runtime backend {backend!r}; available: {available_backends()}"
        ) from None
    return cls(**kwargs)
