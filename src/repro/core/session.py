"""The run session: what every in-process schedule shares.

The paper's Algorithm 1 is one iteration body -- solve ``A[J_l, J_l]``
against the local copy, exchange ``XSub``, recombine with the weighting
family -- run under different *schedules* (barrier, bounded-delay
chaotic).  A :class:`RunSession` is the part that does not depend on
the schedule:

* the binding -- resolve the executor and the tracer, validate ``x0``
  *before* any side effect, install the tracer, ``attach``, build the
  elastic controller; and on every exit path ``detach``, remove the
  tracer, close an executor the session created;
* three primitives over that binding -- :meth:`~RunSession.fold` (the
  local-copy combine ``z^l = sum_k E_lk piece_k``; a barrier round's
  ``L`` of them are :meth:`~RunSession.fold_round`),
  :meth:`~RunSession.observe` ("a round was folded": assemble the core
  iterate, monitor value, history, callback, stop test) and
  :meth:`~RunSession.result` (the one :class:`SolveResult` assembly).

A schedule is then a plain function over the session that decides *which
pieces feed which fold, and when* -- and keeps its own stop rule.
``observe`` is the single "round folded" point; run-time monitors
(contraction estimates, convergence telemetry) hook in there.
"""

from __future__ import annotations

import numpy as np

from repro.core.result import STATUS_MAXITER, STATUS_OK, SolveResult
from repro.core.stopping import observed_contraction
from repro.linalg.norms import residual_norm
from repro.observe import resolve_trace

__all__ = ["RunSession"]


def _span(idx: np.ndarray):
    """``idx`` as a ``slice`` when it is a run of consecutive integers.

    Bands and Schwarz sets are; interleaved and permuted ones are not and
    keep their index array.  Either selects the same elements in the same
    order, but a slice is a view: no gather, no scatter, no temporary.
    """
    if idx.size and np.all(np.diff(idx) == 1):
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _resolve_executor(executor):
    """Default to the serial backend; report whether we own its lifecycle."""
    if executor is None:
        # Imported lazily: repro.runtime builds on repro.core, so a
        # module-level import here would be circular.
        from repro.runtime.inline import InlineExecutor

        return InlineExecutor(), True
    return executor, False


def _resolve_elastic(elastic, ex, nblocks: int, tracer):
    """Build the per-run elastic controller (or rebase a pre-built one).

    ``elastic`` is ``None``, ``False``, ``True`` or a
    :class:`repro.schedule.ElasticController`.  Membership is a fleet's
    alone, so any executor but a fleet or a chaos wrapper of one
    (inline, threads, a wrapper of either) gets no controller: the run
    is the plain barrier.  Called *after* attach on purpose: the
    controller takes the executor's membership version and
    block-seconds baseline as "unchanged" then, so the version bump of
    attach itself (or of a previous run) never reads as churn.
    """
    if elastic is None or elastic is False:
        return None
    # Lazy: repro.runtime and repro.schedule build on repro.core.
    from repro.runtime.resilience import has_fleet
    from repro.schedule.elastic import ElasticController

    if not has_fleet(ex):
        return None
    if isinstance(elastic, ElasticController):
        elastic.rebase()
        return elastic
    return ElasticController(ex, nblocks, tracer=tracer)


class RunSession:
    """One attached run of the multisplitting iteration (a context manager).

    Construction validates and resolves but touches nothing; entering
    binds the executor; leaving unwinds the binding whatever happened in
    between.  Attributes the schedules read: ``ex`` (the attached
    executor), ``tracer``, ``b``, ``z0`` (start vector), ``nblocks``,
    ``stopping``, ``state`` (its streak tracker), ``controller`` (the
    elastic controller or ``None``), and the monitor's running outputs
    ``x`` / ``iterations`` / ``history``.
    """

    def __init__(
        self, A, b, partition, weighting, solver, *, stopping, x0=None,
        callback=None, cache=None, executor=None, placement=None,
        fault_policy=None, trace=None, elastic=None,
    ):
        self.A = A
        self.b = b = np.asarray(b, dtype=float)
        self.z0 = np.zeros(b.shape) if x0 is None else np.asarray(x0, dtype=float).copy()
        if self.z0.shape != b.shape:
            raise ValueError(f"x0 must have shape {b.shape}")
        self.partition = partition
        self.weighting = weighting
        self.stopping = stopping
        self.callback = callback
        self.nblocks = L = partition.nprocs
        self.ex, self._owns_executor = _resolve_executor(executor)
        self.tracer = resolve_trace(trace)
        self._solver, self._cache, self._elastic = solver, cache, elastic
        self._placement, self._fault_policy = placement, fault_policy
        batched = b.ndim == 2
        #: weights[l][k]: E_lk's diagonal over J_k, shaped to broadcast
        #: against block k's piece.
        self.weights = [
            {k: w[:, None] if batched else w
             for k, w in weighting.update_weights(l).items()}
            for l in range(L)
        ]
        #: ``E_lk = E_k`` (ownership, O'Leary-White averaging, Schwarz
        #: without overlap): every block folds the same terms in the same
        #: order, so a barrier round has one local copy, not ``L``.
        self._one_fold = all(
            list(w) == list(self.weights[0])
            and all(np.array_equal(w[k], w0) for k, w0 in self.weights[0].items())
            for w in self.weights[1:]
        )
        #: Per block: where ``J_l`` sits in a full-length vector, where
        #: ``core_l`` does, and where ``core_l`` sits inside a piece over
        #: ``J_l`` (both sorted, core a subset) -- slices where they can be.
        self._sets = [_span(J) for J in partition.sets]
        self._core = [_span(C) for C in partition.core]
        self._core_sel = [
            _span(np.searchsorted(J, C)) for J, C in zip(partition.sets, partition.core)
        ]
        #: The diff monitor's one full-length temporary.
        self._diff = np.empty(b.shape)
        self.state = stopping.new_state()
        self.controller = None
        self.x = self.z0.copy()
        self.iterations = 0
        self.history: list[float] = []

    def __enter__(self) -> "RunSession":
        try:
            if self.tracer is not None:
                self.ex.set_tracer(self.tracer)
                if self._cache is not None:
                    self._cache.set_tracer(self.tracer)
            self.ex.attach(
                self.A, self.b, self.partition.sets, self._solver, cache=self._cache,
                placement=self._placement, fault_policy=self._fault_policy,
            )
            self.controller = _resolve_elastic(
                self._elastic, self.ex, self.nblocks, self.tracer
            )
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.ex.detach()
        if self.tracer is not None:
            self.ex.set_tracer(None)
            if self._cache is not None:
                self._cache.set_tracer(None)
        if self._owns_executor:
            self.ex.close()

    # -- the iteration body ----------------------------------------------
    def fold(self, l: int, piece_of) -> np.ndarray:
        """Block ``l``'s local copy ``z^l = sum_k E_lk piece_k``.

        ``piece_of(k)`` supplies the piece of block ``k`` this fold
        reads -- the current round's, a stale one, the latest published;
        that choice is the schedule.  It is called once per term, in the
        weighting family's term order.  Each term is added in place
        through ``J_k``'s span (a view of ``z`` for a contiguous set);
        ``z`` itself is a fresh array, which the chaotic schedule keeps
        in flight.
        """
        z = np.zeros(self.b.shape)
        sets = self._sets
        for k, w in self.weights[l].items():
            z[sets[k]] += w * piece_of(k)
        return z

    def fold_round(self, pieces) -> list[np.ndarray]:
        """Every block's local copy after a barrier round of ``pieces``.

        When the weighting does not depend on the reader the ``L``
        copies are one array: it is folded once, marked read-only and
        handed to every block (executors only read their ``z``).
        Otherwise each block folds its own.
        """
        if not self._one_fold:
            return [self.fold(l, pieces.__getitem__) for l in range(self.nblocks)]
        z = self.fold(0, pieces.__getitem__)
        z.flags.writeable = False
        return [z] * self.nblocks

    def assemble(self, pieces) -> np.ndarray:
        """The global estimate from the owned (core) components.

        Always a fresh array (callbacks may keep it); each core is copied
        straight from its piece through the spans resolved at
        construction.
        """
        x = np.empty(self.b.shape)
        for core, sel, piece in zip(self._core, self._core_sel, pieces):
            x[core] = piece[sel]
        return x

    def round(self, it: int, solve, tasks, **args):
        """Run one closed batch of block solves under round ``it``'s span."""
        tracer = self.tracer
        if tracer is None:
            return solve(tasks)
        t0 = tracer.now()
        pieces = solve(tasks)
        tracer.add(
            "round", "round", t0, tracer.now() - t0, lane="driver", round=it, **args
        )
        return pieces

    def observe(self, it: int, pieces) -> bool:
        """Round ``it`` was folded: monitor it and run the stop test.

        Assembles the core iterate, appends the monitor value (per
        ``stopping.metric``) to ``history``, calls the callback, and
        returns the stopping rule's flag.
        """
        x = self.assemble(pieces)
        if self.stopping.metric == "residual":
            value = residual_norm(self.A, x, self.b)
        else:
            # max_norm(x - self.x), term for term, in the session's scratch.
            d = np.subtract(x, self.x, out=self._diff)
            value = float(np.abs(d, out=d).max()) if d.size else 0.0
        self.history.append(value)
        self.x, self.iterations = x, it
        if self.callback is not None:
            self.callback(it, x)
        return self.state.observe(value)

    def residual_threshold(self) -> float:
        """Scale-invariant bound ``tol * max(1, ||A||_inf)`` on a true residual.

        Near the fixed point ``||r|| <= ||A|| ||x - x*||``, so a stop
        verified against this bound means what the tolerance says
        however ``A`` is scaled.
        """
        row_sums = np.abs(self.A).sum(axis=1)
        norm_A = float(np.max(np.asarray(row_sums))) if self.partition.n else 0.0
        return self.stopping.tolerance * max(1.0, norm_A)

    def result(self, converged: bool) -> SolveResult:
        """Assemble the run's :class:`SolveResult` (call while attached).

        Reports what the session measured: the monitor's last iterate,
        count and history, and the executor's counters.
        """
        ex, plan = self.ex, self._placement
        return SolveResult(
            x=self.x,
            converged=converged,
            status=STATUS_OK if converged else STATUS_MAXITER,
            iterations=self.iterations,
            residual=residual_norm(self.A, self.x, self.b),
            nprocs=self.nblocks,
            history=self.history,
            contraction=observed_contraction(self.history),
            cache_stats=ex.run_cache_stats(),
            fault_stats=ex.fault_stats(),
            backend=ex.name,
            block_seconds=ex.block_seconds(),
            wire=ex.wire_stats(),
            placement=plan.summary() if plan is not None else None,
            trace=self.tracer,
        )
