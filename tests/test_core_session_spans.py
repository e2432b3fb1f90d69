"""Fold in place: ``RunSession``'s spans against the index-array fold.

The session resolves each ``J_k``, each ``core_k`` and each
core-inside-piece selector to a ``slice`` when it is a run of
consecutive integers and folds / assembles / monitors through views and
one scratch.  The index-array implementation it replaced lives here as
the reference; everything a schedule or a callback can see must be equal
to it bit for bit.
"""

import numpy as np
import pytest

from repro.core import (
    StoppingCriterion,
    interleaved_partition,
    make_weighting,
    permuted_bands,
    uniform_bands,
)
from repro.core.session import RunSession, _span
from repro.direct import get_solver
from repro.linalg.norms import max_norm
from repro.matrices import poisson_1d

N = 48

# Round 2's pieces carry NaN and inf on purpose.
pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered")


class IndexArraySession(RunSession):
    """``fold`` / ``assemble`` / the diff monitor as they were: gathers and
    scatters through the partition's index arrays, a fresh temporary each."""

    def fold(self, l, piece_of):
        z = np.zeros(self.b.shape)
        sets = self.partition.sets
        for k, w in self.weights[l].items():
            z[sets[k]] += w * piece_of(k)
        return z

    def assemble(self, pieces):
        x = np.empty(self.b.shape)
        for J, core, piece in zip(self.partition.sets, self.partition.core, pieces):
            x[core] = piece[np.isin(J, core)]
        return x

    def observe(self, it, pieces, **mark):
        x = self.assemble(pieces)
        value = max_norm(x - self.x)
        self.history.append(value)
        self.x, self.iterations = x, it
        if self.callback is not None:
            self.callback(it, x)
        return self.state.observe(value)


def _partition(shape: str):
    if shape == "band":
        return uniform_bands(N, 4).to_general()
    if shape == "schwarz":
        return uniform_bands(N, 4, overlap=3).to_general()
    if shape == "interleaved":
        return interleaved_partition(N, 4, chunk=2, overlap=1)
    return permuted_bands(np.random.default_rng(3).permutation(N), 4, overlap=2)


def _rounds(partition, k: int, order: str, rounds: int = 3):
    """Seeded pieces per round; round 2 holds NaN, inf and -0.0."""
    rng = np.random.default_rng(k)
    out = []
    for r in range(rounds):
        pieces = []
        for J in partition.sets:
            p = rng.uniform(-1.0, 1.0, (J.size, k) if k > 1 else (J.size,))
            if r == 1:
                flat = p.reshape(-1)
                flat[0], flat[1], flat[2], flat[-1] = np.nan, np.inf, -0.0, -np.inf
            pieces.append(np.asarray(p, order=order))
        out.append(pieces)
    return out


def _same_bits(a: np.ndarray, b: np.ndarray) -> None:
    """``array_equal`` with NaN == NaN, and -0.0 told apart from 0.0."""
    assert a.shape == b.shape
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(np.signbit(a), np.signbit(b))


def _value_equal(a: float, b: float) -> bool:
    return a == b or (np.isnan(a) and np.isnan(b))


@pytest.mark.parametrize("with_callback", [False, True])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("weighting", ["ownership", "averaging", "schwarz"])
@pytest.mark.parametrize("shape", ["band", "schwarz", "interleaved", "permuted"])
def test_fold_assemble_and_history_bit_for_bit(shape, weighting, k, order, with_callback):
    partition = _partition(shape)
    A = poisson_1d(N)
    b = np.ones((N, k)) if k > 1 else np.ones(N)
    seen: dict[str, list] = {"new": [], "ref": []}

    def session(cls, key):
        callback = (lambda it, x: seen[key].append((it, x))) if with_callback else None
        return cls(
            A, b, partition, make_weighting(weighting, partition), get_solver("scipy"),
            stopping=StoppingCriterion(), callback=callback,
        )

    new, ref = session(RunSession, "new"), session(IndexArraySession, "ref")
    assert new._one_fold == ref._one_fold
    for it, pieces in enumerate(_rounds(partition, k, order), start=1):
        for l in range(partition.nprocs):
            _same_bits(new.fold(l, pieces.__getitem__), ref.fold(l, pieces.__getitem__))
        for z_new, z_ref in zip(new.fold_round(pieces), ref.fold_round(pieces)):
            _same_bits(z_new, z_ref)
        _same_bits(new.assemble(pieces), ref.assemble(pieces))
        assert new.observe(it, pieces) == ref.observe(it, pieces)
        _same_bits(new.x, ref.x)
        assert _value_equal(new.history[-1], ref.history[-1])
    assert len(new.history) == 3 and np.isnan(new.history[1])
    if with_callback:
        # Callbacks may keep what they are given: a distinct array every
        # round, never the session's scratch.
        xs = [x for _, x in seen["new"]]
        assert [it for it, _ in seen["new"]] == [1, 2, 3]
        assert len({id(x) for x in xs}) == 3
        assert not any(np.shares_memory(x, new._diff) for x in xs)
        for x, x_ref in zip(xs, (x for _, x in seen["ref"])):
            _same_bits(x, x_ref)


def test_zero_column_batch_still_reads_zero():
    # max_norm of an empty array is 0.0 (np.max would raise): a batch of no
    # right-hand sides converges in one round with history [0.0].
    partition = _partition("band")
    run = RunSession(
        poisson_1d(N), np.ones((N, 0)), partition,
        make_weighting("ownership", partition), get_solver("scipy"),
        stopping=StoppingCriterion(),
    )
    run.observe(1, [np.ones((J.size, 0)) for J in partition.sets])
    assert run.history == [0.0] and run.x.shape == (N, 0)


class TestSpan:
    def test_consecutive_run_is_a_slice(self):
        assert _span(np.arange(5, 12)) == slice(5, 12)
        assert _span(np.array([7])) == slice(7, 8)
        assert _span(np.array([0, 1])) == slice(0, 2)

    @pytest.mark.parametrize(
        "idx",
        [
            [0, 2, 4, 6],  # interleaved
            [3, 4, 6, 7],  # a single gap
            [3, 4, 5, 7],  # a gap at the end
            [],
        ],
    )
    def test_anything_else_stays_the_index_array(self, idx):
        idx = np.array(idx, dtype=np.int64)
        assert _span(idx) is idx

    def test_session_picks_per_index_set(self):
        for shape, sliced in (("band", True), ("schwarz", True),
                              ("interleaved", False), ("permuted", False)):
            partition = _partition(shape)
            run = RunSession(
                poisson_1d(N), np.ones(N), partition,
                make_weighting("ownership", partition), get_solver("scipy"),
                stopping=StoppingCriterion(),
            )
            spans = run._sets + run._core + run._core_sel
            assert all(isinstance(s, slice) for s in spans) == sliced, shape
            for J, core, sel in zip(partition.sets, partition.core, run._core_sel):
                np.testing.assert_array_equal(J[sel], core)
