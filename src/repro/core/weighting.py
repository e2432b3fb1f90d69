"""Weighting matrices ``E_lk`` (equations (3)-(4) and Section 4).

The fixed-point formalism combines the processors' solutions through
diagonal non-negative matrices ``E_lk`` with ``sum_k E_lk = I`` and
``(E_lk)_ii = 0`` for ``i`` outside ``J_k`` (a processor can only
contribute components it computes).  Choosing the family reproduces the
known algorithms (Section 4):

* ``E_lk = diag(1 on core_k)`` independent of ``l``
  -> **block Jacobi** (disjoint) and, with overlap, the *restricted*
  O'Leary-White combination (:class:`OwnershipWeighting`);
* ``E_lk = E_k`` with a partition of unity spread over the overlaps
  -> **O'Leary-White multisplitting** (:class:`AveragingWeighting`);
* ``E_ll = I on J_l`` and ``E_lk = E_k`` outside ``J_l``
  -> the **discrete multisubdomain Schwarz** method
  (:class:`SchwarzWeighting`).

A scheme is consumed two ways: the *solvers* ask for per-processor update
weights (how rank ``l`` folds an incoming piece ``x^k|J_k`` into its local
copy ``z^l``), and the *theory module* materialises the literal ``E_lk``
matrices to build the extended fixed-point operator and check conditions
(4).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.partition import GeneralPartition

__all__ = [
    "WeightingScheme",
    "BlockJacobiWeighting",
    "OwnershipWeighting",
    "AveragingWeighting",
    "SchwarzWeighting",
    "make_weighting",
    "validate_weighting",
]


class WeightingScheme(abc.ABC):
    """Family of weighting matrices ``E_lk`` over a partition."""

    def __init__(self, partition: GeneralPartition):
        self.partition = partition
        #: update_weights(l), kept: a scheme is a pure function of its
        #: partition, and one kept across solves (the serving pool's
        #: tenants) derives its L^2 weight vectors once.
        self._updates: dict[int, dict[int, np.ndarray]] = {}

    @abc.abstractmethod
    def weight_vector(self, l: int, k: int) -> np.ndarray:
        """Return ``diag(E_lk)`` restricted to ``J_k`` (length ``|J_k|``).

        ``l`` is the combining processor, ``k`` the producing one.
        """

    def matrix(self, l: int, k: int) -> np.ndarray:
        """Materialise ``diag(E_lk)`` as a full length-``n`` vector."""
        out = np.zeros(self.partition.n)
        out[self.partition.sets[k]] = self.weight_vector(l, k)
        return out

    def update_weights(self, l: int) -> dict[int, np.ndarray]:
        """Per-source update weights for processor ``l``'s local copy.

        Returns ``{k: w}`` for every ``k`` (including ``l`` itself) with a
        non-zero contribution; ``w`` has length ``|J_k|``.  The solver
        implements ``z^l = sum_k E_lk x^k`` as, for each arriving piece,
        ``z^l[J_k][w > 0] = contribution`` -- since the weights sum to one
        per component, applying each piece's weighted part and summing is
        exact when all pieces of a component arrive; components with a
        single contributor are simply overwritten.

        Computed on first request and kept on the scheme; the returned
        dict and its arrays are shared by every caller -- read them only.
        """
        out = self._updates.get(l)
        if out is None:
            out = {}
            for k in range(self.partition.nprocs):
                w = self.weight_vector(l, k)
                if np.any(w != 0.0):
                    out[k] = w
            self._updates[l] = out
        return out


class OwnershipWeighting(WeightingScheme):
    """Every component taken from its *core owner* (independent of ``l``).

    With a disjoint partition this is exactly block Jacobi; with overlap it
    is the restricted (RAS-style) combination: processors still solve the
    extended systems, but only owner values circulate.  It is an
    O'Leary-White family (``E_lk = E_k`` with ``E_k`` the core indicator).
    """

    def weight_vector(self, l: int, k: int) -> np.ndarray:
        J = self.partition.sets[k]
        w = np.zeros(J.size)
        w[np.isin(J, self.partition.core[k])] = 1.0
        return w


class BlockJacobiWeighting(OwnershipWeighting):
    """Strict block Jacobi: requires a disjoint partition (``J_l = core_l``).

    Kept as a distinct class so tests can assert the Section-4 equivalence
    explicitly; construction fails when overlap is present.
    """

    def __init__(self, partition: GeneralPartition):
        for l, (J, C) in enumerate(zip(partition.sets, partition.core)):
            if J.size != C.size or not np.array_equal(J, C):
                raise ValueError(
                    f"BlockJacobiWeighting requires disjoint J_l (processor {l} overlaps)"
                )
        super().__init__(partition)


class AveragingWeighting(WeightingScheme):
    """O'Leary-White partition of unity: ``E_lk = E_k``, weights ``1/m_i``.

    Component ``i`` receives weight ``1/multiplicity(i)`` from every
    processor whose extended set contains it.  In overlap regions the
    combined iterate is the average of the overlapping solves -- the
    classical multisplitting combination of O'Leary & White [13].
    """

    def __init__(self, partition: GeneralPartition):
        super().__init__(partition)
        self._mult = partition.multiplicity().astype(float)

    def weight_vector(self, l: int, k: int) -> np.ndarray:
        J = self.partition.sets[k]
        return 1.0 / self._mult[J]


class SchwarzWeighting(WeightingScheme):
    """Discrete multisubdomain Schwarz (Section 4.3).

    ``(E_ll)_ii = 1`` for ``i in J_l`` (a processor trusts its own solve on
    the whole extended band, overlap included) and for ``i`` outside
    ``J_l`` the component comes from its core owner (``(E_lk)_ii =
    (E_k)_ii`` with ``E_k`` the ownership indicator).
    """

    def __init__(self, partition: GeneralPartition):
        super().__init__(partition)
        self._owner = partition.owner_of()

    def weight_vector(self, l: int, k: int) -> np.ndarray:
        J_k = self.partition.sets[k]
        J_l = self.partition.sets[l]
        in_l = np.isin(J_k, J_l)
        if k == l:
            return in_l.astype(float)  # all ones: J_l trusted wholesale
        w = np.zeros(J_k.size)
        outside = ~in_l
        w[outside & (self._owner[J_k] == k)] = 1.0
        return w


_SCHEMES = {
    "ownership": OwnershipWeighting,
    "block-jacobi": BlockJacobiWeighting,
    "averaging": AveragingWeighting,
    "schwarz": SchwarzWeighting,
}


def make_weighting(name: str, partition: GeneralPartition) -> WeightingScheme:
    """Instantiate a scheme by name (``ownership``/``block-jacobi``/
    ``averaging``/``schwarz``)."""
    try:
        cls = _SCHEMES[name]
    except KeyError:
        raise KeyError(f"unknown weighting {name!r}; known: {sorted(_SCHEMES)}") from None
    return cls(partition)


def validate_weighting(scheme: WeightingScheme, *, atol: float = 1e-12) -> None:
    """Check conditions (4): non-negativity, support, partition of unity.

    Raises
    ------
    ValueError
        With a description of the first violated condition.
    """
    part = scheme.partition
    n, L = part.n, part.nprocs
    for l in range(L):
        total = np.zeros(n)
        for k in range(L):
            w = scheme.weight_vector(l, k)
            if w.shape != (part.sets[k].size,):
                raise ValueError(f"E[{l},{k}]: wrong support size")
            if np.any(w < -atol):
                raise ValueError(f"E[{l},{k}]: negative weights")
            total[part.sets[k]] += w
        if not np.allclose(total, 1.0, atol=1e-9):
            bad = int(np.argmax(np.abs(total - 1.0)))
            raise ValueError(
                f"sum_k E[{l},k] != I at component {bad}: {total[bad]:.6f}"
            )
