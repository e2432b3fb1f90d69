"""The placement/scheduling subsystem: plans, planners, calibration.

Covers the tentpole invariants:

* :func:`cost_balanced_bands` equalises estimated per-band time, not
  row counts -- faster workers get more rows, comm-taxed workers fewer;
* a :class:`Placement` validates itself, lowers to the exact
  :class:`BandPartition` it prescribes, and round-trips its summary;
* cluster plans read host speeds and sites from the topology, and the
  ``"calibrated"`` strategy shrinks the bands that sit behind the WAN;
* live calibration measures relative worker speeds through the public
  Executor contract, and the same plan drives both the simulated host
  mapping and the real executors (shared-plan end-to-end checks).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import make_weighting, multisplitting_iterate, run_synchronous
from repro.core.distributed import placement_for
from repro.core.partition import cost_balanced_bands, proportional_bands
from repro.direct import get_solver
from repro.grid import cluster1, cluster2, cluster3
from repro.matrices import diagonally_dominant, rhs_for_solution
from repro.runtime import InlineExecutor, ThreadExecutor
from repro.schedule import (
    Placement,
    WorkerSlot,
    calibrated_placement,
    cluster_placement,
    cost_model_placement,
    iteration_cost_model,
    measure_worker_speeds,
    proportional_placement,
    uniform_placement,
)


def _problem(n=96, L=4, seed=5):
    A = diagonally_dominant(n, dominance=1.5, bandwidth=4, seed=seed)
    b, _ = rhs_for_solution(A, seed=seed + 1)
    return A, b


class TestCostBalancedBands:
    def test_equal_speeds_near_uniform(self):
        band = cost_balanced_bands(100, [1.0, 1.0, 1.0, 1.0])
        sizes = [stop - start for start, stop in band.bounds]
        assert sum(sizes) == 100
        assert max(sizes) - min(sizes) <= 1

    def test_linear_cost_tracks_speed_ratios(self):
        band = cost_balanced_bands(300, [1.0, 2.0])
        sizes = [stop - start for start, stop in band.bounds]
        assert sizes[1] == pytest.approx(2 * sizes[0], rel=0.05)

    def test_fixed_comm_cost_shrinks_taxed_band(self):
        """Two equal workers, one behind an expensive link: its band
        shrinks so compute absorbs the fixed communication charge."""
        free = cost_balanced_bands(200, [1.0, 1.0])
        taxed = cost_balanced_bands(
            200, [1.0, 1.0], cost=lambda s: float(s), fixed=[0.0, 50.0]
        )
        free_sizes = [stop - start for start, stop in free.bounds]
        taxed_sizes = [stop - start for start, stop in taxed.bounds]
        assert taxed_sizes[1] < free_sizes[1]
        assert sum(taxed_sizes) == 200

    def test_superlinear_cost_flattens_spread(self):
        """With cost ~ s^3 (dense kernels) the size spread between fast
        and slow workers is much smaller than the raw speed ratio."""
        cubic = cost_balanced_bands(300, [1.0, 8.0], cost=lambda s: float(s) ** 3)
        sizes = [stop - start for start, stop in cubic.bounds]
        assert sizes[1] < 2.5 * sizes[0]  # cube root of 8, not 8x

    def test_every_band_nonempty_and_validated(self):
        band = cost_balanced_bands(10, [1e-6, 1.0, 1.0], fixed=[5.0, 0.0, 0.0])
        sizes = [stop - start for start, stop in band.bounds]
        assert min(sizes) >= 1 and sum(sizes) == 10
        with pytest.raises(ValueError):
            cost_balanced_bands(3, [1.0] * 5)
        with pytest.raises(ValueError):
            cost_balanced_bands(10, [1.0, -1.0])
        with pytest.raises(ValueError):
            cost_balanced_bands(10, [1.0, 1.0], fixed=[0.0])


class TestPlacementPlan:
    def test_partition_round_trip(self):
        plan = proportional_placement(100, [1.0, 3.0], overlap=2)
        part = plan.partition()
        assert part.n == 100 and part.overlap == 2
        assert [stop - start for start, stop in part.bounds] == list(plan.sizes)
        # matches the classic builder exactly (legacy compatibility)
        legacy = proportional_bands(100, [1.0, 3.0], overlap=2)
        assert part.bounds == legacy.bounds

    def test_validation(self):
        w = (WorkerSlot(name="a"), WorkerSlot(name="b"))
        with pytest.raises(ValueError, match="cover"):
            Placement(strategy="x", n=10, workers=w, sizes=(4, 4), assignment=(0, 1))
        with pytest.raises(ValueError, match="assignment"):
            Placement(strategy="x", n=10, workers=w, sizes=(5, 5), assignment=(0,))
        with pytest.raises(ValueError, match="unknown worker"):
            Placement(strategy="x", n=10, workers=w, sizes=(5, 5), assignment=(0, 2))
        with pytest.raises(ValueError, match="speed"):
            WorkerSlot(name="bad", speed=0.0)

    def test_summary_and_groups(self):
        plan = Placement(
            strategy="hand",
            n=12,
            workers=(
                WorkerSlot(name="a", group="siteA"),
                WorkerSlot(name="b", group="siteA"),
                WorkerSlot(name="c", group="siteB"),
            ),
            sizes=(4, 4, 4),
            assignment=(0, 1, 2),
        )
        assert plan.colocation_groups() == {"siteA": [0, 1], "siteB": [2]}
        s = plan.summary()
        assert s["strategy"] == "hand" and s["sizes"] == [4, 4, 4]
        assert plan.worker_of(2).name == "c"


class TestGeneralPlans:
    """Placement.layout: plans that schedule arbitrary index sets."""

    def _part(self, n=40, L=4):
        from repro.core.partition import interleaved_partition

        return interleaved_partition(n, L, chunk=2)

    def test_with_layout_round_trip(self):
        part = self._part()
        plan = uniform_placement(40, 4).with_layout(part)
        assert plan.partition() is part
        assert plan.partition().to_general() is part
        assert plan.sizes == tuple(int(c.size) for c in part.core)
        assert plan.summary()["partition"] == "general"
        assert uniform_placement(40, 4).summary()["partition"] == "bands"

    def test_layout_validation(self):
        part = self._part()
        with pytest.raises(ValueError, match="core sizes"):
            Placement(
                strategy="x",
                n=40,
                workers=tuple(WorkerSlot(name=f"w{i}") for i in range(4)),
                sizes=(37, 1, 1, 1),
                assignment=(0, 1, 2, 3),
                layout=part,
            )
        with pytest.raises(ValueError, match="blocks"):
            uniform_placement(40, 2).with_layout(part)
        with pytest.raises(ValueError, match="overlap"):
            uniform_placement(40, 4).with_layout(part).partition(overlap=3)

    def test_partition_placement_over_cluster(self):
        from repro.schedule import partition_placement

        part = self._part()
        cluster = cluster3(4)
        plan = partition_placement(cluster, part)
        assert plan.layout is part
        assert plan.assignment == (0, 1, 2, 3)
        assert [w.name for w in plan.workers] == [
            h.name for h in cluster.hosts[:4]
        ]
        # calibrated: a deterministic one-block-per-host matching
        A, _ = _problem(n=40)
        cal = partition_placement(cluster, part, strategy="calibrated", A=A)
        assert sorted(cal.assignment) == [0, 1, 2, 3]
        again = partition_placement(cluster, part, strategy="calibrated", A=A)
        assert cal.assignment == again.assignment

    def test_cluster_placement_partition_kwarg(self):
        part = self._part()
        plan = cluster3(4).placement(40, strategy="proportional", partition=part)
        assert plan.layout is part
        assert plan.summary()["partition"] == "general"

    def test_schwarz_strategy_keeps_calibrated_sizes(self):
        """Schwarz is bands + overlap: a calibrated plan's cost-balanced
        core sizes must survive, only the extended sets grow."""
        from repro.core.solver import MultisplittingSolver

        A, b = _problem(n=200)
        cluster = cluster3(4)
        kwargs = dict(mode="synchronous", placement="calibrated")
        with MultisplittingSolver(4, **kwargs) as bands, MultisplittingSolver(
            4, partition_strategy="schwarz", weighting="schwarz", **kwargs
        ) as schwarz:
            r_band = bands.solve(A, b, cluster=cluster)
            r_schwarz = schwarz.solve(A, b, cluster=cluster)
        assert r_schwarz.converged
        assert r_schwarz.placement["sizes"] == r_band.placement["sizes"]
        assert r_schwarz.placement["partition"] == "general"

    def test_pattern_fixed_costs_feed_calibrated_bands(self):
        """cluster_placement(A=...) prices the real graph: a matrix whose
        long-range coupling taxes a band the nearest-neighbour formula
        thinks is cheap produces a different (pattern-aware) plan."""
        import scipy.sparse as sp

        n, L = 400, 4
        main = np.full(n, 4.0)
        off = np.full(n - 1, -1.0)
        A = sp.lil_matrix(sp.diags([off, main, off], offsets=(-1, 0, 1)))
        # band 0 reads strided columns everywhere: heavy fan-in the band
        # formula cannot see
        cols = list(range(150, n, 10))
        for r in range(0, 40, 2):
            A[r, cols] = -0.01
            A[r, r] += 0.01 * len(cols)
        A = A.tocsr()
        cluster = cluster3(L)
        blind = cluster_placement(cluster, L, strategy="calibrated", n=n)
        aware = cluster_placement(cluster, L, strategy="calibrated", n=n, A=A)
        assert sum(aware.sizes) == n
        assert aware.sizes != blind.sizes


class TestClusterPlacement:
    def test_proportional_matches_host_speeds(self):
        c = cluster2(8)
        plan = cluster_placement(c, 8, strategy="proportional", n=800)
        legacy = proportional_bands(800, [h.speed for h in c.hosts])
        assert plan.partition().bounds == legacy.bounds
        assert [w.name for w in plan.workers] == [h.name for h in c.hosts]
        assert set(plan.colocation_groups()) == {"site1"}

    def test_calibrated_shrinks_wan_boundary_bands(self):
        """On cluster3 the two bands straddling the inter-site link pay
        the WAN's latency+volume each iteration; the cost-model plan
        gives them fewer rows than raw speed proportionality would."""
        c = cluster3(10)
        prop = cluster_placement(c, 10, strategy="proportional", n=2000)
        cal = cluster_placement(c, 10, strategy="calibrated", n=2000)
        groups = cal.colocation_groups()
        assert set(groups) == {"siteA", "siteB"}
        boundary = len(groups["siteA"]) - 1  # last siteA worker
        for l in (boundary, boundary + 1):
            assert cal.sizes[l] < prop.sizes[l]

    def test_uniform_strategy(self):
        c = cluster1(5)
        plan = cluster_placement(c, 5, strategy="uniform", n=100)
        assert set(plan.sizes) == {20}

    def test_cluster_method_export(self):
        plan = cluster3(4).placement(400, strategy="calibrated")
        assert plan.strategy == "calibrated"
        assert plan.nblocks == 4

    def test_bad_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            cluster_placement(cluster1(2), 2, strategy="magic", n=10)


class TestPlacementForHosts:
    def test_plan_orders_hosts_by_name(self):
        c = cluster2(4)
        plan = cluster_placement(c, 4, strategy="proportional", n=100)
        hosts = placement_for(c, 4, plan=plan)
        assert [h.name for h in hosts] == [w.name for w in plan.workers]

    def test_generic_plan_falls_back_positional(self):
        c = cluster1(3)
        plan = uniform_placement(90, 3)  # generic worker names
        assert placement_for(c, 3, plan=plan) == c.hosts[:3]

    def test_block_count_mismatch_rejected(self):
        c = cluster1(3)
        plan = uniform_placement(90, 2)
        with pytest.raises(ValueError, match="placement"):
            placement_for(c, 3, plan=plan)

    def test_cross_topology_plan_rejected(self):
        """A plan that names SOME of the cluster's hosts but not all was
        built from a different topology; it must raise, not silently
        mis-map bands positionally."""
        from repro.grid import custom_cluster

        plan = cluster_placement(cluster2(4), 4, strategy="proportional", n=100)
        speed = cluster2(4).hosts[0].speed
        mixed = custom_cluster("mixed", {"site1": [speed] * 2, "siteZ": [speed] * 2})
        with pytest.raises(ValueError, match="another topology"):
            placement_for(mixed, 4, plan=plan)


class _HandicappedInline(InlineExecutor):
    """Inline executor whose slot ``l`` repeats each solve ``factor`` times
    (a deterministic stand-in for a slow / nice-d worker)."""

    def __init__(self, factors):
        super().__init__()
        self.factors = factors
        self.plan = None

    def attach(self, *args, placement=None, **kwargs):
        super().attach(*args, placement=placement, **kwargs)
        self.plan = placement  # the executor keeps no copy of its own

    def _timed_solve(self, l, z):
        worker = self.plan.assignment[l] if self.plan else l
        total = 0.0
        for _ in range(self.factors[worker]):
            piece, dt = super()._timed_solve(l, z)
            total += dt
        return piece, total


class _HandicappedThreads(ThreadExecutor):
    """Thread executor whose slot ``l`` repeats each solve ``factor`` times.

    The pool is no wider than the host: a thread more than there are
    cores is preempted for whole scheduler slices, milliseconds that
    land on whichever probe solve it was running.
    """

    def __init__(self, factors):
        super().__init__(max_workers=min(len(factors), os.cpu_count() or 1))
        self.factors = factors
        self.plan = None

    def attach(self, *args, placement=None, **kwargs):
        super().attach(*args, placement=placement, **kwargs)
        self.plan = placement  # the executor keeps no copy of its own

    def _timed_solve(self, l, z):
        worker = self.plan.assignment[l] if self.plan else l
        total = 0.0
        for _ in range(self.factors[worker]):
            piece, dt = super()._timed_solve(l, z)
            total += dt
        return piece, total


class TestCalibration:
    def test_default_probe_ranks_threaded_workers(self):
        """A probe solve too thin to outlast interpreter-lock hand-offs
        measures the hand-offs, not the workers; the default probe does not."""
        ex = _HandicappedThreads((1, 4, 16))
        try:
            speeds = measure_worker_speeds(ex, 3)
        finally:
            ex.close()
        assert speeds[0] > speeds[1] > speeds[2]

    def test_measured_speeds_rank_workers(self):
        ex = _HandicappedInline((1, 12))
        try:
            speeds = measure_worker_speeds(ex, 2, probe_size=192, repeats=4)
        finally:
            ex.close()
        assert len(speeds) == 2
        assert speeds[0] > speeds[1]
        assert np.isclose(np.mean(speeds), 1.0)

    def test_calibrated_plan_feeds_cost_model(self):
        ex = _HandicappedInline((1, 12))
        try:
            plan = calibrated_placement(ex, 400, 2, probe_size=192, repeats=4)
        finally:
            ex.close()
        assert plan.nblocks == 2 and sum(plan.sizes) == 400
        assert plan.sizes[0] > plan.sizes[1]  # slow worker gets fewer rows

    def test_probe_validation(self):
        ex = InlineExecutor()
        with pytest.raises(ValueError):
            measure_worker_speeds(ex, 0)
        with pytest.raises(ValueError):
            measure_worker_speeds(ex, 2, repeats=0)

    def test_poisoned_round_cannot_break_the_outlier_guard(self):
        """Regression: a NaN round delta (clock anomaly, worker restart
        mid-probe) used to poison the worker's median -- every comparison
        with NaN is False, the guard discarded *all* samples, and the
        mean divided by zero.  The guard must drop non-finite samples and
        still return finite positive speeds."""

        class _PoisonedInline(InlineExecutor):
            def __init__(self):
                super().__init__()
                self.calls = 0

            def block_seconds(self):
                out = dict(super().block_seconds())
                self.calls += 1
                if self.calls == 2:  # second snapshot: one NaN delta pair
                    out[1] = float("nan")
                return out

        ex = _PoisonedInline()
        try:
            speeds = measure_worker_speeds(ex, 2, probe_size=64, repeats=4)
        finally:
            ex.close()
        assert len(speeds) == 2
        assert all(np.isfinite(s) and s > 0 for s in speeds)
        assert np.isclose(np.mean(speeds), 1.0)

    def test_single_poisoned_round_with_repeats_one(self):
        """The degenerate case: every sample non-finite (here: the only
        one).  The fallback keeps the estimate finite instead of raising
        ZeroDivisionError."""

        class _AllNaNInline(InlineExecutor):
            def block_seconds(self):
                return {w: float("nan") for w in super().block_seconds()}

        ex = _AllNaNInline()
        try:
            speeds = measure_worker_speeds(ex, 2, probe_size=64, repeats=1)
        finally:
            ex.close()
        assert all(np.isfinite(s) and s > 0 for s in speeds)


class TestSharedPlanEndToEnd:
    """The same plan object configures the simulator AND the executors."""

    def test_simulated_run_uses_plan(self):
        A, b = _problem(n=120)
        c = cluster2(4)
        plan = cluster_placement(c, 4, strategy="calibrated", n=120)
        part = plan.partition().to_general()
        scheme = make_weighting("ownership", part)
        run = run_synchronous(
            A, b, part, scheme, get_solver("scipy"), c, placement=plan
        )
        assert run.converged
        recorded = dict(run.placement)
        # Provenance names the actual hosts: by-name mapping for a plan
        # built from this very cluster.
        assert recorded.pop("hosts") == [w.name for w in plan.workers]
        assert recorded == plan.summary()

    def test_real_run_uses_same_plan(self):
        A, b = _problem(n=120)
        c = cluster2(4)
        plan = cluster_placement(c, 4, strategy="calibrated", n=120)
        part = plan.partition().to_general()
        scheme = make_weighting("ownership", part)
        ex = ThreadExecutor(max_workers=4)
        try:
            res = multisplitting_iterate(
                A, b, part, scheme, get_solver("scipy"),
                executor=ex, placement=plan,
            )
        finally:
            ex.close()
        assert res.converged
        assert res.placement == plan.summary()

    @pytest.mark.parametrize("strategy", ["uniform", "proportional", "calibrated"])
    def test_solver_facade_strategies(self, strategy):
        from repro.core.solver import MultisplittingSolver

        A, b = _problem(n=150)
        with MultisplittingSolver(
            mode="synchronous", placement=strategy
        ) as solver:
            res = solver.solve(A, b, cluster=cluster3(5))
        assert res.converged
        assert res.placement is not None
        assert res.placement["strategy"] == strategy
        assert sum(res.placement["sizes"]) == 150

    def test_solver_facade_sequential_calibrated(self):
        from repro.core.solver import MultisplittingSolver

        A, b = _problem(n=150)
        with MultisplittingSolver(
            mode="sequential", processors=3, placement="calibrated",
            backend="threads",
        ) as solver:
            res = solver.solve(A, b)
        assert res.converged
        assert res.placement["strategy"] == "calibrated"

    def test_solver_facade_explicit_plan(self):
        from repro.core.solver import MultisplittingSolver

        A, b = _problem(n=150)
        plan = uniform_placement(150, 3)
        with MultisplittingSolver(mode="sequential", placement=plan) as solver:
            res = solver.solve(A, b)
        assert res.converged
        assert res.placement == plan.summary()
        bad = uniform_placement(100, 2)
        with MultisplittingSolver(mode="sequential", placement=bad) as solver:
            with pytest.raises(ValueError, match="unknowns"):
                solver.solve(A, b)

    def test_solver_rejects_unknown_strategy(self):
        from repro.core.solver import MultisplittingSolver

        with pytest.raises(ValueError, match="placement"):
            MultisplittingSolver(placement="fastest")

    def test_solver_rejects_partition_plus_placement(self):
        """Both an explicit partition and a placement claim the band
        layout; the conflict must be loud, not silently resolved."""
        from repro.core import uniform_bands
        from repro.core.solver import MultisplittingSolver

        A, b = _problem(n=150)
        part = uniform_bands(150, 3).to_general()
        with MultisplittingSolver(mode="sequential", placement="uniform") as solver:
            with pytest.raises(ValueError, match="band layout"):
                solver.solve(A, b, partition=part)

    def test_default_solve_unchanged_by_feature(self):
        """placement=None keeps the legacy layout bit-for-bit."""
        from repro.core.solver import MultisplittingSolver

        A, b = _problem(n=150)
        with MultisplittingSolver(mode="synchronous") as legacy:
            ref = legacy.solve(A, b, cluster=cluster2(4))
        with MultisplittingSolver(
            mode="synchronous", placement="proportional"
        ) as planned:
            res = planned.solve(A, b, cluster=cluster2(4))
        assert ref.placement is None and res.placement is not None
        assert ref.simulated_time == res.simulated_time
        np.testing.assert_array_equal(ref.x, res.x)


class TestCostModelHelpers:
    def test_iteration_cost_model_scales(self):
        cost = iteration_cost_model(5.0)
        assert cost(200) > cost(100) > 0.0
        batched = iteration_cost_model(5.0, k=4)
        assert batched(100) == pytest.approx(4 * cost(100))
        with pytest.raises(ValueError):
            iteration_cost_model(0.0)

    def test_cost_model_placement_validation(self):
        with pytest.raises(ValueError, match="workers"):
            cost_model_placement(100, [1.0, 1.0], workers=(WorkerSlot(name="x"),))


# ---------------------------------------------------------------------------
# hypothesis properties: invariants every plan must satisfy, however built
# ---------------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_SITES = ("siteA", "siteB", "siteC")


@st.composite
def _plans(draw):
    """Arbitrary valid plans from the public builders."""
    nworkers = draw(st.integers(1, 6))
    n = draw(st.integers(nworkers * 2, 400))
    speeds = [
        float(draw(st.floats(0.25, 8.0, allow_nan=False))) for _ in range(nworkers)
    ]
    groups = [draw(st.sampled_from(_SITES)) for _ in range(nworkers)]
    workers = tuple(
        WorkerSlot(name=f"w{i:02d}", speed=speeds[i], group=groups[i])
        for i in range(nworkers)
    )
    builder = draw(st.sampled_from(("uniform", "proportional", "cost_model")))
    if builder == "uniform":
        return uniform_placement(n, nworkers, workers=workers)
    if builder == "proportional":
        return proportional_placement(n, speeds, workers=workers)
    return cost_model_placement(n, speeds, workers=workers)


class TestPlacementProperties:
    """Satellite: plan invariants as hypothesis properties."""

    @settings(max_examples=60, deadline=None)
    @given(plan=_plans())
    def test_band_sizes_cover_n_exactly(self, plan):
        assert sum(plan.sizes) == plan.n
        assert all(s >= 1 for s in plan.sizes)
        part = plan.partition()
        assert part.n == plan.n
        assert [stop - start for start, stop in part.bounds] == list(plan.sizes)

    @settings(max_examples=60, deadline=None)
    @given(plan=_plans())
    def test_every_block_has_exactly_one_worker(self, plan):
        assert len(plan.assignment) == plan.nblocks
        for l in range(plan.nblocks):
            w = plan.assignment[l]
            assert 0 <= w < plan.nworkers
            assert plan.worker_of(l) is plan.workers[w]

    @settings(max_examples=60, deadline=None)
    @given(plan=_plans())
    def test_colocation_groups_partition_the_workers(self, plan):
        groups = plan.colocation_groups()
        seen: list[int] = []
        for members in groups.values():
            seen.extend(members)
        # Disjoint and complete: every worker in exactly one group.
        assert sorted(seen) == list(range(plan.nworkers))
        for name, members in groups.items():
            assert all(plan.workers[i].group == name for i in members)

    @settings(max_examples=40, deadline=None)
    @given(plan=_plans())
    def test_summary_round_trips_the_plan(self, plan):
        s = plan.summary()
        assert s["sizes"] == list(plan.sizes)
        assert s["assignment"] == list(plan.assignment)
        assert [w["name"] for w in s["workers"]] == [w.name for w in plan.workers]

    @settings(max_examples=30, deadline=None)
    @given(nprocs=st.integers(1, 10), n=st.integers(40, 400))
    def test_placement_for_round_trips_cluster_hosts(self, nprocs, n):
        """A plan built FROM a cluster maps every rank back onto the
        host its worker slot names -- the simulator charges the band
        exactly where the plan put it."""
        cluster = cluster3(10)
        plan = cluster_placement(cluster, nprocs, n=n, strategy="proportional")
        hosts = placement_for(cluster, plan.nblocks, plan=plan)
        assert len(hosts) == plan.nblocks
        for l, host in enumerate(hosts):
            assert host.name == plan.worker_of(l).name
            assert host.site == plan.worker_of(l).group
