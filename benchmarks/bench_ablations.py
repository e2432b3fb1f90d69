"""Ablation benches for the design choices DESIGN.md calls out.

These are *not* in the paper's tables; they quantify the knobs the paper
discusses in prose:

* direct-kernel choice ("any sequential direct solver whether it is
  dense, band or sparse") -- microbenchmarks of the three kernels;
* convergence-detection protocol (centralized [2] vs decentralized [4]);
* weighting family (Section 4's derived algorithms);
* synchronous/asynchronous crossover as a function of WAN latency.
"""

import numpy as np
import pytest
from bench_output import emit
from conftest import run_once

from repro.core import MultisplittingSolver
from repro.direct import get_solver
from repro.grid import custom_cluster, cluster3
from repro.matrices import banded_random, cage_like, diagonally_dominant, rhs_for_solution


def _emit_timing(benchmark, name: str, *, seed: int | None = None) -> None:
    """Record a microbench's timing stats as BENCH_<name>.json."""
    stats = benchmark.stats.stats
    emit(name, [("mean", stats.mean, "s"), ("min", stats.min, "s")], seed=seed)


# -- direct kernels ----------------------------------------------------
@pytest.mark.parametrize("kernel", ["dense", "banded", "scipy"])
def test_kernel_factor(benchmark, kernel):
    """Factor a 300x300 banded dominant matrix with each kernel."""
    A = banded_random(300, lower_bw=6, upper_bw=6, seed=1)
    solver = get_solver(kernel)
    Ad = A.toarray() if kernel == "dense" else A
    benchmark(lambda: solver.factor(Ad))
    _emit_timing(benchmark, f"kernel_factor_{kernel}", seed=1)


@pytest.mark.parametrize("kernel", ["scipy"])
def test_kernel_factor_cage(benchmark, kernel):
    """The sparse kernel on a fill-heavy cage analog (n=400)."""
    A = cage_like(400, seed=2)
    solver = get_solver(kernel)
    benchmark(lambda: solver.factor(A))
    _emit_timing(benchmark, f"kernel_factor_cage_{kernel}", seed=2)


def test_kernel_resolve(benchmark):
    """Re-solve cost: the per-iteration work of the multisplitting loop."""
    A = cage_like(600, seed=3)
    fact = get_solver("scipy").factor(A)
    b = np.ones(600)
    benchmark(lambda: fact.solve(b))
    _emit_timing(benchmark, "kernel_resolve", seed=3)


# -- detection protocols ------------------------------------------------
@pytest.mark.parametrize("detection", ["centralized", "decentralized"])
def test_detection_protocol_cost(benchmark, detection):
    """Full async solve with each detection protocol on the WAN cluster."""
    A = diagonally_dominant(600, dominance=1.5, bandwidth=25, seed=4)
    b, _ = rhs_for_solution(A, seed=5)

    def run():
        solver = MultisplittingSolver(mode="asynchronous", detection=detection)
        return solver.solve(A, b, cluster=cluster3(8))

    res = run_once(benchmark, run)
    assert res.status == "ok"
    print(
        f"\n{detection}: simulated {res.simulated_time:.4f}s, "
        f"{res.detection_messages} detection messages, "
        f"iterations {res.per_proc_iterations}"
    )
    emit(f"detection_{detection}", [
        ("simulated_time", res.simulated_time, "s"),
        ("detection_messages", res.detection_messages, "count"),
    ], seed=4)


# -- weighting families ---------------------------------------------------
@pytest.mark.parametrize("weighting", ["ownership", "averaging", "schwarz"])
def test_weighting_family(benchmark, weighting):
    """Synchronous solve with each Section-4 combination (overlap 20)."""
    A = diagonally_dominant(800, dominance=1.1, bandwidth=40, seed=6)
    b, _ = rhs_for_solution(A, seed=7)

    def run():
        solver = MultisplittingSolver(
            mode="synchronous", overlap=20, weighting=weighting, max_iterations=4000
        )
        return solver.solve(A, b, cluster=cluster3(8))

    res = run_once(benchmark, run)
    assert res.converged
    print(f"\n{weighting}: {res.iterations} iterations, {res.simulated_time:.4f}s")
    emit(f"weighting_{weighting}", [
        ("iterations", res.iterations, "count"),
        ("simulated_time", res.simulated_time, "s"),
    ], seed=6)


# -- sync/async crossover vs latency -------------------------------------
@pytest.mark.parametrize("wan_latency", [1e-4, 5e-3, 5e-2])
def test_sync_async_crossover(benchmark, wan_latency):
    """Sweep inter-site latency: async's advantage grows with distance."""
    A = diagonally_dominant(600, dominance=1.5, bandwidth=25, seed=8)
    b, _ = rhs_for_solution(A, seed=9)

    def cluster():
        return custom_cluster(
            f"lat{wan_latency:g}",
            {"a": [117e6] * 4, "b": [117e6] * 4},
            wan_latency=wan_latency,
        )

    def run():
        sync = MultisplittingSolver(mode="synchronous").solve(A, b, cluster=cluster())
        asyn = MultisplittingSolver(mode="asynchronous").solve(A, b, cluster=cluster())
        return sync, asyn

    sync, asyn = run_once(benchmark, run)
    assert sync.status == "ok" and asyn.status == "ok"
    print(
        f"\nWAN latency {wan_latency:g}s: sync {sync.simulated_time:.4f}s, "
        f"async {asyn.simulated_time:.4f}s, ratio "
        f"{sync.simulated_time / asyn.simulated_time:.2f}"
    )
    emit(f"crossover_lat{wan_latency:g}", [
        ("sync_simulated_time", sync.simulated_time, "s"),
        ("async_simulated_time", asyn.simulated_time, "s"),
        ("sync_over_async", sync.simulated_time / asyn.simulated_time, "x"),
    ], seed=8)
