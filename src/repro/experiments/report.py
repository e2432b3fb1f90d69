"""Formatting and shape checks for replayed experiments.

``format_table`` renders an :class:`~repro.experiments.tables.ExperimentResult`
as a fixed-width text table (the form ``repro-experiments`` prints), and the
``check_*_shape`` functions assert the qualitative agreements with the
paper that EXPERIMENTS.md reports:

* the multisplitting solvers beat distributed SuperLU, by growing factors;
* multisplitting cost is factorization-dominated;
* asynchronous degrades more gracefully under perturbation (Table 4);
* iteration count falls and factorization cost rises with overlap, giving
  an interior optimum (Figure 3).
"""

from __future__ import annotations

from typing import Any

from repro.experiments.tables import ExperimentResult

__all__ = [
    "format_table",
    "check_scalability_shape",
    "check_table3_shape",
    "check_table4_shape",
    "check_figure3_shape",
    "ShapeViolation",
]


class ShapeViolation(AssertionError):
    """A qualitative disagreement with the paper's findings."""


def _cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def format_table(result: ExperimentResult, *, title: str | None = None) -> str:
    """Render the experiment rows as a fixed-width text table."""
    cols = result.columns
    header = [title or result.notes.get("paper_table", result.experiment)]
    widths = [
        max(len(c), max((len(_cell(r.get(c))) for r in result.rows), default=0))
        for c in cols
    ]
    lines = []
    lines.append(" | ".join(c.ljust(w) for c, w in zip(cols, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in result.rows:
        lines.append(
            " | ".join(_cell(row.get(c)).ljust(w) for c, w in zip(cols, widths))
        )
    cache = result.notes.get("cache")
    if cache:
        lines.append(
            f"factor cache: hits={cache['hits']} misses={cache['misses']} "
            f"hit_rate={cache['hit_rate']:.1%} "
            f"factor-seconds saved={cache['factor_seconds_saved']:.3f}"
        )
    backend = result.notes.get("backend")
    if backend and backend != "inline":
        lines.append(f"execution backend: {backend}")
    body = "\n".join(lines)
    return f"== {header[0]} ==\n{body}"


def _numeric(row: dict, key: str) -> float | None:
    v = row.get(key)
    return v if isinstance(v, (int, float)) else None


def check_scalability_shape(result: ExperimentResult, *, min_speedup: float = 2.0) -> None:
    """Tables 1-2 shape: multisplitting wins and is factorization-dominated."""
    for row in result.rows:
        slu = _numeric(row, "distributed SuperLU")
        sync = _numeric(row, "sync multisplitting-LU")
        fact = _numeric(row, "factorization time")
        if slu is None or sync is None:
            continue
        if not slu > min_speedup * sync:
            raise ShapeViolation(
                f"{result.experiment} procs={row.get('processors')}: "
                f"SuperLU {slu:.3g}s vs sync {sync:.3g}s — paper has "
                f"multisplitting far ahead"
            )
        if fact is not None and fact > sync:
            raise ShapeViolation(
                f"{result.experiment}: factorization {fact:.3g}s exceeds "
                f"total {sync:.3g}s"
            )
    # multisplitting time decreases with processors over the first rows
    syncs = [
        _numeric(r, "sync multisplitting-LU")
        for r in result.rows
        if _numeric(r, "sync multisplitting-LU") is not None
    ]
    if len(syncs) >= 3 and not syncs[0] > syncs[-1]:
        raise ShapeViolation(
            f"{result.experiment}: sync multisplitting does not scale "
            f"({syncs[0]:.3g}s -> {syncs[-1]:.3g}s)"
        )


def check_table3_shape(result: ExperimentResult) -> None:
    """Table 3 shape: big wins on distant clusters; cage12 is 'nem' for SuperLU."""
    by_matrix = {r["matrix"]: r for r in result.rows}
    cage12 = by_matrix.get("cage12")
    if cage12 is not None and cage12.get("distributed SuperLU") != "nem":
        raise ShapeViolation("cage12/cluster3: distributed SuperLU should be 'nem'")
    if cage12 is not None and not isinstance(
        cage12.get("sync multisplitting-LU"), (int, float)
    ):
        raise ShapeViolation("cage12/cluster3: multisplitting should run fine")
    for name in ("cage11", "gen-large"):
        row = by_matrix.get(name)
        if row is None:
            continue
        slu = _numeric(row, "distributed SuperLU")
        sync = _numeric(row, "sync multisplitting-LU")
        if slu is not None and sync is not None and not slu > 5.0 * sync:
            raise ShapeViolation(
                f"table3 {name}: expected a large SuperLU/multisplitting gap, "
                f"got {slu:.3g}s vs {sync:.3g}s"
            )


def check_table4_shape(result: ExperimentResult) -> None:
    """Table 4 shape: sync degrades steeply, async gracefully."""
    rows = sorted(result.rows, key=lambda r: r["perturbing communications"])
    if len(rows) < 2:
        return
    first, last = rows[0], rows[-1]
    sync0, syncN = _numeric(first, "sync multisplitting-LU"), _numeric(last, "sync multisplitting-LU")
    async0, asyncN = _numeric(first, "async multisplitting-LU"), _numeric(last, "async multisplitting-LU")
    if None in (sync0, syncN, async0, asyncN):
        raise ShapeViolation("table4: missing entries")
    sync_growth = syncN / sync0
    async_growth = asyncN / async0
    if not sync_growth > 1.2:
        raise ShapeViolation(
            f"table4: sync should slow down under perturbation (x{sync_growth:.2f})"
        )
    if not async_growth < sync_growth:
        raise ShapeViolation(
            f"table4: async (x{async_growth:.2f}) should degrade less than "
            f"sync (x{sync_growth:.2f})"
        )
    if not asyncN < syncN:
        raise ShapeViolation(
            f"table4: async should win under heavy perturbation "
            f"({asyncN:.3g}s vs {syncN:.3g}s)"
        )


def check_figure3_shape(result: ExperimentResult) -> None:
    """Figure 3 shape: iterations fall, factorization grows, interior optimum."""
    rows = sorted(result.rows, key=lambda r: r["overlap"])
    iters = [r["sync iterations"] for r in rows]
    facts = [r["factorization time"] for r in rows]
    times = [r["sync time"] for r in rows]
    if not iters[-1] < iters[0]:
        raise ShapeViolation(
            f"figure3: iterations should fall with overlap ({iters[0]} -> {iters[-1]})"
        )
    if not facts[-1] > facts[0]:
        raise ShapeViolation(
            f"figure3: factorization should grow with overlap "
            f"({facts[0]:.3g}s -> {facts[-1]:.3g}s)"
        )
    async_iters = [r.get("async iterations") for r in rows]
    sync_iters = [r.get("sync iterations") for r in rows]
    if all(a is not None for a in async_iters) and not all(
        a >= s for a, s in zip(async_iters, sync_iters)
    ):
        raise ShapeViolation("figure3: async iteration counts should dominate sync")
    best = min(range(len(times)), key=lambda i: times[i])
    if best == 0:
        raise ShapeViolation(
            "figure3: zero overlap should not be optimal for a spectral "
            "radius close to 1"
        )
    # When the sweep reaches deep overlaps (>= 25% of n), the growing
    # factorization must eventually lose: the paper's interior optimum.
    n = result.notes.get("n")
    if n and rows[-1]["overlap"] >= 0.25 * n and best == len(rows) - 1:
        raise ShapeViolation(
            "figure3: the largest overlap should not be optimal once "
            "factorization cost dominates"
        )
