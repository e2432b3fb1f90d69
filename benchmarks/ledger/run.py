"""The performance ledger: one command for every named metric.

    python benchmarks/ledger/run.py --workload <name|all> --seed <int>
        [--seconds S] [--trace 0|1 | --traced] [--out DIR] [--repeat N]
    python benchmarks/ledger/run.py compare A.json B.json
    python benchmarks/ledger/run.py --selftest

Each workload runs in a child process of its own, in its own session,
under a hard timeout; afterwards the session is searched for survivors,
which are killed and fail the run.  The untraced run (``--trace 0``)
yields the end-to-end metrics, the traced run (``--trace 1``) the
per-layer ones.  The last line of standard output is one JSON object
(``correct`` / ``attempted`` / ``failed`` / ``metrics``); metric names,
units, directions and bounds live in ``BENCHMARK.json``.
See ``README.md`` in this directory for every definition.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
END_TO_END = CONTRACT["end_to_end"]
PER_LAYER = CONTRACT["per_layer"]

#: Whole-invocation budget for one workload, children and reaping included.
RUN_DEADLINE = 170.0
#: An untraced run is split over this many child processes, one after the
#: other, each with its own set-up and a share of ``--seconds``.  Their
#: samples are pooled: a process's placement in memory and on the cores
#: shifts all of its timings together, so three short processes repeat
#: better than one long one, and ``setup_s`` is a median of three.
PARTS = 3
#: How long helpers that exit with their parent (multiprocessing's
#: resource tracker and fork server) get to do so before they count as leaked.
REAP_GRACE = 3.0


# ---------------------------------------------------------------------------
# child side: one workload, in this process
# ---------------------------------------------------------------------------


def child_main(args) -> int:
    # Before numpy loads: one BLAS thread, so that a 2-core host does not
    # oversubscribe (unpinned, same-code gateway throughput differs by 20%
    # from run to run; pinned, by 2%).
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import multiprocessing

    import numpy
    import scipy

    import workloads

    out = Path(args.out)
    workload = workloads.build(args.workload, args.scale, args.seed, args.part, out)
    traced = args.trace == 1
    record: dict = {}
    try:
        workload.setup(traced)
        record["setup_s"] = time.time() - args.t0
        if traced:
            workload.measure_traced(args.seconds)
        else:
            record["samples"] = workload.measure(args.seconds)
    finally:
        workload.close()
    if traced:
        record["metrics"] = {m["name"]: 0.0 for m in PER_LAYER} | workload.layer
    # Workers are reaped by close(), so the children figure is the largest of them.
    rss_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    record["peak_rss_mb"] = rss_kb / 1024.0
    record["attempted"] = workload.tally.attempted
    record["failed"] = workload.tally.failed
    record["notes"] = workload.tally.notes
    record["host"] = {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "machine": platform.machine(),
    }
    Path(args.result_file).write_text(json.dumps(record))
    return 0


# ---------------------------------------------------------------------------
# parent side: spawn, wait, reap
# ---------------------------------------------------------------------------


def session_members(sid: int) -> list[int]:
    """Live processes whose session is ``sid`` (zombies excluded)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # gone between listdir and read
        # pid (comm) state ppid pgrp session ...; comm may hold spaces.
        fields = stat.rsplit(")", 1)[1].split()
        if fields[0] != "Z" and int(fields[3]) == sid:
            members.append(int(entry))
    return members


def reap_session(sid: int) -> int:
    """Wait out, count and kill what the child left in its session."""
    deadline = time.monotonic() + REAP_GRACE
    survivors = session_members(sid)
    while survivors and time.monotonic() < deadline:
        time.sleep(0.05)
        survivors = session_members(sid)
    leaked = len(survivors)
    deadline = time.monotonic() + 10.0
    while survivors and time.monotonic() < deadline:
        for pid in survivors:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.05)
        survivors = session_members(sid)
    return leaked


def run_child(name, seed, part, seconds, trace, scale, out, timeout):
    """One child process; returns ``(record or None, leaked)``."""
    result_file = out / f"result_{name}_{os.getpid()}.json"
    result_file.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", name, "--seed", str(seed), "--part", str(part),
        "--seconds", str(seconds), "--trace", str(trace), "--scale", scale,
        "--out", str(out), "--result-file", str(result_file), "--t0", repr(time.time()),
    ]
    # Its own session, so everything it starts can be found afterwards; its
    # standard output goes to our standard error, so the last line stays ours.
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        code = None
        print(f"{name}: no result after {timeout:.0f} s, killing it", file=sys.stderr)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10.0)
        leaked = reap_session(proc.pid)
    record = None
    if code == 0 and result_file.exists():
        record = json.loads(result_file.read_text())
    result_file.unlink(missing_ok=True)
    return record, leaked


def run_workload(name, seed, seconds, trace, scale, out, parts) -> dict | None:
    """Run one workload; returns its run record, or None if it gave none."""
    deadline = time.monotonic() + RUN_DEADLINE
    if trace:
        parts = 1
    records, leaked = [], 0
    for part in range(parts):
        timeout = (deadline - time.monotonic()) / (parts - part) - 5.0
        record, more = run_child(name, seed, part, seconds / parts, trace, scale, out, timeout)
        leaked += more
        if record is None:
            return None
        records.append(record)
    if trace:
        metrics = records[0]["metrics"]
        metrics["runtime.leaked_processes"] = leaked
        wanted = PER_LAYER
    else:
        pooled = {
            key: [v for r in records for v in r["samples"][key]]
            for key in ("cold", "warm", "latency")
        }
        window = sum(r["samples"]["window"] for r in records)
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in records),
            "solve_cold_s": statistics.median(pooled["cold"] or [0.0]),
            "solve_warm_s": statistics.median(pooled["warm"] or [0.0]),
            "throughput_rps": len(pooled["latency"]) / window if window else 0.0,
            "latency_p50_ms": statistics.median(pooled["latency"] or [0.0]) * 1e3,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        }
        wanted = END_TO_END
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    notes = [note for r in records for note in r["notes"]]
    if leaked:
        notes.append(f"{leaked} processes outlived the workload")
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": failed == 0 and leaked == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "leaked_processes": leaked,
        "notes": notes,
        "host": records[0]["host"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }


def print_run(run: dict) -> None:
    kind = "per-layer (traced)" if run["trace"] else "end-to-end (untraced)"
    print(f"== {run['workload']}  seed={run['seed']}  {kind}")
    for name, m in run["metrics"].items():
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")
    print(
        f"  {'failed_frac':36s} {run['failed_frac']:>16.6g} fraction"
        f"   ({run['failed']} of {run['attempted']} ops; "
        f"{run['leaked_processes']} leaked processes)"
    )
    for note in run["notes"]:
        print(f"  ! {note}")


def result_line(run: dict) -> dict:
    return {k: run[k] for k in ("correct", "attempted", "failed", "metrics")}


def save_runs(path: Path, runs: list[dict]) -> None:
    ledger = json.loads(path.read_text()) if path.exists() else {"runs": []}
    ledger["runs"] += runs
    path.write_text(json.dumps(ledger, indent=1))


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(path_a: str, path_b: str) -> int:
    """One row per (workload, end-to-end metric); non-zero exit on ``worse``."""
    sides = []
    for path in (path_a, path_b):
        runs = [r for r in json.loads(Path(path).read_text())["runs"] if r["trace"] == 0]
        sides.append(runs)
    worse = 0
    print(
        f"{'workload':12s} {'metric':15s} {'A q1/median/q3':>32s} "
        f"{'B q1/median/q3':>32s} {'change':>8s} {'bound':>6s}  verdict"
    )
    rows = [(m["name"], m["better"], m["bound"]) for m in END_TO_END]
    rows.append(("failed_frac", "lower", 0.0))
    for workload in WORKLOADS:
        for metric, better, bound in rows:
            values = []
            for runs in sides:
                mine = [r for r in runs if r["workload"] == workload]
                if metric == "failed_frac":
                    values.append([r["failed_frac"] for r in mine])
                else:
                    values.append([r["metrics"][metric]["value"] for r in mine])
            a, b = values
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            if metric == "failed_frac":
                # Absolute, not relative: any new failure is a regression.
                change, spread = qb[1] - qa[1], 0.0
                all_better = False
            else:
                sign = 1.0 if better == "lower" else -1.0
                change = sign * (qb[1] - qa[1]) / qa[1]
                spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
                all_better = (
                    max(b) < min(a) if better == "lower" else min(b) > max(a)
                )
            if spread > bound and not all_better:
                verdict = "unresolved"
            elif change > bound:
                verdict = "worse"
                worse += 1
            else:
                verdict = "ok"
            print(
                f"{workload:12s} {metric:15s} "
                f"{qa[0]:>10.5g}/{qa[1]:>10.5g}/{qa[2]:>10.5g} "
                f"{qb[0]:>10.5g}/{qb[1]:>10.5g}/{qb[2]:>10.5g} "
                f"{change:>+8.3f} {bound:>6.2f}  {verdict}"
            )
    return 1 if worse else 0


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def selftest(out: Path) -> int:
    """All four workloads, scaled down, through every path of a real run."""
    began = time.monotonic()
    bad = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            run = run_workload(name, 1, 1.0, trace, "selftest", out, parts=1)
            wanted = PER_LAYER if trace else END_TO_END
            ok = (
                run is not None
                and run["correct"]
                and set(run["metrics"]) == {m["name"] for m in wanted}
            )
            if trace and ok:
                ok = (out / f"trace_{name}.json").exists()
            print(f"selftest {name:12s} trace={trace}  {'ok' if ok else 'FAILED'}")
            if not ok:
                bad += 1
                if run is not None:
                    print_run(run)
    print(f"selftest: {bad} failed, {time.monotonic() - began:.1f} s")
    return 1 if bad else 0


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(CONTRACT["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--out", default=str(ROOT / ".ledger_out"))
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--scale", default="full", help=argparse.SUPPRESS)
    parser.add_argument("--part", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--result-file", help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.traced:
        args.trace = 1
    if args.child:
        return child_main(args)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"nothing to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    if args.selftest:
        return selftest(out)
    if args.workload is None:
        parser.error("--workload is required")
    names = WORKLOADS if args.workload == "all" else [args.workload]
    runs = []
    for _ in range(args.repeat):
        for name in names:
            run = run_workload(name, args.seed, args.seconds, args.trace, "full", out, PARTS)
            if run is None:
                print(f"{name}: the workload process gave no result", file=sys.stderr)
                return 2
            print_run(run)
            runs.append(run)
    save_runs(out / "ledger.json", runs)
    if len(runs) == 1:
        print(json.dumps(result_line(runs[0])))
    else:
        print(json.dumps({r["workload"]: result_line(r) for r in runs}))
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
