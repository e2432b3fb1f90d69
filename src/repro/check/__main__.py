"""CLI: explore every registered protocol model and report the verdicts.

``python -m repro.check`` runs the whole registry: current-protocol
models must explore **clean**, known-bug fixtures must **reproduce**
their violation (a fixture that stops failing means the checker lost
its teeth).  Any unexpected outcome prints the full counterexample --
including the replayable trace to commit as a regression -- and exits
nonzero.  This is what the CI ``modelcheck`` job runs under a hard
timeout.

Options::

    python -m repro.check                               # full campaign
    python -m repro.check elastic.migration wire.pipes  # just these models
    python -m repro.check --seed 7 --walks 500
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.check.engine import explore, format_violation
from repro.check.models import REGISTRY


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check", description=__doc__
    )
    parser.add_argument(
        "models",
        nargs="*",
        help="registry names to run (default: all)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="random-walk seed (default 0)"
    )
    parser.add_argument(
        "--walks",
        type=int,
        default=None,
        help="override the per-model random-walk count",
    )
    parser.add_argument(
        "--max-runs",
        type=int,
        default=None,
        help="override the per-model exhaustive run budget",
    )
    parser.add_argument(
        "--list", action="store_true", help="list registered models and exit"
    )
    args = parser.parse_args(argv)

    if args.list:
        for name, (_, expect_violation, _) in REGISTRY.items():
            tag = "known-bug fixture" if expect_violation else "current protocol"
            print(f"{name:28s} {tag}")
        return 0

    names = args.models or list(REGISTRY)
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        print(f"unknown models: {unknown}; try --list", file=sys.stderr)
        return 2

    failed = False
    for name in names:
        factory, expect_violation, budget = REGISTRY[name]
        budget = dict(budget)
        if args.walks is not None:
            budget["walks"] = args.walks
        if args.max_runs is not None:
            budget["max_runs"] = args.max_runs
        t0 = time.perf_counter()
        result = explore(factory, seed=args.seed, **budget)
        dt = time.perf_counter() - t0
        coverage = f"{result.runs} runs"
        if result.exhausted:
            coverage += " (exhaustive)"
        elif result.walks:
            coverage += f" + {result.walks} walks"
        if result.violation is None:
            verdict, ok = "clean", not expect_violation
        else:
            verdict, ok = result.violation.kind, expect_violation
        status = "ok " if ok else "FAIL"
        print(f"{status} {name:28s} {verdict:10s} {coverage:28s} {dt:6.2f}s")
        if result.violation is not None and (not ok or expect_violation):
            indent = "       "
            text = format_violation(result.violation)
            if ok:
                # Expected reproduction: show just the replay line.
                text = text.splitlines()[-1]
            for line in text.splitlines():
                print(indent + line)
        if not ok:
            failed = True
            if result.violation is None:
                print(
                    "       expected this known-bug fixture to reproduce "
                    "its violation, but exploration came back clean"
                )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
