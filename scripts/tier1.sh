#!/usr/bin/env sh
# Tier-1 gate: runs the ROADMAP verify command from any working directory.
#
#   scripts/tier1.sh            # the full tier-1 suite
#   scripts/tier1.sh tests/test_direct_cache.py   # extra args forwarded
#
# Measurement is not tier-1: the performance ledger runs as
#   python benchmarks/ledger/run.py --selftest
# and the paper-table replays are diffed against tests/golden/ in CI.
set -eu
cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" exec python -m pytest -x -q "$@"
