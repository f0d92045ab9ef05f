#!/usr/bin/env bash
# Runs the debug-shadow cells and diffs each report against its fixture.
#
# usage: scripts/debug_shadow.sh <path-to-pascal-cli>
#
# Built in debug, pascal-cli checks every steady run's closed-form catch-up
# against a token-by-token replay, every planned launch against the
# planner's walk, and every monitor row against a from-scratch rebuild.
# This drives it through the three benchmark deployments (the
# `pascal-cli run` lines of perfbench/DESIGN.md) at 10^4 requests, at seed
# 42 and at the benchmark's held-out seed 9001, plus a preemption-heavy
# FCFS cell on 8 instances. Each cell's stdout must equal its committed
# report in tests/golden/shadow_*.txt (release and debug builds print the
# same report, so a release binary regenerates them). Exits non-zero at the
# first cell that panics or differs.
set -euo pipefail

if [ "$#" -ne 1 ]; then
    echo "usage: $0 <path-to-pascal-cli>" >&2
    exit 2
fi
cli="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
cd "$(dirname "$0")/.."

backlog="--dataset mixed --predictor quantile --instances 32 --shards 4 --router rr --rate high"
underload="--dataset mixed --predictor quantile --instances 32 --shards 4 --router rr --rate 5"
outage="--dataset reasoning-heavy --predictor quantile --instances 32 --regions 4 --shards 2 \
--fed-router predictive --wan continental --fleet-events outage --rate low"

# Each cell: its fixture, then its `pascal-cli run` arguments.
cell() {
    local fixture="$1"
    shift
    echo "shadow: $fixture" >&2
    # Word splitting of the deployment strings is intended.
    # shellcheck disable=SC2086
    "$cli" run "$@" | diff "tests/golden/$fixture" -
}

cell shadow_backlog.txt $backlog --count 10000 --seed 42
cell shadow_underload.txt $underload --count 10000 --seed 42
cell shadow_federated_outage.txt $outage --count 10000 --seed 42
cell shadow_backlog_9001.txt $backlog --count 10000 --seed 9001
cell shadow_underload_9001.txt $underload --count 10000 --seed 9001
cell shadow_federated_outage_9001.txt $outage --count 10000 --seed 9001
cell shadow_fcfs_preempt.txt --dataset mixed --policy fcfs --instances 8 --rate high --count 3000 --seed 42
