#!/usr/bin/env bash
# Sharded-engine perf-regression guard.
#
# Re-runs the shardscaling benchmark and compares the fresh `shards=1`
# timing against the checked-in BENCH_shardscaling.json: more than 25 %
# slower than the recorded figure fails the run (the serial path must not
# pay for the sharded engine's existence). On hosts with ≥2 cores the
# fresh 2-shard run must also be ≥1.3× faster than the fresh `shards=1`
# run, both measured in the same process, so the verdict needs no
# recorded figure from another machine. On hosts with ≥4 cores the check
# additionally enforces the ≥2× speedup floor at 4 shards; on smaller
# hosts a floor that is physically unreachable is skipped with a note
# (the comparisons themselves live in the bench's `--check` mode).
#
# The sharded engine runs exactly `shards` threads: shard 0's thread
# steps its shard and also does phase 1 (traffic generation) and the
# statistics merge, so `--shards auto` puts exactly one thread on each
# core (DESIGN.md §8). The recorded profile section carries
# `barrier_share_pct` — the share of shard span time spent at the single
# end-of-cycle spin barrier. A regression that puts coordinator work back
# on the critical path, or a thread back on a busy core, shows up there
# before it shows up in wall clock, so eyeball that figure when
# regenerating.
#
# Regenerate the recorded figures after an intentional perf change with:
#   cargo bench -p vix-bench --bench shardscaling
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ ! -f BENCH_shardscaling.json ]]; then
    echo "BENCH_shardscaling.json missing; record it first with" >&2
    echo "  cargo bench -p vix-bench --bench shardscaling" >&2
    exit 1
fi

cargo bench -p vix-bench --bench shardscaling -- --check
