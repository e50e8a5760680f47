#!/usr/bin/env bash
# Same-host A/B of the simulator's cycle time against a git revision.
#
#   scripts/ab.sh <rev> [rounds] [saturated|lowload|sharded]    e.g. scripts/ab.sh HEAD~
#
# Builds <rev> and the working tree into ONE throwaway binary and steps one
# benchmark workload's simulations (seed 1) of both builds in alternating
# chunks, so host noise and clock drift hit both sides alike:
#   saturated (default): mesh64-saturated, 8x8 mesh, IF and VIX at 0.12
#     pkt/node/cycle, 500 warmup + 3000 measured cycles, 100-cycle chunks;
#   lowload: mesh64-lowload, 8x8 mesh, VIX at 0.006, 1000 warmup + 10000
#     measured + 1000 drain cycles, 500-cycle chunks;
#   sharded: mesh256-sharded, 16x16 mesh, VIX at 0.04 on two shards, 500
#     warmup + 1500 measured + 500 drain cycles, 500-cycle chunks.
# Each of `rounds` (default 6) rounds builds fresh simulations; which build
# steps first alternates by round. The binary asserts that both builds
# eject the same packets at the same cycles, then prints the working-tree /
# <rev> ratio of total stepping time and of the p50 and p99 chunk times:
# below 1 means the working tree is faster.
#
# Works offline: the workspace has no crates.io dependencies. <rev> is
# checked out as a git worktree under target/ab/ (removed on exit), and
# only that copy's workspace version is bumped so cargo links both copies
# of every crate side by side. A measurement tool, not a CI gate.
set -euo pipefail

rev=${1:?usage: scripts/ab.sh <rev> [rounds] [saturated|lowload|sharded]}
rounds=${2:-6}
workload=${3:-saturated}
case $workload in saturated | lowload | sharded) ;; *) echo "unknown workload: $workload" >&2; exit 2 ;; esac
root=$(git rev-parse --show-toplevel)
ab="$root/target/ab"
base="$ab/base"
harness="$ab/harness"

cleanup() { git -C "$root" worktree remove --force "$base" 2>/dev/null || rm -rf "$base"; }
trap cleanup EXIT
cleanup
mkdir -p "$ab" "$harness/src"
git -C "$root" worktree add --quiet --detach "$base" "$rev"
sed -i '/^\[workspace.package\]/,/^\[/ s/^version = ".*"/version = "0.0.0-ab"/' "$base/Cargo.toml"

cat > "$harness/Cargo.toml" <<EOF
[package]
name = "vix-ab"
version = "0.0.0"
edition = "2021"
publish = false

[workspace]

[dependencies]
head_core = { package = "vix-core", path = "$root/crates/core" }
head_sim = { package = "vix-sim", path = "$root/crates/sim" }
base_core = { package = "vix-core", path = "$base/crates/core" }
base_sim = { package = "vix-sim", path = "$base/crates/sim" }

[profile.release]
debug = true
EOF

cat > "$harness/src/main.rs" <<'EOF'
use std::time::Instant;

/// One benchmark workload: mesh size, which allocators (VIX or IF),
/// injection rate, warmup/measure/drain windows, chunk length in cycles,
/// shard count.
pub struct Workload {
    pub nodes: usize,
    pub vix: &'static [bool],
    pub rate: f64,
    pub windows: (u64, u64, u64),
    pub chunk: u64,
    pub shards: usize,
}

const SATURATED: Workload = Workload {
    nodes: 64,
    vix: &[false, true],
    rate: 0.12,
    windows: (500, 3_000, 0),
    chunk: 100,
    shards: 1,
};
const LOWLOAD: Workload = Workload {
    nodes: 64,
    vix: &[true],
    rate: 0.006,
    windows: (1_000, 10_000, 1_000),
    chunk: 500,
    shards: 1,
};
const SHARDED: Workload = Workload {
    nodes: 256,
    vix: &[true],
    rate: 0.04,
    windows: (500, 1_500, 500),
    chunk: 500,
    shards: 2,
};

/// Builds one side's simulations of a workload and steps them in chunks,
/// returning each chunk's ejection fingerprint.
macro_rules! side {
    ($name:ident, $core:ident, $sim:ident) => {
        mod $name {
            use $core::{AllocatorKind, NetworkConfig, SimConfig, TopologyKind};
            pub struct Sims(Vec<$sim::NetworkSim>, u64);
            pub fn build(w: &super::Workload) -> Sims {
                let sims = w.vix.iter().map(|&vix| {
                    let alloc = if vix { AllocatorKind::Vix } else { AllocatorKind::InputFirst };
                    let mut net = NetworkConfig::paper_default(TopologyKind::Mesh, alloc);
                    net.nodes = w.nodes;
                    let (warmup, measure, drain) = w.windows;
                    let cfg = SimConfig::new(net, w.rate)
                        .with_windows(warmup, measure, drain)
                        .with_seed(1)
                        .with_shards(w.shards);
                    $sim::NetworkSim::build(cfg).expect("valid config")
                });
                Sims(sims.collect(), w.chunk)
            }
            impl Sims {
                /// Steps simulation `i` by one chunk; returns a fingerprint
                /// of what it ejected.
                pub fn chunk(&mut self, i: usize) -> u64 {
                    let sim = &mut self.0[i];
                    sim.run_cycles(self.1);
                    sim.take_ejections().iter().fold(0xcbf2_9ce4_8422_2325, |h, e| {
                        let x = e.packet.id.0 ^ (e.at.0 << 40) ^ ((e.packet.source.0 as u64) << 20);
                        (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
                    })
                }
            }
        }
    };
}
side!(head, head_core, head_sim);
side!(base, base_core, base_sim);

fn pct(v: &mut [f64], p: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * p).round() as usize]
}

fn main() {
    let mut args = std::env::args().skip(1);
    let rounds: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(6);
    let w = match args.next().as_deref() {
        Some("lowload") => &LOWLOAD,
        Some("sharded") => &SHARDED,
        _ => &SATURATED,
    };
    let cycles = w.windows.0 + w.windows.1 + w.windows.2;
    let (mut head_ns, mut base_ns) = (Vec::new(), Vec::new());
    for round in 0..rounds {
        let (mut h, mut b) = (head::build(w), base::build(w));
        for c in 0..cycles / w.chunk {
            for sim in 0..w.vix.len() {
                let mut time_head = || {
                    let t = Instant::now();
                    let fp = h.chunk(sim);
                    (fp, t.elapsed().as_nanos() as f64)
                };
                let mut time_base = || {
                    let t = Instant::now();
                    let fp = b.chunk(sim);
                    (fp, t.elapsed().as_nanos() as f64)
                };
                let ((hf, ht), (bf, bt)) = if (round + c as u32).is_multiple_of(2) {
                    let hr = time_head();
                    (hr, time_base())
                } else {
                    let br = time_base();
                    (time_head(), br)
                };
                assert_eq!(hf, bf, "ejections diverge: round {round}, chunk {c}, sim {sim}");
                head_ns.push(ht);
                base_ns.push(bt);
            }
        }
    }
    let total = head_ns.iter().sum::<f64>() / base_ns.iter().sum::<f64>();
    let n = head_ns.len();
    let (h50, b50) = (pct(&mut head_ns, 0.5), pct(&mut base_ns, 0.5));
    let (h99, b99) = (pct(&mut head_ns, 0.99), pct(&mut base_ns, 0.99));
    let us = |ns: f64| ns / (w.chunk as f64 * 1e3);
    println!("chunks per side: {n} ({} cycles each), ejections identical", w.chunk);
    println!("base  us/cycle: p50 {:8.2}  p99 {:8.2}", us(b50), us(b99));
    println!("head  us/cycle: p50 {:8.2}  p99 {:8.2}", us(h50), us(h99));
    println!("ratio head/base: total {total:.3}  p50 {:.3}  p99 {:.3}", h50 / b50, h99 / b99);
}
EOF

cargo build --release --offline --quiet --manifest-path "$harness/Cargo.toml" --target-dir "$ab/target"
"$ab/target/release/vix-ab" "$rounds" "$workload"
