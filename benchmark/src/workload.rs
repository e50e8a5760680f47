//! The four workloads and the simulations each repetition runs.
//!
//! Every workload steps its simulators back to back on one thread (the
//! sharded workload's engine adds its own workers), repeating the same
//! seeded simulations until the measuring time is spent: a closed loop in
//! host time.

use vix_core::{AllocatorKind, NetworkConfig, SimConfig, TopologyKind};
use vix_manycore::Mix;

use crate::sims::{SimKind, SimSpec};

/// Seed whose digests are recorded in `digests.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 8×8 mesh, IF and VIX at 0.12 packets/node/cycle: above both
    /// saturation points, so every router is awake every cycle and the
    /// router and allocator layers do most of the work. Also the paper's
    /// Fig 8 comparison.
    Mesh64Saturated,
    /// The same network running VIX at 0.006, 5 % of VIX saturation:
    /// gating leaves most routers asleep, so fixed per-cycle engine cost
    /// weighs most.
    Mesh64Lowload,
    /// 16×16 mesh, VIX at 0.04 with two shards, below saturation: the only
    /// workload that runs the shard barrier, exchange and partitioning.
    Mesh256Sharded,
    /// The Table 4 Mix8 CMP with IF and VIX: a loop closed in simulated
    /// time, traffic through `inject` / `take_ejections` / `step`.
    Cmp64Mix8,
}

/// Simulation size: `Full` for measurements, `Smoke` for the benchmark's
/// own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured workload.
    Full,
    /// Short windows that exercise every path in well under a second.
    Smoke,
}

impl Scale {
    /// The name used in `digests.txt`.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::Mesh64Saturated,
        Workload::Mesh64Lowload,
        Workload::Mesh256Sharded,
        Workload::Cmp64Mix8,
    ];

    /// The name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mesh64Saturated => "mesh64-saturated",
            Workload::Mesh64Lowload => "mesh64-lowload",
            Workload::Mesh256Sharded => "mesh256-sharded",
            Workload::Cmp64Mix8 => "cmp64-mix8",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulations of one repetition at `seed`.
    ///
    /// Chunks last a few ms or more, so one host preemption does not decide
    /// a sample. The sharded engine pays a fixed cost on every
    /// `run_cycles` call (spawning its workers and rebuilding the serial
    /// view), so its chunks are the longest.
    pub fn sims(self, scale: Scale, seed: u64) -> Vec<SimSpec> {
        let full = scale == Scale::Full;
        match self {
            Workload::Mesh64Saturated => {
                let w = if full { (500, 3_000, 0) } else { (50, 150, 0) };
                [
                    ("IF", AllocatorKind::InputFirst),
                    ("VIX", AllocatorKind::Vix),
                ]
                .map(|(label, alloc)| mesh(label, 64, alloc, 0.12, w, seed, 1, 100))
                .to_vec()
            }
            Workload::Mesh64Lowload => {
                let w = if full {
                    (1_000, 10_000, 1_000)
                } else {
                    (100, 1_000, 200)
                };
                vec![mesh("VIX", 64, AllocatorKind::Vix, 0.006, w, seed, 1, 500)]
            }
            Workload::Mesh256Sharded => {
                let w = if full {
                    (500, 1_500, 500)
                } else {
                    (50, 200, 150)
                };
                vec![mesh("VIX", 256, AllocatorKind::Vix, 0.04, w, seed, 2, 500)]
            }
            Workload::Cmp64Mix8 => {
                let (warmup, measure) = if full { (3_000, 15_000) } else { (200, 600) };
                let mix = Mix::table4()
                    .into_iter()
                    .find(|m| m.name == "Mix8")
                    .expect("Table 4 has Mix8");
                [
                    ("IF", AllocatorKind::InputFirst),
                    ("VIX", AllocatorKind::Vix),
                ]
                .map(|(label, alloc)| SimSpec {
                    label,
                    kind: SimKind::Cmp {
                        mix: mix.clone(),
                        alloc,
                        seed,
                        warmup,
                        measure,
                    },
                    chunk: 200,
                })
                .to_vec()
            }
        }
    }

    /// The serial run a sharded simulation must match bit for bit.
    pub fn serial_reference(self, scale: Scale, seed: u64) -> Option<SimSpec> {
        (self == Workload::Mesh256Sharded).then(|| {
            let mut spec = self.sims(scale, seed).remove(0);
            if let SimKind::Mesh(cfg) = &mut spec.kind {
                cfg.shards = 1;
            }
            spec.label = "VIX-serial";
            spec
        })
    }

    /// Whether every packet created in the measurement window must have
    /// left the network by the end of the drain window.
    pub fn checks_conservation(self) -> bool {
        matches!(self, Workload::Mesh64Lowload | Workload::Mesh256Sharded)
    }
}

#[allow(clippy::too_many_arguments)]
fn mesh(
    label: &'static str,
    nodes: usize,
    alloc: AllocatorKind,
    rate: f64,
    (warmup, measure, drain): (u64, u64, u64),
    seed: u64,
    shards: usize,
    chunk: u64,
) -> SimSpec {
    let mut net = NetworkConfig::paper_default(TopologyKind::Mesh, alloc);
    net.nodes = nodes;
    let cfg = SimConfig::new(net, rate)
        .with_windows(warmup, measure, drain)
        .with_seed(seed)
        .with_shards(shards);
    SimSpec {
        label,
        kind: SimKind::Mesh(cfg),
        chunk,
    }
}

/// Digests recorded for [`DEFAULT_SEED`]: one `scale workload label
/// digest` line per simulation; `#` starts a comment.
#[derive(Debug, Clone, Default)]
pub struct Recorded(Vec<(String, u64)>);

fn key(scale: Scale, workload: Workload, label: &str) -> String {
    format!("{} {} {label}", scale.name(), workload.name())
}

impl Recorded {
    /// The table checked in next to the benchmark.
    pub fn checked_in() -> Recorded {
        Recorded::parse(include_str!("../digests.txt"))
    }

    /// Parses a digest table; malformed lines are ignored, so a missing
    /// entry shows up as a failed check.
    pub fn parse(text: &str) -> Recorded {
        Recorded(
            text.lines()
                .filter_map(|l| {
                    let fields: Vec<&str> = l.split('#').next()?.split_whitespace().collect();
                    let [scale, workload, label, hex] = fields[..] else {
                        return None;
                    };
                    let digest = u64::from_str_radix(hex, 16).ok()?;
                    Some((format!("{scale} {workload} {label}"), digest))
                })
                .collect(),
        )
    }

    /// The recorded digest of one simulation, if any.
    pub fn get(&self, scale: Scale, workload: Workload, label: &str) -> Option<u64> {
        let k = key(scale, workload, label);
        self.0.iter().find(|(e, _)| *e == k).map(|e| e.1)
    }

    /// Replaces (or adds) one entry.
    pub fn set(&mut self, scale: Scale, workload: Workload, label: &str, digest: u64) {
        let k = key(scale, workload, label);
        self.0.retain(|(e, _)| *e != k);
        self.0.push((k, digest));
    }
}
