//! One simulation of a workload: build it, step it in fixed-size timed
//! chunks, and reduce its outputs to the results, counts and digest the
//! benchmark checks.

use std::time::Instant;

use vix_core::config::TelemetrySettings;
use vix_core::{ActivityCounters, AllocatorKind, SimConfig};
use vix_manycore::{ManycoreSystem, Mix, SystemResult};
use vix_sim::NetworkSim;
use vix_telemetry::prof::PhaseBreakdown;
use vix_telemetry::MatchingSummary;

use crate::spans::SpanLog;

/// Spans the engine profiler keeps per track. Phase totals are exact
/// whatever the ring size; the ring only bounds memory.
const PROFILE_SPAN_CAPACITY: usize = 1024;

/// What to simulate.
#[derive(Debug, Clone)]
pub enum SimKind {
    /// A [`NetworkSim`] driven by its built-in traffic generator through
    /// the warmup/measure/drain windows of the configuration.
    Mesh(SimConfig),
    /// A [`ManycoreSystem`] stepped through `warmup` then `measure` cycles.
    Cmp {
        /// Application mix.
        mix: Mix,
        /// Switch allocator of every router.
        alloc: AllocatorKind,
        /// System seed.
        seed: u64,
        /// Unmeasured cycles.
        warmup: u64,
        /// Measured cycles.
        measure: u64,
    },
}

/// One simulation of a workload repetition.
#[derive(Debug, Clone)]
pub struct SimSpec {
    /// `IF`, `VIX`, or `VIX-serial` for the sharded run's serial reference.
    pub label: &'static str,
    /// The simulation.
    pub kind: SimKind,
    /// Cycles per timed chunk of `run_cycles` / `step` calls.
    pub chunk: u64,
}

impl SimSpec {
    /// The same simulation with the engine's phase profiler on. Profiling
    /// reads only the host clock, so results stay bit-identical.
    pub fn profiled(&self) -> SimSpec {
        let mut spec = self.clone();
        if let SimKind::Mesh(cfg) = &mut spec.kind {
            cfg.telemetry = TelemetrySettings::disabled()
                .with_profile_span_capacity(PROFILE_SPAN_CAPACITY)
                .with_profiling(true);
        }
        spec
    }

    /// Simulated cycles one run steps through.
    pub fn cycles(&self) -> u64 {
        match &self.kind {
            SimKind::Mesh(cfg) => cfg.warmup + cfg.measure + cfg.drain,
            SimKind::Cmp {
                warmup, measure, ..
            } => warmup + measure,
        }
    }
}

/// Results of a [`NetworkSim`] run.
#[derive(Debug, Clone)]
pub struct MeshOutcome {
    /// Accepted flits per node per cycle in the measurement window.
    pub accepted: f64,
    /// Mean packet latency in cycles.
    pub latency: f64,
    /// Router steps the activity-gated scheduler performed.
    pub router_steps: u64,
    /// Router activity summed over every router.
    pub activity: ActivityCounters,
    /// Allocator matching record merged over every router.
    pub matching: MatchingSummary,
    /// Packets created during the measurement window.
    pub offered_in_window: u64,
    /// Of those, packets whose tail left the network by the end of the run.
    pub ejected_in_window: u64,
    /// Engine phase breakdown, when the run was profiled.
    pub breakdown: Option<Box<PhaseBreakdown>>,
}

/// Results of one simulation.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Network simulation.
    Mesh(MeshOutcome),
    /// CMP simulation, over the measured window.
    Cmp(SystemResult),
}

/// One finished simulation with its host timings.
#[derive(Debug, Clone)]
pub struct SimRun {
    /// The spec's label.
    pub label: &'static str,
    /// Simulated cycles stepped.
    pub cycles: u64,
    /// Host ns spent in the build call.
    pub build_ns: u64,
    /// `(cycles, host ns)` of every timed chunk.
    pub chunks: Vec<(u64, u64)>,
    /// FNV-1a digest of every simulated output (see [`Digest`]).
    pub digest: u64,
    /// Simulated results.
    pub outcome: Outcome,
}

impl SimRun {
    /// Host ns spent stepping (the sum of the chunk timings).
    pub fn step_ns(&self) -> u64 {
        self.chunks.iter().map(|c| c.1).sum()
    }

    /// The network outcome, if this was a network simulation.
    pub fn mesh(&self) -> Option<&MeshOutcome> {
        match &self.outcome {
            Outcome::Mesh(m) => Some(m),
            Outcome::Cmp(_) => None,
        }
    }

    /// The CMP outcome, if this was a CMP simulation.
    pub fn cmp(&self) -> Option<&SystemResult> {
        match &self.outcome {
            Outcome::Cmp(r) => Some(r),
            Outcome::Mesh(_) => None,
        }
    }
}

/// 64-bit FNV-1a over little-endian words: order-sensitive, so a digest
/// pins the ejection sequence as well as the totals.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    /// The empty digest.
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `words` into the digest.
    pub fn write(&mut self, words: &[u64]) {
        for w in words {
            for b in w.to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

/// Runs one simulation, recording a span around every layer call into
/// `log` under repetition `rep`, with the simulation's own span as parent.
///
/// # Errors
///
/// Returns the build error of an invalid configuration.
pub fn run_sim(spec: &SimSpec, log: &mut SpanLog, rep: u32) -> Result<SimRun, String> {
    let sim_id = log.reserve();
    let start = Instant::now();
    let run = match &spec.kind {
        SimKind::Mesh(cfg) => run_mesh(spec, *cfg, log, rep, sim_id),
        SimKind::Cmp {
            mix,
            alloc,
            seed,
            warmup,
            measure,
        } => Ok(run_cmp(
            spec, mix, *alloc, *seed, *warmup, *measure, log, rep, sim_id,
        )),
    };
    log.record(sim_id, 0, rep, spec.label, start, Instant::now());
    run
}

fn ns(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

fn run_mesh(
    spec: &SimSpec,
    cfg: SimConfig,
    log: &mut SpanLog,
    rep: u32,
    parent: u32,
) -> Result<SimRun, String> {
    let id = log.reserve();
    let t0 = Instant::now();
    let mut sim = NetworkSim::build(cfg).map_err(|e| format!("NetworkSim::build: {e}"))?;
    let t1 = Instant::now();
    log.record(id, parent, rep, "NetworkSim::build", t0, t1);
    let build_ns = ns(t0, t1);

    let total = spec.cycles();
    let window = cfg.warmup..cfg.warmup + cfg.measure;
    let mut digest = Digest::new();
    let mut chunks = Vec::with_capacity(total.div_ceil(spec.chunk) as usize);
    let mut ejected = Vec::new();
    let mut ejected_in_window = 0;
    let mut done = 0;
    while done < total {
        let n = spec.chunk.min(total - done);
        let id = log.reserve();
        let t0 = Instant::now();
        sim.run_cycles(n);
        let t1 = Instant::now();
        log.record(id, parent, rep, "NetworkSim::run_cycles", t0, t1);
        chunks.push((n, ns(t0, t1)));
        sim.take_ejections_into(&mut ejected);
        for e in ejected.drain(..) {
            let p = &e.packet;
            digest.write(&[
                p.id.0,
                p.source.0 as u64,
                p.dest.0 as u64,
                p.created_at.0,
                e.at.0,
            ]);
            ejected_in_window += u64::from(window.contains(&p.created_at.0));
        }
        done += n;
    }

    let id = log.reserve();
    let t0 = Instant::now();
    let router_steps = sim.router_steps();
    log.record(
        id,
        parent,
        rep,
        "NetworkSim::router_steps",
        t0,
        Instant::now(),
    );
    let id = log.reserve();
    let t0 = Instant::now();
    let stats = sim.stats();
    let accepted = stats.accepted_flits_per_node_cycle();
    let latency = stats.avg_packet_latency();
    let offered =
        stats.offered_packets_per_node_cycle() * (stats.nodes() as u64 * cfg.measure) as f64;
    digest.write(&[
        stats.packets_ejected(),
        stats.flits_ejected(),
        stats.max_packet_latency(),
        stats.p99_packet_latency().unwrap_or(u64::MAX),
        accepted.to_bits(),
        latency.to_bits(),
        offered.to_bits(),
    ]);
    digest.write(stats.per_source_packets());
    log.record(id, parent, rep, "NetworkSim::stats", t0, Instant::now());

    let activity = sim.aggregate_activity();
    let a = &activity;
    digest.write(&[
        a.cycles,
        a.routers,
        a.buffer_writes,
        a.buffer_reads,
        a.crossbar_traversals,
        a.link_traversals,
        a.ejections,
        a.sa_arbitrations,
        a.va_arbitrations,
        a.bits_delivered,
    ]);
    let matching = sim.matching_summary();
    let m = &matching;
    digest.write(&[
        m.cycles,
        m.requests,
        m.survivors,
        m.grants,
        m.match_bound,
        m.virtual_inputs,
    ]);

    Ok(SimRun {
        label: spec.label,
        cycles: total,
        build_ns,
        chunks,
        digest: digest.finish(),
        outcome: Outcome::Mesh(MeshOutcome {
            accepted,
            latency,
            router_steps,
            activity,
            matching,
            offered_in_window: offered.round() as u64,
            ejected_in_window,
            breakdown: sim.telemetry().profiler().map(|p| Box::new(p.breakdown())),
        }),
    })
}

/// Steps the CMP through its warmup with `step` and its measured window
/// with one `run_windows(0, chunk)` call per chunk. Each call reports
/// per-core IPC over its own chunk; the committed-instruction counts are
/// recovered exactly from those and summed, so the result is bit-identical
/// to one `run_windows(warmup, measure)` call (pinned by a unit test).
#[allow(clippy::too_many_arguments)]
fn run_cmp(
    spec: &SimSpec,
    mix: &Mix,
    alloc: AllocatorKind,
    seed: u64,
    warmup: u64,
    measure: u64,
    log: &mut SpanLog,
    rep: u32,
    parent: u32,
) -> SimRun {
    let id = log.reserve();
    let t0 = Instant::now();
    let mut sys = ManycoreSystem::build(mix, alloc, seed);
    let t1 = Instant::now();
    log.record(id, parent, rep, "ManycoreSystem::build", t0, t1);
    let build_ns = ns(t0, t1);

    let mut chunks = Vec::with_capacity((warmup + measure).div_ceil(spec.chunk) as usize);
    let mut done = 0;
    while done < warmup {
        let n = spec.chunk.min(warmup - done);
        let id = log.reserve();
        let t0 = Instant::now();
        for _ in 0..n {
            sys.step();
        }
        let t1 = Instant::now();
        log.record(id, parent, rep, "ManycoreSystem::step", t0, t1);
        chunks.push((n, ns(t0, t1)));
        done += n;
    }
    let mut committed: Vec<u64> = Vec::new();
    let mut last = None;
    let mut done = 0;
    while done < measure {
        let n = spec.chunk.min(measure - done);
        let id = log.reserve();
        let t0 = Instant::now();
        let r = sys.run_windows(0, n);
        let t1 = Instant::now();
        log.record(id, parent, rep, "ManycoreSystem::run_windows", t0, t1);
        chunks.push((n, ns(t0, t1)));
        committed.resize(r.per_core_ipc.len(), 0);
        for (c, ipc) in committed.iter_mut().zip(&r.per_core_ipc) {
            *c += (ipc * n as f64).round() as u64;
        }
        last = Some(r);
        done += n;
    }
    let last = last.expect("the measured window holds at least one chunk");
    let result = SystemResult {
        per_core_ipc: committed
            .iter()
            .map(|&c| c as f64 / measure as f64)
            .collect(),
        cycles: measure,
        ..last
    };
    let mut digest = Digest::new();
    digest.write(&committed);
    digest.write(&[
        result.misses_issued,
        result.writebacks_issued,
        result.l2_miss_ratio.to_bits(),
        result.memory_requests,
    ]);
    SimRun {
        label: spec.label,
        cycles: warmup + measure,
        build_ns,
        chunks,
        digest: digest.finish(),
        outcome: Outcome::Cmp(result),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_cmp_run_matches_one_run_windows_call() {
        let mix = Mix::table4()[7].clone();
        let spec = SimSpec {
            label: "VIX",
            kind: SimKind::Cmp {
                mix: mix.clone(),
                alloc: AllocatorKind::Vix,
                seed: 3,
                warmup: 150,
                measure: 450,
            },
            chunk: 100,
        };
        let mut log = SpanLog::new(Instant::now());
        let run = run_sim(&spec, &mut log, 0).unwrap();
        let whole = ManycoreSystem::build(&mix, AllocatorKind::Vix, 3).run_windows(150, 450);
        assert_eq!(run.cmp().unwrap(), &whole);
        assert_eq!(run.chunks.iter().map(|c| c.0).sum::<u64>(), 600);
    }

    #[test]
    fn profiling_leaves_the_digest_unchanged() {
        let mut net = vix_core::NetworkConfig::paper_default(
            vix_core::TopologyKind::Mesh,
            AllocatorKind::Vix,
        );
        net.nodes = 16;
        let cfg = SimConfig::new(net, 0.05).with_windows(50, 200, 100);
        let plain = SimSpec {
            label: "VIX",
            kind: SimKind::Mesh(cfg),
            chunk: 64,
        };
        let mut log = SpanLog::new(Instant::now());
        let a = run_sim(&plain, &mut log, 0).unwrap();
        let b = run_sim(&plain.profiled(), &mut log, 1).unwrap();
        assert_eq!(a.digest, b.digest);
        assert!(a.mesh().unwrap().breakdown.is_none());
        assert!(b.mesh().unwrap().breakdown.is_some());
    }
}
