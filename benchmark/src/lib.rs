//! End-to-end and per-layer benchmark of the VIX simulator.
//!
//! A run repeats one workload's seeded simulations back to back until its
//! measuring time is spent, checks every simulated output, and reports
//! either the end-to-end metrics (tracing off) or the per-layer metrics
//! (a traced run). Layers are timed from outside, around calls to their
//! public functions; the traced run also turns on the engine's own phase
//! profiler. Repetition 0 warms the process up: its outputs are checked,
//! its timings are not used.
//!
//! Host time drifts on a shared host: identical repetitions of one
//! simulation run in speed modes about 1.4x apart that last tens of
//! seconds, so the median of one run lands in either mode and repeats
//! poorly from run to run. The end-to-end host-time figure is therefore the
//! 99th-percentile chunk time, whose slow tail is present in every run;
//! the median repetition rate (`sim_cycles_per_s`) and median chunk time
//! (`cycle_us_p50`) are printed and written to the result file, but kept
//! out of the result line.
//!
//! Every run reports both paper claims (`vix_over_if_pct` from
//! mesh64-saturated, `ipc_speedup` from cmp64-mix8). A workload that does
//! not own a claim runs the claim's simulations at its own seed after the
//! measured loop, untimed, and after the memory high-water mark is read.
//!
//! Checks, each counted as one failed simulation out of those attempted:
//!
//! * every repetition reproduces the first one's digest (same seed);
//! * conservation on mesh64-lowload and mesh256-sharded: every packet
//!   created in the measurement window leaves the network by the end of
//!   the drain window;
//! * shard parity: the sharded simulation's digest equals a serial run's
//!   on the same seed (the serial reference runs outside the timed loop);
//! * recorded digests: the workload at [`DEFAULT_SEED`] reproduces the
//!   digests recorded in `digests.txt`.

pub mod catalogue;
pub mod host;
pub mod quantile;
pub mod replay;
pub mod report;
pub mod sims;
pub mod spans;
pub mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use vix_telemetry::prof::{PhaseBreakdown, SpanKind, ENGINE_TRACK};

use crate::quantile::{median, percentile, Quartiles};
use crate::report::{Metric, Report};
use crate::sims::{run_sim, SimRun, SimSpec};
use crate::spans::SpanLog;
pub use crate::workload::{Recorded, Scale, Workload, DEFAULT_SEED};

/// Everything one run executes.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Simulation size.
    pub scale: Scale,
    /// Seed of the measured simulations.
    pub seed: u64,
    /// The simulations of one repetition.
    pub sims: Vec<SimSpec>,
    /// The same simulations at [`DEFAULT_SEED`], checked against `recorded`.
    pub default_sims: Vec<SimSpec>,
    /// Serial run the sharded simulation must reproduce.
    pub serial_reference: Option<SimSpec>,
    /// Whether conservation is checked.
    pub conservation: bool,
    /// Recorded default-seed digests.
    pub recorded: Recorded,
}

impl Plan {
    /// The plan for `workload` at `seed`, checked against the recorded
    /// digests.
    pub fn new(workload: Workload, scale: Scale, seed: u64) -> Plan {
        Plan {
            workload,
            scale,
            seed,
            sims: workload.sims(scale, seed),
            default_sims: workload.sims(scale, DEFAULT_SEED),
            serial_reference: workload.serial_reference(scale, seed),
            conservation: workload.checks_conservation(),
            recorded: Recorded::checked_in(),
        }
    }
}

/// How long to measure, and whether this is the traced run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Host seconds of repetitions after the warm-up repetition.
    pub seconds: f64,
    /// Report per-layer metrics from alternating traced repetitions
    /// instead of end-to-end metrics.
    pub trace: bool,
}

/// One repetition: every simulation of the plan, `None` where it failed.
#[derive(Debug)]
struct Rep {
    traced: bool,
    runs: Vec<Option<SimRun>>,
}

impl Rep {
    fn complete(&self) -> impl Iterator<Item = &SimRun> {
        self.runs.iter().flatten()
    }

    fn vix(&self) -> Option<&SimRun> {
        self.complete().find(|r| r.label == "VIX")
    }
}

/// Attempted and failed simulations, with the reason for each failure.
#[derive(Debug, Default)]
struct Ledger {
    attempted: u64,
    failures: Vec<String>,
}

impl Ledger {
    /// Runs one simulation; a build error or a panic counts as a failure.
    fn attempt(&mut self, spec: &SimSpec, log: &mut SpanLog, rep: u32) -> Option<SimRun> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(|| run_sim(spec, log, rep))) {
            Ok(Ok(run)) => Some(run),
            Ok(Err(e)) => {
                self.failures.push(format!("rep {rep} {}: {e}", spec.label));
                None
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("panic");
                self.failures
                    .push(format!("rep {rep} {}: panicked: {msg}", spec.label));
                None
            }
        }
    }

    /// Records the failed checks of one simulation as one failure.
    fn check(&mut self, what: String, reasons: Vec<String>) {
        if !reasons.is_empty() {
            self.failures
                .push(format!("{what}: {}", reasons.join("; ")));
        }
    }
}

/// Runs every simulation of `plan` once, with the engine profiler and the
/// span log on when `traced`.
fn run_rep(plan: &Plan, traced: bool, rep: u32, ledger: &mut Ledger, log: &mut SpanLog) -> Rep {
    log.set_enabled(traced);
    let runs = plan
        .sims
        .iter()
        .map(|spec| {
            let spec = if traced {
                spec.profiled()
            } else {
                spec.clone()
            };
            ledger.attempt(&spec, log, rep)
        })
        .collect();
    log.set_enabled(false);
    Rep { traced, runs }
}

/// Reasons `run` fails its checks against `expected` (a digest it must
/// reproduce, `None` when no reference exists).
fn check_run(run: &SimRun, expected: Option<u64>, what: &str, conservation: bool) -> Vec<String> {
    let mut why = Vec::new();
    match expected {
        Some(d) if d == run.digest => {}
        Some(d) => why.push(format!(
            "digest {:016x} differs from {what} {d:016x}",
            run.digest
        )),
        None => why.push(format!("no {what} digest to compare against")),
    }
    if let (true, Some(m)) = (conservation, run.mesh()) {
        if m.offered_in_window != m.ejected_in_window {
            why.push(format!(
                "conservation: {} packets created in the measurement window, {} ejected by the end of drain",
                m.offered_in_window, m.ejected_in_window
            ));
        }
    }
    why
}

/// Runs `plan` and returns its report.
pub fn execute(plan: &Plan, opts: &Options) -> Report {
    let epoch = Instant::now();
    let mut log = SpanLog::new(epoch);
    let mut ledger = Ledger::default();

    // The measured loop: repetition 0 warms up, then repetitions run until
    // the measuring time is spent. A traced run alternates untraced and
    // traced repetitions so host drift hits both alike.
    let mut reps = vec![run_rep(plan, false, 0, &mut ledger, &mut log)];
    let measured_from = Instant::now();
    let min_reps = if opts.trace { 3 } else { 2 };
    while reps.len() < min_reps || measured_from.elapsed().as_secs_f64() < opts.seconds {
        let rep = reps.len() as u32;
        let traced = opts.trace && rep.is_multiple_of(2);
        reps.push(run_rep(plan, traced, rep, &mut ledger, &mut log));
    }
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(0.0);

    // Checks, outside the measured loop.
    let reference = plan
        .serial_reference
        .as_ref()
        .and_then(|s| ledger.attempt(s, &mut log, u32::MAX));
    for (i, spec) in plan.sims.iter().enumerate() {
        let (expected, what) = if plan.serial_reference.is_some() {
            (reference.as_ref().map(|r| r.digest), "serial reference")
        } else {
            let first = reps.iter().find_map(|r| r.runs[i].as_ref());
            (first.map(|r| r.digest), "repetition 0")
        };
        for (r, rep) in reps.iter().enumerate() {
            if let Some(run) = &rep.runs[i] {
                let why = check_run(run, expected, what, plan.conservation);
                ledger.check(format!("rep {r} {}", spec.label), why);
            }
        }
    }
    let mut default_digests = Vec::new();
    for spec in &plan.default_sims {
        if let Some(run) = ledger.attempt(spec, &mut log, u32::MAX) {
            let recorded = plan.recorded.get(plan.scale, plan.workload, spec.label);
            let why = check_run(&run, recorded, "recorded", plan.conservation);
            ledger.check(format!("seed {DEFAULT_SEED} {}", spec.label), why);
            default_digests.push((spec.label, run.digest));
        }
    }

    // The paper-claim simulations: taken from this workload's warm-up
    // repetition when it is the claim's workload, else run here, untimed.
    let mut claim_runs = |w: Workload| -> Vec<SimRun> {
        if w == plan.workload {
            reps[0].complete().cloned().collect()
        } else {
            w.sims(plan.scale, plan.seed)
                .iter()
                .filter_map(|s| ledger.attempt(s, &mut log, u32::MAX))
                .collect()
        }
    };
    let saturated = claim_runs(Workload::Mesh64Saturated);
    let cmp = if opts.trace {
        Vec::new()
    } else {
        claim_runs(Workload::Cmp64Mix8)
    };

    let metrics = if opts.trace {
        per_layer(plan, &reps, &saturated, &mut log)
    } else {
        end_to_end(&reps, peak_rss_mb, &saturated, &cmp)
    };
    let breakdowns = reps
        .iter()
        .enumerate()
        .flat_map(|(r, rep)| {
            rep.complete().filter_map(move |run| {
                run.mesh()
                    .and_then(|m| m.breakdown.as_ref())
                    .map(|b| (r as u32, run.label, b.to_json()))
            })
        })
        .collect();
    Report {
        workload: plan.workload,
        seed: plan.seed,
        trace: opts.trace,
        fingerprint: host::Fingerprint::detect(),
        reps: reps.len(),
        traced_reps: reps.iter().filter(|r| r.traced).count(),
        chunk_samples: timed(&reps, false)
            .flat_map(|r| r.complete())
            .map(|r| full_chunks(r).count())
            .sum(),
        attempted: ledger.attempted,
        failures: ledger.failures,
        metrics,
        default_digests,
        breakdowns,
        spans: log,
    }
}

/// Repetitions after the warm-up whose every simulation completed, traced
/// or untraced.
fn timed(reps: &[Rep], traced: bool) -> impl Iterator<Item = &Rep> {
    reps.iter()
        .skip(1)
        .filter(move |r| r.traced == traced && r.runs.iter().all(Option::is_some))
}

/// `(cycles, ns)` of a run's chunks of the full chunk size.
fn full_chunks(run: &SimRun) -> impl Iterator<Item = &(u64, u64)> {
    let size = run.chunks.iter().map(|c| c.0).max().unwrap_or(0);
    run.chunks.iter().filter(move |c| c.0 == size)
}

/// Host µs per simulated cycle of every full-size chunk.
fn chunk_us(reps: &[Rep], traced: bool) -> Vec<f64> {
    timed(reps, traced)
        .flat_map(|r| r.complete())
        .flat_map(|run| full_chunks(run).map(|&(c, ns)| ns as f64 / c as f64 / 1e3))
        .collect()
}

/// Simulated cycles per host second of stepping, one sample per repetition.
fn rep_rates(reps: &[Rep], traced: bool) -> Vec<f64> {
    timed(reps, traced)
        .map(|r| {
            let cycles: u64 = r.complete().map(|s| s.cycles).sum();
            let ns: u64 = r.complete().map(SimRun::step_ns).sum();
            cycles as f64 * 1e9 / ns.max(1) as f64
        })
        .collect()
}

fn find<'a>(runs: &'a [SimRun], label: &str) -> Option<&'a SimRun> {
    runs.iter().find(|r| r.label == label)
}

fn end_to_end(reps: &[Rep], peak_rss_mb: f64, saturated: &[SimRun], cmp: &[SimRun]) -> Vec<Metric> {
    let setup: Vec<f64> = timed(reps, false)
        .map(|r| r.complete().map(|s| s.build_ns).sum::<u64>() as f64 / 1e9)
        .collect();
    let chunk_us = chunk_us(reps, false);
    let chunk_q = Quartiles::of(&chunk_us);
    let accepted = |label| {
        find(saturated, label)
            .and_then(SimRun::mesh)
            .map_or(0.0, |m| m.accepted)
    };
    let ipc = |label| {
        find(cmp, label)
            .and_then(SimRun::cmp)
            .map_or(0.0, |r| r.total_ipc())
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    vec![
        Metric::sampled("setup_s", &setup),
        Metric::new("cycle_us_p99", percentile(&chunk_us, 99.0).unwrap_or(0.0))
            .with_quartiles(chunk_q),
        Metric::new("peak_rss_mb", peak_rss_mb),
        Metric::new(
            "vix_over_if_pct",
            (ratio(accepted("VIX"), accepted("IF")) - 1.0) * 100.0,
        ),
        Metric::new("ipc_speedup", ratio(ipc("VIX"), ipc("IF"))),
        Metric::sampled("sim_cycles_per_s", &rep_rates(reps, false)),
        Metric::new("cycle_us_p50", percentile(&chunk_us, 50.0).unwrap_or(0.0))
            .with_quartiles(chunk_q),
    ]
}

/// Phase totals, per-track busy/barrier and cycles summed over the traced
/// repetitions' network simulations.
#[derive(Default)]
struct Phases {
    total_ns: [u64; SpanKind::COUNT],
    cycles: u64,
    router_steps: u64,
    /// `(busy_ns, barrier_ns)` per shard track.
    shards: Vec<(u64, u64)>,
}

impl Phases {
    fn add(&mut self, b: &PhaseBreakdown, cycles: u64, router_steps: u64) {
        for (t, slot) in self.total_ns.iter_mut().zip(&b.totals) {
            *t += slot.total_ns;
        }
        self.cycles += cycles;
        self.router_steps += router_steps;
        // Each sharded `run_cycles` call absorbs fresh worker tracks, so
        // a shard's time is spread over many entries of one track id.
        for t in b.per_track.iter().filter(|t| t.track != ENGINE_TRACK) {
            let i = t.track as usize;
            if self.shards.len() <= i {
                self.shards.resize(i + 1, (0, 0));
            }
            self.shards[i].0 += t.busy_ns;
            self.shards[i].1 += t.barrier_ns;
        }
    }

    fn per_cycle(&self, kind: SpanKind) -> f64 {
        self.total_ns[kind as usize] as f64 / self.cycles.max(1) as f64
    }

    fn share_pct(&self, kind: SpanKind) -> f64 {
        let accounted: u64 = self.total_ns.iter().sum();
        self.total_ns[kind as usize] as f64 * 100.0 / accounted.max(1) as f64
    }
}

fn per_layer(plan: &Plan, reps: &[Rep], saturated: &[SimRun], log: &mut SpanLog) -> Vec<Metric> {
    let mut phases = Phases::default();
    let (mut sim_build_ms, mut cmp_build_ms) = (Vec::new(), Vec::new());
    for run in timed(reps, true).flat_map(|r| r.complete()) {
        let ms = run.build_ns as f64 / 1e6;
        match run.mesh() {
            Some(m) => {
                sim_build_ms.push(ms);
                if let Some(b) = &m.breakdown {
                    phases.add(b, run.cycles, m.router_steps);
                }
            }
            None => cmp_build_ms.push(ms),
        }
    }
    let vix = reps.iter().find_map(Rep::vix);
    let mesh = vix.and_then(SimRun::mesh);
    let system = vix.and_then(SimRun::cmp);
    let per_cycle = |n: u64| vix.map_or(0.0, |r| n as f64 / r.cycles as f64);

    // The allocator replay draws its request sets at the per-call request
    // count of mesh64-saturated's VIX simulation.
    let sat_matching = find(saturated, "VIX")
        .and_then(SimRun::mesh)
        .map(|m| m.matching);
    let sat_requests = sat_matching.map_or(0.0, |m| m.requests as f64 / m.cycles.max(1) as f64);
    log.set_enabled(true);
    let replay = replay::replay(sat_requests, plan.seed, log, u32::MAX);
    log.set_enabled(false);

    let busy_ratio = |&(busy, barrier): &(u64, u64)| busy as f64 / (busy + barrier).max(1) as f64;
    let busy_max = phases.shards.iter().map(|s| s.0).max().unwrap_or(0);
    let busy_min = phases.shards.iter().map(|s| s.0).min().unwrap_or(0);
    let sharded = phases.shards.len() > 1;
    let overhead = {
        let plain = median(&rep_rates(reps, false));
        let traced = median(&rep_rates(reps, true));
        if traced > 0.0 {
            (plain / traced - 1.0) * 100.0
        } else {
            0.0
        }
    };
    vec![
        Metric::sampled("sim.build_ms", &sim_build_ms),
        Metric::new("sim.traffic_gen_ns", phases.per_cycle(SpanKind::TrafficGen)),
        Metric::new(
            "sim.source_inject_ns",
            phases.per_cycle(SpanKind::SourceInject),
        ),
        Metric::new("sim.deliver_ns", phases.per_cycle(SpanKind::Deliver)),
        Metric::new(
            "sim.credit_deliver_ns",
            phases.per_cycle(SpanKind::CreditDeliver),
        ),
        Metric::new("sim.stats_merge_ns", phases.per_cycle(SpanKind::StatsMerge)),
        Metric::new(
            "sim.router_steps_per_cycle",
            mesh.map_or(0.0, |m| per_cycle(m.router_steps)),
        ),
        Metric::new(
            "sim.accepted_flits_per_node_cycle",
            mesh.map_or(0.0, |m| m.accepted),
        ),
        Metric::new("sim.avg_latency_cycles", mesh.map_or(0.0, |m| m.latency)),
        Metric::new(
            "router.step_ns",
            phases.total_ns[SpanKind::RouterStep as usize] as f64
                / phases.router_steps.max(1) as f64,
        ),
        Metric::new(
            "router.step_share_pct",
            phases.share_pct(SpanKind::RouterStep),
        ),
        Metric::new(
            "router.xbar_traversals_per_cycle",
            mesh.map_or(0.0, |m| per_cycle(m.activity.crossbar_traversals)),
        ),
        Metric::new(
            "router.buffer_writes_per_cycle",
            mesh.map_or(0.0, |m| per_cycle(m.activity.buffer_writes)),
        ),
        Metric::new("alloc.if_ns", replay.if_ns),
        Metric::new("alloc.vix_ns", replay.vix_ns),
        Metric::new("alloc.replay_requests_per_call", replay.requests_per_call),
        Metric::new("alloc.if_grants_per_call", replay.if_grants_per_call),
        Metric::new("alloc.vix_grants_per_call", replay.vix_grants_per_call),
        Metric::new(
            "alloc.matching_efficiency",
            mesh.map_or(0.0, |m| m.matching.efficiency()),
        ),
        Metric::new(
            "alloc.requests_per_cycle",
            mesh.map_or(0.0, |m| {
                m.matching.requests as f64 / m.matching.cycles.max(1) as f64
            }),
        ),
        Metric::new(
            "shard.busy_ratio_min",
            if sharded {
                phases.shards.iter().map(busy_ratio).fold(1.0, f64::min)
            } else {
                0.0
            },
        ),
        Metric::new(
            "shard.barrier_share_pct",
            if sharded {
                phases.share_pct(SpanKind::BarrierWait)
            } else {
                0.0
            },
        ),
        Metric::new(
            "shard.imbalance_pct",
            if sharded {
                (busy_max - busy_min) as f64 * 100.0 / busy_max.max(1) as f64
            } else {
                0.0
            },
        ),
        Metric::new(
            "shard.exchange_ns",
            if sharded {
                phases.per_cycle(SpanKind::Exchange)
            } else {
                0.0
            },
        ),
        Metric::sampled("cmp.build_ms", &cmp_build_ms),
        Metric::new(
            "cmp.misses_issued",
            system.map_or(0.0, |r| r.misses_issued as f64),
        ),
        Metric::new("cmp.l2_miss_ratio", system.map_or(0.0, |r| r.l2_miss_ratio)),
        Metric::new(
            "cmp.memory_requests",
            system.map_or(0.0, |r| r.memory_requests as f64),
        ),
        Metric::new("telemetry.prof_overhead_pct", overhead),
    ]
}
