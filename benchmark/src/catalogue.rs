//! Every metric the benchmark reports: its unit, and for a per-layer
//! metric the end-to-end metric and workload it should move. The names
//! and units here are the ones `BENCHMARK.json` declares (a test holds
//! the two together).

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// What it measures (end to end) or what it should move (per layer).
    pub about: &'static str,
}

const fn m(name: &'static str, unit: &'static str, about: &'static str) -> MetricDef {
    MetricDef { name, unit, about }
}

/// Metrics of a run with tracing off. Host time is simulator wall time;
/// simulated results come from an unvalidated model.
pub const END_TO_END: &[MetricDef] = &[
    m(
        "setup_s",
        "s",
        "host s building every simulator of one repetition (median)",
    ),
    m(
        "cycle_us_p99",
        "us",
        "host us per simulated cycle, 99th-percentile chunk",
    ),
    m(
        "peak_rss_mb",
        "MiB",
        "host resident-set high-water mark (VmHWM)",
    ),
    m(
        "vix_over_if_pct",
        "%",
        "mesh64-saturated VIX / IF accepted flits - 1 (paper Fig 8: +16.2 %)",
    ),
    m(
        "ipc_speedup",
        "ratio",
        "cmp64-mix8 VIX / IF total IPC (paper Table 4 Mix8: 1.07)",
    ),
];

/// Host-time figures of a run with tracing off that move with the host's
/// speed mode: printed and written to the result file, not part of the
/// result line.
pub const HOST_MODE: &[MetricDef] = &[
    m(
        "sim_cycles_per_s",
        "cycles/s",
        "not on the result line: simulated cycles per host s of stepping, median repetition",
    ),
    m(
        "cycle_us_p50",
        "us",
        "not on the result line: host us per simulated cycle, median chunk",
    ),
];

/// Metrics of a traced run, grouped by crate.
pub const PER_LAYER: &[MetricDef] = &[
    m("sim.build_ms", "ms", "setup_s on every mesh workload"),
    m(
        "sim.traffic_gen_ns",
        "ns/cycle",
        "cycle_us_p99 on mesh64-lowload",
    ),
    m(
        "sim.source_inject_ns",
        "ns/cycle",
        "cycle_us_p99 on mesh64-lowload",
    ),
    m(
        "sim.deliver_ns",
        "ns/cycle",
        "cycle_us_p99 on mesh64-lowload",
    ),
    m(
        "sim.credit_deliver_ns",
        "ns/cycle",
        "cycle_us_p99 on mesh64-lowload; 0 while gated engines fold it into deliver",
    ),
    m(
        "sim.stats_merge_ns",
        "ns/cycle",
        "cycle_us_p99 on mesh256-sharded; only the shard coordinator merges",
    ),
    m(
        "sim.router_steps_per_cycle",
        "steps/cycle",
        "cycle_us_p99 on mesh64-lowload (exact count)",
    ),
    m(
        "sim.accepted_flits_per_node_cycle",
        "flits/node/cycle",
        "none: simulated result, must stay bit-identical",
    ),
    m(
        "sim.avg_latency_cycles",
        "cycles",
        "none: simulated result, must stay bit-identical",
    ),
    m(
        "router.step_ns",
        "ns/step",
        "cycle_us_p99 on mesh64-saturated, mesh256-sharded",
    ),
    m(
        "router.step_share_pct",
        "%",
        "cycle_us_p99 on mesh64-saturated, mesh256-sharded",
    ),
    m(
        "router.xbar_traversals_per_cycle",
        "flits/cycle",
        "none: exact count of modelled work",
    ),
    m(
        "router.buffer_writes_per_cycle",
        "writes/cycle",
        "none: exact count of modelled work",
    ),
    m(
        "alloc.if_ns",
        "ns/call",
        "cycle_us_p99 on mesh64-saturated; no change on mesh64-lowload",
    ),
    m(
        "alloc.vix_ns",
        "ns/call",
        "cycle_us_p99 on mesh64-saturated; no change on mesh64-lowload",
    ),
    m(
        "alloc.replay_requests_per_call",
        "requests/call",
        "none: replay input size",
    ),
    m(
        "alloc.if_grants_per_call",
        "grants/call",
        "none: replay output size",
    ),
    m(
        "alloc.vix_grants_per_call",
        "grants/call",
        "none: replay output size",
    ),
    m(
        "alloc.matching_efficiency",
        "ratio",
        "none: exact, grants / match bound",
    ),
    m(
        "alloc.requests_per_cycle",
        "requests/cycle",
        "none: exact, requests per non-empty allocation",
    ),
    m(
        "shard.busy_ratio_min",
        "ratio",
        "cycle_us_p99 on mesh256-sharded only",
    ),
    m(
        "shard.barrier_share_pct",
        "%",
        "cycle_us_p99 on mesh256-sharded only",
    ),
    m(
        "shard.imbalance_pct",
        "%",
        "cycle_us_p99 on mesh256-sharded only",
    ),
    m(
        "shard.exchange_ns",
        "ns/cycle",
        "cycle_us_p99 on mesh256-sharded only",
    ),
    m("cmp.build_ms", "ms", "setup_s on cmp64-mix8"),
    m(
        "cmp.misses_issued",
        "count",
        "none: exact, modelled work on cmp64-mix8",
    ),
    m(
        "cmp.l2_miss_ratio",
        "ratio",
        "none: exact, modelled work on cmp64-mix8",
    ),
    m(
        "cmp.memory_requests",
        "count",
        "none: exact, modelled work on cmp64-mix8",
    ),
    m(
        "telemetry.prof_overhead_pct",
        "%",
        "none: profiling is off in end-to-end runs",
    ),
];

/// Whether a metric goes on the result line (end-to-end or per-layer).
pub fn in_result_line(name: &str) -> bool {
    END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name)
}

/// The definition of a metric by name.
pub fn def(name: &str) -> &'static MetricDef {
    END_TO_END
        .iter()
        .chain(HOST_MODE)
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}
