//! The benchmark's own tests, at smoke size: every declared metric is
//! reported with its unit, every workload passes its checks, and planted
//! check failures are counted as failed simulations.

use std::process::Command;

use vix_core::SimConfig;
use vix_e2e_bench::sims::SimKind;
use vix_e2e_bench::{execute, Options, Plan, Scale, Workload, DEFAULT_SEED};
use vix_telemetry::json::{self, JsonValue};

const SMOKE: Options = Options {
    seconds: 0.0,
    trace: false,
};
const SMOKE_TRACED: Options = Options {
    seconds: 0.0,
    trace: true,
};

fn benchmark_json() -> JsonValue {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits next to the benchmark directory");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(JsonValue::as_array)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .expect("name and unit are strings")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

/// `(name, unit)` of every metric on a result line, in order.
fn printed(line: &str) -> Vec<(String, String)> {
    let v = json::parse(line).expect("the result line is JSON");
    v.get("metrics")
        .and_then(JsonValue::as_object)
        .expect("metrics is an object")
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(JsonValue::as_f64).is_some(),
                "{name} has a numeric value"
            );
            (
                name.clone(),
                m.get("unit")
                    .and_then(JsonValue::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

fn failed(line: &str) -> u64 {
    json::parse(line)
        .unwrap()
        .get("failed")
        .and_then(JsonValue::as_u64)
        .unwrap()
}

#[test]
fn every_declared_metric_is_printed_with_its_unit_on_every_workload() {
    let workloads: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        })
        .collect();
    assert_eq!(workloads, Workload::ALL.map(|w| w.name()));
    for w in Workload::ALL {
        for (opts, section) in [(SMOKE, "end_to_end"), (SMOKE_TRACED, "per_layer")] {
            let report = execute(&Plan::new(w, Scale::Smoke, DEFAULT_SEED), &opts);
            assert!(
                report.correct(),
                "{} {section}: {:?}",
                w.name(),
                report.failures
            );
            let line = report.json_line();
            assert_eq!(printed(&line), declared(section), "{} {section}", w.name());
            assert_eq!(failed(&line), 0);
            for m in &report.metrics {
                assert!(m.value.is_finite(), "{} {}", w.name(), m.name);
            }
            let human = report.render();
            for (name, unit) in declared(section) {
                assert!(
                    human.contains(&name) && human.contains(&unit),
                    "{name} [{unit}] in the table"
                );
            }
        }
    }
}

#[test]
fn end_to_end_metrics_are_positive_and_the_result_file_carries_host_and_quartiles() {
    let report = execute(
        &Plan::new(Workload::Mesh64Saturated, Scale::Smoke, DEFAULT_SEED),
        &SMOKE,
    );
    for m in &report.metrics {
        assert!(m.value > 0.0, "{} = {}", m.name, m.value);
    }
    let speedup = report.metric("ipc_speedup").unwrap().value;
    assert!((0.5..2.0).contains(&speedup), "ipc_speedup {speedup}");

    let file = json::parse(&report.result_json()).expect("the result file is JSON");
    let host = file.get("host").expect("host fingerprint");
    for key in ["cpu", "rustc", "git_rev"] {
        assert!(
            host.get(key).and_then(JsonValue::as_str).is_some(),
            "host.{key}"
        );
    }
    assert!(host.get("nproc").and_then(JsonValue::as_u64).unwrap() >= 1);
    let cps = file
        .get("metrics")
        .and_then(|m| m.get("sim_cycles_per_s"))
        .unwrap();
    let q = |k| cps.get(k).and_then(JsonValue::as_f64).unwrap();
    assert!(q("q1") <= q("median") && q("median") <= q("q3"));
}

#[test]
fn a_planted_digest_mismatch_is_a_failed_simulation() {
    let mut plan = Plan::new(Workload::Mesh64Lowload, Scale::Smoke, 5);
    let good = plan
        .recorded
        .get(Scale::Smoke, Workload::Mesh64Lowload, "VIX")
        .expect("smoke digest recorded");
    plan.recorded
        .set(Scale::Smoke, Workload::Mesh64Lowload, "VIX", good ^ 1);
    let report = execute(&plan, &SMOKE);
    assert!(!report.correct());
    assert_eq!(failed(&report.json_line()), 1, "{:?}", report.failures);
    assert!(
        report.failures[0].contains("recorded"),
        "{:?}",
        report.failures
    );
}

#[test]
fn a_planted_conservation_failure_is_a_failed_simulation() {
    let mut plan = Plan::new(Workload::Mesh64Lowload, Scale::Smoke, 5);
    // No drain window: packets created late in the measurement window are
    // still in flight when the run ends.
    if let SimKind::Mesh(cfg) = &mut plan.sims[0].kind {
        *cfg = SimConfig { drain: 0, ..*cfg };
    }
    let report = execute(&plan, &SMOKE);
    assert!(!report.correct());
    assert_eq!(
        report.failures.len() as u64,
        report.reps as u64,
        "every repetition fails once: {:?}",
        report.failures
    );
    assert!(
        report.failures.iter().all(|f| f.contains("conservation")),
        "{:?}",
        report.failures
    );
    assert_eq!(failed(&report.json_line()), report.reps as u64);
}

#[test]
fn a_sharded_run_that_diverges_from_its_serial_reference_fails() {
    let mut plan = Plan::new(Workload::Mesh256Sharded, Scale::Smoke, 5);
    let reference = plan.serial_reference.as_mut().unwrap();
    if let SimKind::Mesh(cfg) = &mut reference.kind {
        cfg.seed += 1;
    }
    let report = execute(&plan, &SMOKE);
    assert_eq!(report.failures.len(), report.reps, "{:?}", report.failures);
    assert!(report
        .failures
        .iter()
        .all(|f| f.contains("serial reference")));
}

#[test]
fn the_command_line_rejects_bad_arguments() {
    let bench = env!("CARGO_BIN_EXE_vix-e2e-bench");
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "cmp64-mix8", "--trace", "2"],
    ] {
        let out = Command::new(bench).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "no result is printed for {args:?}");
    }
}

#[test]
fn a_traced_run_records_a_span_around_every_layer_call() {
    let names = |w| {
        let report = execute(&Plan::new(w, Scale::Smoke, DEFAULT_SEED), &SMOKE_TRACED);
        assert!(report.correct(), "{:?}", report.failures);
        let mut names: Vec<&str> = report.spans.spans().iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        (names, report.breakdowns.len())
    };
    let (mesh, breakdowns) = names(Workload::Mesh64Saturated);
    for call in [
        "NetworkSim::build",
        "NetworkSim::run_cycles",
        "NetworkSim::router_steps",
        "NetworkSim::stats",
        "SwitchAllocator::allocate_into",
    ] {
        assert!(mesh.contains(&call), "{call} in {mesh:?}");
    }
    assert!(
        breakdowns >= 2,
        "both traced simulations carry a phase breakdown"
    );
    let (cmp, _) = names(Workload::Cmp64Mix8);
    for call in [
        "ManycoreSystem::build",
        "ManycoreSystem::step",
        "ManycoreSystem::run_windows",
    ] {
        assert!(cmp.contains(&call), "{call} in {cmp:?}");
    }
}
