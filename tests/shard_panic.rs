//! A shard worker that panics mid-cycle must not deadlock the run.
//!
//! Before the spin-barrier rewrite, a panicking worker simply never
//! arrived at the cycle barrier and every other participant blocked in
//! `Barrier::wait` forever. The sense-reversing
//! [`vix::sim::SpinBarrier`] is poisoned from a panic guard instead, so
//! survivors unwind and the original panic propagates out of
//! `run_cycles` — re-thrown from the failed join when a spawned shard
//! panics, unwinding the caller's thread directly when shard 0 (which
//! runs there and also coordinates) does.
//!
//! The panic is injected with the test-only `VIX_SHARD_PANIC_AT`
//! environment variable (`cycle:shard`, read once per sharded stretch).
//! This file is its own integration-test binary — and therefore its own
//! process — because the variable is process-global; keeping it out of
//! the other suites' processes means it cannot perturb them even though
//! the Rust test harness runs tests concurrently.

use vix::prelude::*;

fn config() -> SimConfig {
    let mut network =
        NetworkConfig::paper_default(TopologyKind::Mesh, AllocatorKind::Vix);
    network.nodes = 16;
    SimConfig::new(network, 0.08)
        .with_windows(100, 400, 100)
        .with_seed(0xBAD)
        .with_shards(4)
}

/// Runs a 4-shard simulation with `VIX_SHARD_PANIC_AT` set to `spec` and
/// checks that the injected panic's own payload comes out of
/// `run_cycles`.
fn assert_injected_panic_propagates(spec: &str) {
    std::env::set_var("VIX_SHARD_PANIC_AT", spec);
    let result = std::panic::catch_unwind(|| {
        let mut sim = NetworkSim::build(config()).unwrap();
        sim.run_cycles(200);
    });
    std::env::remove_var("VIX_SHARD_PANIC_AT");
    let payload = result.expect_err("injected shard panic must propagate");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "<non-string panic payload>".to_owned());
    let (_, shard) = spec.split_once(':').expect("spec is cycle:shard");
    assert!(
        msg.contains("injected shard panic") && msg.ends_with(&format!("shard {shard}")),
        "{spec}: propagated panic should be the shard's own payload, got: {msg}"
    );
}

/// One test, not several: the injection variable is process-global, so
/// the panic phases and the clean-reuse phase must run sequentially.
#[test]
fn worker_panic_propagates_instead_of_deadlocking() {
    // Shard 2 dies at cycle 50, mid-stretch, on a spawned thread: the
    // coordinator (shard 0's thread) and the other shards are at, or on
    // their way to, the cycle barrier when the poison lands, and the
    // payload is re-thrown from the failed join.
    assert_injected_panic_propagates("50:2");
    // Shard 0 dies at cycle 50 on the caller's thread — the thread that
    // also coordinates. The spawned shards must unwind through the
    // poisoned barrier so the scope can join them and let the payload
    // continue out of `run_cycles`.
    assert_injected_panic_propagates("50:0");

    // Same process, after the variable is gone: the engine must be
    // fully reusable (each stretch builds a fresh barrier, so the
    // poison cannot leak into later runs) and still bit-identical.
    let mut sim = NetworkSim::build(config()).unwrap();
    sim.run_cycles(200);
    let mut serial = NetworkSim::build(config().with_shards(1)).unwrap();
    serial.run_cycles(200);
    assert_eq!(
        sim.stats(),
        serial.stats(),
        "sharded run after a panic test must still be bit-identical"
    );
}
