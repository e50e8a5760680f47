//! Allocator replay: times `SwitchAllocator::allocate_into` on the paper's
//! 5-port, 6-VC mesh router through the public allocator API only
//! (`build_allocator`, `RequestSet`, `allocate_into`).

use std::time::Instant;

use vix_alloc::{build_allocator, SwitchAllocator};
use vix_core::{AllocatorKind, GrantSet, NetworkConfig, PortId, RequestSet, TopologyKind, VcId};
use vix_rng::rngs::StdRng;
use vix_rng::{Rng, SeedableRng};

use crate::quantile::median;
use crate::spans::SpanLog;

/// Distinct request sets in the replayed trace.
const TRACE_LEN: usize = 512;
/// Untimed calls that size every allocator's scratch before timing.
const WARMUP_CALLS: usize = 2_000;
/// Calls per timed sample.
const CALLS_PER_SAMPLE: usize = 20_000;
/// Timed samples per allocator; IF and VIX samples alternate.
const SAMPLES: usize = 9;

/// Replay result for IF and VIX on the same request trace.
#[derive(Debug, Clone, Copy)]
pub struct Replay {
    /// Mean requests per replayed call.
    pub requests_per_call: f64,
    /// Median ns per IF `allocate_into` call.
    pub if_ns: f64,
    /// Median ns per VIX (k = 2) `allocate_into` call.
    pub vix_ns: f64,
    /// Mean grants per IF call.
    pub if_grants_per_call: f64,
    /// Mean grants per VIX call.
    pub vix_grants_per_call: f64,
}

/// Draws [`TRACE_LEN`] request sets whose sizes average
/// `requests_per_call`: each set holds that many requests rounded down,
/// plus one more with probability equal to the fraction. Requests come
/// from distinct input VCs, each for an output port other than its own
/// input port, as dimension-order routing never turns a packet back.
pub fn request_trace(
    ports: usize,
    vcs: usize,
    requests_per_call: f64,
    seed: u64,
) -> Vec<RequestSet> {
    let mut rng = StdRng::seed_from_u64(seed);
    let whole = requests_per_call.floor();
    let frac = requests_per_call - whole;
    let slots = ports * vcs;
    let mut order: Vec<usize> = (0..slots).collect();
    (0..TRACE_LEN)
        .map(|_| {
            let k = (whole as usize + usize::from(rng.gen_bool(frac))).min(slots);
            // Partial Fisher-Yates: the first k entries are a uniform draw
            // of k distinct input VCs.
            for i in 0..k {
                let j = rng.gen_range(i..slots);
                order.swap(i, j);
            }
            let mut set = RequestSet::new(ports, vcs);
            for &slot in &order[..k] {
                let (port, vc) = (slot / vcs, slot % vcs);
                let mut out = rng.gen_range(0..ports - 1);
                if out >= port {
                    out += 1;
                }
                set.request(PortId(port), VcId(vc), PortId(out));
            }
            set
        })
        .collect()
}

/// Replays one trace through IF and VIX allocators built exactly as the
/// network builds them, recording one span per timed sample.
pub fn replay(requests_per_call: f64, seed: u64, log: &mut SpanLog, rep: u32) -> Replay {
    let routers = [AllocatorKind::InputFirst, AllocatorKind::Vix]
        .map(|kind| NetworkConfig::paper_default(TopologyKind::Mesh, kind).router);
    let (ports, vcs) = (routers[0].ports(), routers[0].vcs_per_port());
    let trace = request_trace(ports, vcs, requests_per_call, seed);
    let mut allocs: Vec<Box<dyn SwitchAllocator>> = [AllocatorKind::InputFirst, AllocatorKind::Vix]
        .iter()
        .zip(&routers)
        .map(|(&kind, router)| build_allocator(kind, router))
        .collect();
    let mut grants = GrantSet::with_capacity(ports);
    let mut grants_per_call = [0.0; 2];
    for (a, g) in allocs.iter_mut().zip(&mut grants_per_call) {
        let mut total = 0;
        for i in 0..WARMUP_CALLS {
            a.allocate_into(&trace[i % TRACE_LEN], &mut grants);
            a.observe_traversals(&grants);
            total += grants.len();
        }
        *g = total as f64 / WARMUP_CALLS as f64;
    }
    let mut per_call = [Vec::with_capacity(SAMPLES), Vec::with_capacity(SAMPLES)];
    for _ in 0..SAMPLES {
        for (a, samples) in allocs.iter_mut().zip(&mut per_call) {
            let id = log.reserve();
            let t0 = Instant::now();
            for i in 0..CALLS_PER_SAMPLE {
                a.allocate_into(std::hint::black_box(&trace[i % TRACE_LEN]), &mut grants);
                a.observe_traversals(&grants);
            }
            std::hint::black_box(&grants);
            let t1 = Instant::now();
            log.record(id, 0, rep, "SwitchAllocator::allocate_into", t0, t1);
            samples.push((t1 - t0).as_nanos() as f64 / CALLS_PER_SAMPLE as f64);
        }
    }
    let offered: usize = trace.iter().map(RequestSet::len).sum();
    Replay {
        requests_per_call: offered as f64 / TRACE_LEN as f64,
        if_ns: median(&per_call[0]),
        vix_ns: median(&per_call[1]),
        if_grants_per_call: grants_per_call[0],
        vix_grants_per_call: grants_per_call[1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_hits_the_requested_mean_and_never_turns_back() {
        let trace = request_trace(5, 6, 7.25, 9);
        let mean = trace.iter().map(RequestSet::len).sum::<usize>() as f64 / trace.len() as f64;
        assert!((mean - 7.25).abs() < 0.1, "mean {mean}");
        for set in &trace {
            assert!(set.active_requests().all(|r| r.out_port != r.port));
        }
        assert_eq!(request_trace(5, 6, 7.25, 9), trace, "same seed, same trace");
    }
}
