//! Deterministic sharded execution of a single [`NetworkSim`] run.
//!
//! [`LoadSweep`](crate::LoadSweep) parallelises *across* simulations; this
//! module parallelises *within* one. The router graph is partitioned into
//! contiguous shards ([`ShardPlan`] — equal-sized by default, or weighted
//! by per-router cost via [`ShardPlan::weighted`]), each stepped by one
//! thread — shard 0 by the caller's, the rest by a [`std::thread::scope`]
//! pool — and the shards advance in lockstep one cycle at a time.
//! Cross-shard traffic rides the
//! ≥ 2-cycle link latency as conservative lookahead: everything a boundary
//! pipe will deliver at cycle `t + 1` is already in flight (and final) by
//! the end of cycle `t`, so a single end-of-cycle exchange per neighbour
//! pair is enough and no rollback is ever needed.
//!
//! # One pipeline, many shards
//!
//! Each shard runs the same cycle pipeline (phases 2–5: source
//! injection, delivery, router stepping, fan-out) that serial stepping
//! runs — serial is simply the one-shard case, driven inline over the
//! whole network. Activity gating is not a separate code path either: a
//! gated shard takes its deliveries from its wake calendar and its work
//! from its active set, an ungated one from an exhaustive sweep of its
//! pipes and routers. What this module adds around the pipeline is only
//! the exchange: staged packets and inbound mailboxes before it, the
//! boundary scan and record hand-off after it.
//!
//! # Cycle protocol
//!
//! A run over `shards` shards uses exactly `shards` threads: shard 0 runs
//! on the caller's thread, shards `1..shards` on scoped threads, and all of
//! them meet at **one barrier per cycle** (a [`SpinBarrier`] over `shards`
//! participants). Every participant runs the same loop body for cycle `t`:
//! drain the packets staged for its shard and its inbound cross-shard
//! mailboxes, run the pipeline over the shard, pop every boundary pipe up
//! to `t + 1` into the destination shard's mailbox for the next cycle, and
//! publish the cycle's ejection records. — *barrier* —
//!
//! Shard 0's thread is also the coordinator — the run's sole RNG and stats
//! owner — pipelined one cycle ahead of the shards. After its own shard's
//! part of cycle `t`, and before it arrives at the barrier, it:
//!
//! 1. merges cycle `t − 1`'s ejection records shard-by-shard in ascending
//!    shard order (which *is* ascending router order, so statistics
//!    accumulate in exactly the serial order), and
//! 2. runs phase 1 traffic generation for cycle `t + 1` — the serial
//!    generator, in serial node order — batching each shard's packets
//!    into a coordinator-owned staging buffer that is swapped into the
//!    shared slot with **one** lock acquisition per shard per cycle.
//!
//! The lookahead is safe because the inputs of cycle `t` were fully staged
//! before `t` started: cycle `start`'s packets are generated before the
//! other shards are spawned, and cycle `t + 1`'s are final at the barrier
//! that closes `t` — a shard never observes a staging buffer mid-write.
//! No thread is left over to spin while the shards work, so `--shards
//! auto` (one shard per core) puts exactly one thread on each core.
//!
//! Mailboxes, staging slots, and record slots are all double-buffered by
//! cycle parity, so the side that fills a cycle-`t + 1` buffer never
//! contends with the side draining the cycle-`t` one: every `Mutex` in
//! the protocol is uncontended by construction and acquired at most once
//! per shard per cycle.
//!
//! A panicking participant (any shard, the coordinating shard 0 included)
//! poisons the barrier through a `PoisonOnPanic` guard instead of leaving
//! everyone else blocked; survivors observe the poison at their next wait
//! and unwind, and the original panic propagates out of `run_sharded` —
//! re-thrown from the failed join, or, for shard 0, unwinding the caller's
//! thread directly once the scope has joined the rest.
//!
//! # Determinism
//!
//! A sharded run is **bit-identical** to the serial path for every shard
//! count (pinned by `tests/shard_parity.rs` across all eight allocator
//! configurations). The proof obligations, spelled out in DESIGN.md §8:
//!
//! * **One RNG, one owner** — traffic generation never leaves the
//!   coordinator, so the random stream is byte-for-byte the serial one
//!   regardless of shard count; shard seeds are never derived.
//! * **Interchangeable delivery order** — distinct pipes feed disjoint
//!   `(port, vc)` buffers and credits are commutative counter
//!   increments, so draining mailboxes before local pipes is
//!   indistinguishable from the serial sweep order (the same invariant
//!   the activity-gated scheduler already relies on).
//! * **Ordered merge** — per-shard ejection records are concatenated in
//!   shard order = global ascending router order, reproducing the serial
//!   `NetworkStats` accumulation order exactly; all accumulation is
//!   integer, so no floating-point reassociation can leak in.
//!
//! The wake calendar, active set, retention, and idle replay are all
//! per-router state, and a cross-shard delivery wakes the receiving
//! router the same cycle it would have in a serial run. On entry and exit
//! the calendars are rebuilt from pipe contents
//! ([`Pipe::dues`](crate::Pipe::dues)) by the same routine — per shard on
//! entry, over the whole network on exit — so a simulation can move
//! freely between serial and sharded stepping mid-run.

use crate::barrier::{PoisonOnPanic, SpinBarrier, SpinWaiter};
use crate::engine::{activate, health_gauges, Fabric, Records, Shard, ShardState};
use crate::network::{CreditDest, EjectedPacket, NetworkSim, Traffic};
use crate::stats::NetworkStats;
use std::sync::Mutex;
use vix_core::{Cycle, Flit, NodeId, PacketDescriptor, PortId, RouterId, SimConfig, VcId};
use vix_telemetry::{HealthBoard, Profiler, SpanKind, TelemetrySink};
use vix_topology::Topology;

/// A partition of the router graph into contiguous, balanced shards.
///
/// Routers `[router_start[s], router_start[s + 1])` and the terminals
/// attached to them belong to shard `s`. Contiguity keeps the
/// shard-order merge equal to ascending-router order (the determinism
/// requirement) and matches dimension-order locality on the mesh, so
/// most links stay inside a shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// `shards + 1` fenceposts over router indices.
    router_start: Vec<usize>,
    /// `shards + 1` fenceposts over node indices.
    node_start: Vec<usize>,
}

impl ShardPlan {
    /// Partitions `topology` into `shards` contiguous router ranges of
    /// near-equal size (the first `routers % shards` shards take one
    /// extra router).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or exceeds the router count, or if the
    /// topology's node→router attachment is not monotone (every shipped
    /// topology attaches nodes in router order).
    #[must_use]
    pub fn new(topology: &dyn Topology, shards: usize) -> Self {
        let routers = topology.routers();
        assert!(shards >= 1 && shards <= routers, "shards must be in 1..={routers}");
        let base = routers / shards;
        let extra = routers % shards;
        let mut router_start = Vec::with_capacity(shards + 1);
        let mut at = 0;
        router_start.push(0);
        for s in 0..shards {
            at += base + usize::from(s < extra);
            router_start.push(at);
        }
        ShardPlan::from_router_starts(topology, router_start)
    }

    /// Partitions `topology` into `shards` contiguous router ranges whose
    /// per-shard **weight** sums are as even as a contiguous split allows:
    /// each cut is placed where adding the next router would overshoot the
    /// remaining-weight-per-remaining-shard target by more than stopping
    /// short undershoots it. With uniform weights this reduces to the
    /// equal split of [`ShardPlan::new`] (sizes differ by at most one).
    ///
    /// `weights[r]` is the relative cost of stepping router `r` — e.g. a
    /// prior run's per-shard busy ratios or per-router utilization spread
    /// over the routers (see `vixsim --shard-weights`). Zero weights are
    /// treated as 1 so every shard stays non-empty.
    ///
    /// Any contiguous partition is bit-identical to serial (the merge
    /// order is still ascending router order), so the weighting is purely
    /// a load-balance knob — `tests/shard_parity.rs` pins this.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or exceeds the router count, or if
    /// `weights.len()` differs from the router count, or on a non-monotone
    /// node→router attachment (as [`ShardPlan::new`]).
    #[must_use]
    pub fn weighted(topology: &dyn Topology, shards: usize, weights: &[u64]) -> Self {
        let routers = topology.routers();
        assert!(shards >= 1 && shards <= routers, "shards must be in 1..={routers}");
        assert_eq!(weights.len(), routers, "need exactly one weight per router");
        let w = |r: usize| u128::from(weights[r].max(1));
        let mut rem_w: u128 = (0..routers).map(w).sum();
        let mut router_start = Vec::with_capacity(shards + 1);
        router_start.push(0);
        let mut at = 0usize;
        for s in 0..shards - 1 {
            let rem_shards = (shards - s) as u128;
            // Every shard still to come needs at least one router.
            let max_take = routers - at - (shards - s - 1);
            let mut acc: u128 = 0;
            let mut take = 0usize;
            while take < max_take {
                let next = w(at + take);
                // Stop once acc + next/2 exceeds rem_w / rem_shards,
                // i.e. once adding `next` moves further past the target
                // than stopping short stays below it (integer form).
                if take >= 1 && (2 * acc + next) * rem_shards > 2 * rem_w {
                    break;
                }
                acc += next;
                take += 1;
            }
            at += take;
            rem_w -= acc;
            router_start.push(at);
        }
        router_start.push(routers);
        ShardPlan::from_router_starts(topology, router_start)
    }

    /// Finishes a plan from router fenceposts: derives the node
    /// fenceposts and checks the node→router attachment is monotone.
    fn from_router_starts(topology: &dyn Topology, router_start: Vec<usize>) -> Self {
        let nodes = topology.nodes();
        let node_start: Vec<usize> = router_start
            .iter()
            .map(|&r| {
                (0..nodes)
                    .position(|n| topology.router_of(NodeId(n)).0 >= r)
                    .unwrap_or(nodes)
            })
            .collect();
        let plan = ShardPlan { router_start, node_start };
        // Shards must own their terminals: a node staged to shard `s`
        // is enqueued on a source slice owned by `s`, and a source's
        // credit pipe lives on the router it is attached to.
        for n in 0..nodes {
            let owner = plan.shard_of_router(topology.router_of(NodeId(n)).0);
            assert!(
                plan.node_range(owner).contains(&n),
                "node {n} not contiguous with its router's shard; \
                 node→router attachment must be monotone"
            );
        }
        plan
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.router_start.len() - 1
    }

    /// Routers owned by shard `s`.
    #[must_use]
    pub fn router_range(&self, s: usize) -> std::ops::Range<usize> {
        self.router_start[s]..self.router_start[s + 1]
    }

    /// Terminals owned by shard `s`.
    #[must_use]
    pub fn node_range(&self, s: usize) -> std::ops::Range<usize> {
        self.node_start[s]..self.node_start[s + 1]
    }

    /// The shard owning router `r`.
    #[must_use]
    pub fn shard_of_router(&self, r: usize) -> usize {
        // Fenceposts are sorted; partition_point returns the first start
        // beyond `r`, whose predecessor is the owning shard.
        self.router_start.partition_point(|&start| start <= r) - 1
    }

    /// The shard owning terminal `n`.
    #[must_use]
    pub fn shard_of_node(&self, n: usize) -> usize {
        self.node_start.partition_point(|&start| start <= n) - 1
    }
}

/// A link whose receiving router lives in another shard: drained by the
/// owning shard's boundary scan instead of its wake calendar.
#[derive(Debug, Clone, Copy)]
struct Boundary {
    /// Router (global index) and port the pipe leaves from.
    from: usize,
    port: usize,
    /// Receiving router and port: downstream input port for a flit link,
    /// upstream output port for a credit link.
    to: RouterId,
    to_port: PortId,
    dst_shard: usize,
}

/// `grid[dst][src]`: one locked delivery queue per ordered shard pair.
/// The `Mutex` is uncontended by construction — each (dst, src, parity)
/// slot is filled and drained in barrier-separated windows.
type MailGrid<T> = Vec<Vec<Mutex<Vec<T>>>>;

/// Per-pair cross-shard delivery queues, double-buffered by cycle
/// parity: `flits[t % 2][dst][src]` holds deliveries due at cycle `t`.
#[derive(Debug)]
struct Mailboxes {
    flits: [MailGrid<(RouterId, PortId, Flit)>; 2],
    credits: [MailGrid<(RouterId, PortId, VcId)>; 2],
}

impl Mailboxes {
    fn new(shards: usize) -> Self {
        fn grid<T>(shards: usize) -> MailGrid<T> {
            (0..shards)
                .map(|_| (0..shards).map(|_| Mutex::new(Vec::new())).collect())
                .collect()
        }
        Mailboxes {
            flits: [grid(shards), grid(shards)],
            credits: [grid(shards), grid(shards)],
        }
    }
}

/// One participant: its shard of the cycle pipeline plus the links it
/// exchanges with the other shards.
struct ShardWorker<'a> {
    idx: usize,
    shard: Shard<'a>,
    flit_boundary: Vec<Boundary>,
    credit_boundary: Vec<Boundary>,
}

impl ShardWorker<'_> {
    /// Publishes this shard's cumulative busy/barrier wall-clock to the
    /// health board every cycle (two relaxed stores), plus the
    /// heartbeat-cycle gauges (router steps, wake-calendar depth,
    /// buffered flits) when cycle `t` closes a heartbeat interval. Runs
    /// before the end-of-cycle barrier, which orders the stores ahead of
    /// shard 0's reads after it.
    fn publish_health(&self, board: &HealthBoard, t: u64, beat_every: u64) {
        let st = &*self.shard.st;
        let Some(p) = &st.prof else { return };
        let (busy, barrier) = p.own_busy_barrier_ns();
        board.publish_time(self.idx, busy, barrier);
        if beat_every > 0 && (t + 1).is_multiple_of(beat_every) {
            let (wake, buffered) = health_gauges(&st.gating, self.shard.fab.routers);
            board.publish_gauges(self.idx, st.gating.router_steps, wake, buffered);
        }
    }

    /// Moves everything this shard's boundary pipes deliver by `due` into
    /// the receiving shards' mailboxes for cycle `due`.
    fn send_boundary(&mut self, due: Cycle, mail: &Mailboxes) {
        let (parity, r0) = ((due.0 % 2) as usize, self.shard.st.routers.start);
        for b in &self.flit_boundary {
            let pipe = self.shard.fab.flit_pipes[b.from - r0][b.port]
                .as_mut()
                .expect("boundary port is connected");
            if pipe.has_ready(due) {
                let mut outbox = mail.flits[parity][b.dst_shard][self.idx]
                    .lock()
                    .expect("receiver not panicked");
                while let Some(flit) = pipe.pop_ready(due) {
                    outbox.push((b.to, b.to_port, flit));
                }
            }
        }
        for b in &self.credit_boundary {
            let pipe = &mut self.shard.fab.credit_pipes[b.from - r0][b.port];
            if pipe.has_ready(due) {
                let mut outbox = mail.credits[parity][b.dst_shard][self.idx]
                    .lock()
                    .expect("receiver not panicked");
                while let Some(vc) = pipe.pop_ready(due) {
                    outbox.push((b.to, b.to_port, vc));
                }
            }
        }
    }

    /// Executes this shard's part of cycle `t` (the window between two
    /// end-of-cycle barriers) over the cycle-`t` parity slots of `ls`: the
    /// coordinator filled the staging slot before cycle `t` began (one
    /// cycle ahead) and will drain the record slot during cycle `t + 1`,
    /// so neither lock is ever contended.
    /// On the final cycle of the sharded stretch the boundary scan is
    /// skipped so cycle-`t + 1` deliveries stay in their pipes — there is
    /// no cycle `t + 1` in this run to drain the mailboxes, and whichever
    /// engine continues (serial stepping or the next sharded stretch's
    /// pre-scan) delivers straight from the pipes.
    fn run_cycle(&mut self, t: u64, ls: &Lockstep) {
        let (r0, n0) = (self.shard.st.routers.start, self.shard.st.nodes.start);
        let parity = (t % 2) as usize;
        // Profiling lap chain: staged/mailbox drains and the boundary
        // scan are `Exchange`; the pipeline phases lap themselves.
        let mut span = self.shard.span_start();

        // Packets the coordinator generated for this cycle (phase 1).
        let staged = &ls.staged[parity][self.idx];
        for packet in staged.lock().expect("no panic while staging").drain(..) {
            self.shard.fab.sources[packet.source.0 - n0].enqueue(packet);
        }

        // Inbound cross-shard deliveries due this cycle. Flit deliveries
        // wake the receiving router exactly as a calendar event would;
        // credits never wake one.
        let inbox = ls.mail.flits[parity][self.idx].iter().zip(&ls.mail.credits[parity][self.idx]);
        for (flits, credits) in inbox {
            for (down, port, flit) in flits.lock().expect("sender not panicked").drain(..) {
                self.shard.fab.routers[down.0 - r0].accept_flit(port, flit);
                self.shard.wake(down.0, t);
            }
            for (up, port, vc) in credits.lock().expect("sender not panicked").drain(..) {
                self.shard.fab.routers[up.0 - r0].credit_return(port, vc);
            }
        }
        span = self.shard.lap(SpanKind::Exchange, t, span);

        // Phases 2–5: the cycle pipeline over this shard.
        span = self.shard.step(Cycle(t), span);

        // Boundary scan: everything a cross-shard pipe will deliver at
        // `t + 1` is final now (this cycle's pushes are due ≥ t + 2,
        // since every inter-router pipe has ≥ 2 cycles of latency), so
        // hand it to the destination shard's next-cycle mailbox.
        if t + 1 < ls.end {
            self.send_boundary(Cycle(t + 1), &ls.mail);
        }

        // Hand this cycle's records to the coordinator. The swap gets back
        // the buffers the coordinator drained last cycle, keeping the
        // steady state allocation-free.
        std::mem::swap(
            &mut *ls.outs[parity][self.idx].lock().expect("coordinator not panicked"),
            &mut self.shard.st.records,
        );
        self.shard.lap(SpanKind::Exchange, t, span);
    }
}

/// What every participant of one sharded stretch shares: the cycle range,
/// the parity-double-buffered exchange slots, the barrier, and the
/// heartbeat board.
struct Lockstep {
    start: u64,
    end: u64,
    mail: Mailboxes,
    /// `staged[t % 2][s]`: shard `s`'s packets for cycle `t`.
    staged: [Vec<Mutex<Vec<PacketDescriptor>>>; 2],
    /// `outs[t % 2][s]`: shard `s`'s ejection records of cycle `t`.
    outs: [Vec<Mutex<Records>>; 2],
    barrier: SpinBarrier,
    board: Option<HealthBoard>,
    beat_every: u64,
    /// Test-only fault hook: `VIX_SHARD_PANIC_AT=cycle:shard` makes that
    /// shard panic at the top of that cycle (tests/shard_panic.rs).
    panic_inject: Option<(u64, usize)>,
}

/// Shard 0's second role: the run's sole RNG and stats owner. Its spans
/// (`StatsMerge`, `TrafficGen`) go to the engine track.
struct Coordinator<'a> {
    traffic: &'a mut Traffic,
    cfg: &'a SimConfig,
    stats: &'a mut NetworkStats,
    ejected: &'a mut Vec<EjectedPacket>,
    telemetry: &'a mut TelemetrySink,
    plan: ShardPlan,
    /// Per-shard batches of the cycle being generated; swapped into the
    /// staging slots, so they come back empty two cycles later.
    gen_bufs: Vec<Vec<PacketDescriptor>>,
    steps_base: u64,
}

impl Coordinator<'_> {
    /// Phase 1 for cycle `u`: the serial generator, with each shard's
    /// packets batched into a coordinator-owned buffer that is then
    /// swapped into the shared staging slot with one lock acquisition per
    /// (non-idle) shard.
    fn stage(&mut self, u: u64, ls: &Lockstep) {
        let Coordinator { traffic, cfg, stats, plan, gen_bufs, .. } = self;
        traffic.generate_cycle(u, cfg, stats, |packet| {
            gen_bufs[plan.shard_of_node(packet.source.0)].push(packet);
        });
        for (buf, slot) in gen_bufs.iter_mut().zip(&ls.staged[(u % 2) as usize]) {
            if !buf.is_empty() {
                std::mem::swap(&mut *slot.lock().expect("shard not panicked"), buf);
            }
        }
    }

    /// Merges cycle `u`'s ejection records in shard order = ascending
    /// router order = serial order.
    fn merge(&mut self, u: u64, ls: &Lockstep) {
        for slot in &ls.outs[(u % 2) as usize] {
            slot.lock().expect("shard not panicked").merge_into(self.stats, self.ejected);
        }
    }

    /// The coordinator's share of cycle `t`, run between shard 0's own
    /// cycle and the barrier: merge cycle `t − 1`, stage cycle `t + 1`.
    fn advance(&mut self, t: u64, ls: &Lockstep) {
        let mut span = self.telemetry.span_start();
        if t > ls.start {
            self.merge(t - 1, ls);
            span = self.telemetry.span_lap(SpanKind::StatsMerge, t, span);
        }
        // Generation stops at the serial schedule's horizon (`warmup +
        // measure`) and at the end of the stretch — cycle `end`'s draws
        // belong to whichever engine steps cycle `end`.
        if t + 1 < ls.end && t + 1 < self.cfg.warmup + self.cfg.measure {
            self.stage(t + 1, ls);
            self.telemetry.span_lap(SpanKind::TrafficGen, t, span);
        }
    }

    /// Samples the engine heartbeat when cycle `t` closes an interval.
    /// Runs after the barrier, which orders every shard's cycle-`t`
    /// publishes ahead of these reads.
    fn heartbeat(&mut self, t: u64, ls: &Lockstep) {
        let Some(b) = ls.board.as_ref() else { return };
        if ls.beat_every == 0 || !(t + 1).is_multiple_of(ls.beat_every) {
            return;
        }
        let busy = HealthBoard::read(&b.busy_ns);
        let shard_cum: Vec<(u64, u64)> =
            busy.into_iter().zip(HealthBoard::read(&b.barrier_ns)).collect();
        let steps = self.steps_base + HealthBoard::read(&b.router_steps).iter().sum::<u64>();
        let wake = HealthBoard::read(&b.wake_depth).iter().sum::<u64>();
        let buffered = HealthBoard::read(&b.buffered_flits).iter().sum::<u64>();
        self.telemetry
            .profiler_mut()
            .expect("heartbeat interval implies profiling")
            .heartbeat(t + 1, steps, wake, buffered, &shard_cum);
    }
}

/// One participant's cycle loop over the whole stretch; `coord` is
/// `Some` for shard 0 only. Returns `false` when the barrier was
/// poisoned by another participant's panic.
fn participate(w: &mut ShardWorker, mut coord: Option<&mut Coordinator>, ls: &Lockstep) -> bool {
    // A panic anywhere in the cycle body poisons the barrier on unwind,
    // releasing the other shards instead of deadlocking them.
    let _poison = PoisonOnPanic(&ls.barrier);
    let mut waiter = SpinWaiter::new();
    for t in ls.start..ls.end {
        if ls.panic_inject == Some((t, w.idx)) {
            panic!("injected shard panic (VIX_SHARD_PANIC_AT) at cycle {t} shard {}", w.idx);
        }
        w.run_cycle(t, ls);
        if let Some(c) = coord.as_deref_mut() {
            c.advance(t, ls);
        }
        if let Some(b) = ls.board.as_ref() {
            w.publish_health(b, t, ls.beat_every);
        }
        let span = w.shard.span_start();
        if ls.barrier.wait(&mut waiter).is_err() {
            return false;
        }
        w.shard.lap(SpanKind::BarrierWait, t, span);
        if let Some(c) = coord.as_deref_mut() {
            c.heartbeat(t, ls);
        }
    }
    true
}

/// Advances `sim` by `cycles` cycles across `shards` threads (the
/// caller's plus `shards − 1` scoped ones), bit-identically to `cycles`
/// serial [`NetworkSim::step`] calls.
///
/// The caller ([`NetworkSim::run_cycles`]) guarantees `shards` is in
/// `2..=routers` and telemetry recording is off.
pub(crate) fn run_sharded(sim: &mut NetworkSim, cycles: u64, shards: usize) {
    if cycles == 0 {
        return;
    }
    let start = sim.now.0;
    let end = start + cycles;
    let plan = match sim.shard_weights.as_deref() {
        Some(weights) => ShardPlan::weighted(sim.topology.as_ref(), shards, weights),
        None => ShardPlan::new(sim.topology.as_ref(), shards),
    };
    let panic_inject: Option<(u64, usize)> = std::env::var("VIX_SHARD_PANIC_AT")
        .ok()
        .and_then(|spec| {
            let (t, s) = spec.split_once(':')?;
            Some((t.parse().ok()?, s.parse().ok()?))
        });
    let radix = sim.topology.radix();
    let routers_total = sim.routers.len();
    let nodes_total = sim.cfg.network.nodes;

    // Engine self-profiling: each shard gets its own span track (no
    // sharing, no locks on the hot path); health gauges ride a lock-free
    // atomic board that shard 0 samples on the heartbeat interval.
    let profiling = sim.telemetry.profiling();
    let epoch = sim.telemetry.profiler().map(Profiler::epoch);
    let span_cap = if profiling {
        (sim.cfg.telemetry.profile_span_capacity / shards).max(1024)
    } else {
        0
    };

    // Per-shard scheduler state, seeded from the serial scheduler's.
    let serial = &sim.sched.gating;
    let mut states: Vec<ShardState> = (0..shards)
        .map(|s| {
            let mut st = ShardState::new(
                plan.router_range(s),
                plan.node_range(s),
                nodes_total,
                routers_total,
                radix,
            );
            st.gating.active_mark.copy_from_slice(&serial.active_mark);
            st.gating.stepped_until.copy_from_slice(&serial.stepped_until);
            st.gating.work.extend(serial.work.iter().filter(|r| st.routers.contains(r)));
            st.prof = epoch.map(|e| Box::new(Profiler::for_shard(s as u32, e, span_cap, 0, false)));
            st
        })
        .collect();
    // Disabled sinks: telemetry-recording runs never reach the sharded
    // engine (see [`NetworkSim::effective_shards`]).
    let mut sinks: Vec<TelemetrySink> = (0..shards).map(|_| TelemetrySink::disabled()).collect();

    // Staging and record slots are double-buffered by cycle parity, like
    // the mailboxes: the coordinator fills `staged[(t + 1) % 2]` and
    // drains `outs[(t - 1) % 2]` while the shards touch only the `t % 2`
    // slots, so every lock is uncontended and taken once per cycle.
    let ls = Lockstep {
        start,
        end,
        mail: Mailboxes::new(shards),
        staged: std::array::from_fn(|_| (0..shards).map(|_| Mutex::default()).collect()),
        outs: std::array::from_fn(|_| (0..shards).map(|_| Mutex::default()).collect()),
        barrier: SpinBarrier::new(shards),
        board: profiling.then(|| HealthBoard::new(shards)),
        beat_every: sim.telemetry.profiler().map_or(0, Profiler::beat_every),
        panic_inject,
    };

    // Split the network into per-shard mutable slices. The serial
    // calendar interleaves shards and references boundary pipes, so each
    // shard rebuilds its own from its pipe contents instead.
    let mut fabric = Fabric {
        routers: &mut sim.routers,
        flit_pipes: &mut sim.flit_pipes,
        credit_pipes: &mut sim.credit_pipes,
        credit_dests: &sim.credit_dests,
        inject_pipes: &mut sim.inject_pipes,
        sources: &mut sim.sources,
    };
    let mut workers: Vec<ShardWorker> = Vec::with_capacity(shards);
    for (idx, (st, sink)) in states.iter_mut().zip(&mut sinks).enumerate() {
        let fab = fabric.split_front(st.routers.len(), st.nodes.len());
        // Boundary links, owned (and therefore drained) by this shard.
        let (mut flit_boundary, mut credit_boundary) = (Vec::new(), Vec::new());
        for (r, ri) in st.routers.clone().zip(0..) {
            for p in 0..radix {
                let boundary = |(to, to_port): (RouterId, PortId)| {
                    let dst_shard = plan.shard_of_router(to.0);
                    let b = Boundary { from: r, port: p, to, to_port, dst_shard };
                    (dst_shard != idx).then_some(b)
                };
                if fab.flit_pipes[ri][p].is_some() {
                    let down = sim.routes.downstream(r, PortId(p));
                    flit_boundary.extend(boundary(down.expect("flit pipe on a connected port")));
                }
                if let CreditDest::Upstream(up, up_port) = fab.credit_dests[ri][p] {
                    credit_boundary.extend(boundary((up, up_port)));
                }
            }
        }
        let mut shard = Shard {
            st,
            fab,
            cfg: &sim.cfg,
            routes: &sim.routes,
            sink,
        };
        shard.rebuild_calendar();
        let mut worker = ShardWorker { idx, shard, flit_boundary, credit_boundary };
        // Deliveries already due at `start` on boundary pipes would
        // normally have been exchanged at the end of cycle `start − 1`
        // (which ran under a different scheduler), so post them now.
        worker.send_boundary(Cycle(start), &ls.mail);
        workers.push(worker);
    }

    let mut coord = Coordinator {
        traffic: &mut sim.traffic,
        cfg: &sim.cfg,
        stats: &mut sim.stats,
        ejected: &mut sim.ejected,
        telemetry: &mut sim.telemetry,
        plan,
        gen_bufs: vec![Vec::new(); shards],
        steps_base: sim.sched.gating.router_steps,
    };
    // Pipeline fill: cycle `start`'s packets are staged before the other
    // shards exist (spawning publishes them), so the in-loop generation
    // can run one cycle ahead from the very first barrier.
    coord.stage(start, &ls);

    std::thread::scope(|scope| {
        let ls = &ls;
        let mut workers = workers.into_iter();
        let mut first = workers.next().expect("a sharded run has at least two shards");
        let handles: Vec<_> = workers
            .map(|mut w| scope.spawn(move || participate(&mut w, None, ls)))
            .collect();
        // Shard 0 steps and coordinates on the caller's thread. If it
        // panics, its guard poisons the barrier, the scope joins the
        // other shards as they unwind, and the panic continues out of
        // this call.
        let completed = participate(&mut first, Some(&mut coord), ls);
        if completed {
            coord.merge(end - 1, ls);
        }
        for h in handles {
            // Re-throw another shard's panic here; the barrier is already
            // poisoned, so the remaining shards have unwound (or will at
            // their next wait) and the scope can close.
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
        assert!(completed, "shard barrier poisoned but every shard joined cleanly");
    });

    // Hand the scheduler back to serial stepping at cycle `end`: router
    // history and step counts from each shard, the active set from each
    // shard's retention list, and a whole-network calendar rebuilt from
    // the pipes.
    let serial = &mut sim.sched.gating;
    serial.work.clear();
    serial.pending.clear();
    for st in &mut states {
        let range = st.routers.clone();
        serial.router_steps += st.gating.router_steps;
        serial.stepped_until[range.clone()].copy_from_slice(&st.gating.stepped_until[range]);
        for &r in &st.gating.work {
            activate(&mut serial.active_mark, &mut serial.work, r, end);
        }
        if let (Some(p), Some(engine)) = (st.prof.take(), sim.telemetry.profiler_mut()) {
            engine.absorb(*p);
        }
    }
    sim.now = Cycle(end);
    sim.whole_shard().rebuild_calendar();
}

#[cfg(test)]
mod tests {
    use super::*;
    use vix_topology::build_topology;
    use vix_core::TopologyKind;

    #[test]
    fn plan_partitions_routers_and_nodes_contiguously() {
        for kind in [TopologyKind::Mesh, TopologyKind::CMesh, TopologyKind::FlattenedButterfly] {
            let topo = build_topology(kind, 64).unwrap();
            for shards in [1, 2, 3, 4, 7, 8, topo.routers()] {
                let plan = ShardPlan::new(topo.as_ref(), shards);
                assert_eq!(plan.shards(), shards);
                // Router ranges tile [0, routers) in order.
                let mut next = 0;
                for s in 0..shards {
                    let range = plan.router_range(s);
                    assert_eq!(range.start, next);
                    assert!(!range.is_empty(), "{kind:?}/{shards}: empty shard {s}");
                    next = range.end;
                    for r in range {
                        assert_eq!(plan.shard_of_router(r), s);
                    }
                }
                assert_eq!(next, topo.routers());
                // Every node lands in the shard of its router.
                for n in 0..topo.nodes() {
                    let s = plan.shard_of_node(n);
                    assert!(plan.node_range(s).contains(&n));
                    assert_eq!(s, plan.shard_of_router(topo.router_of(NodeId(n)).0));
                }
            }
        }
    }

    #[test]
    fn plan_balances_shard_sizes() {
        let topo = build_topology(TopologyKind::Mesh, 64).unwrap();
        let plan = ShardPlan::new(topo.as_ref(), 7);
        let sizes: Vec<usize> = (0..7).map(|s| plan.router_range(s).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 64);
        assert!(sizes.iter().all(|&n| n == 9 || n == 10), "{sizes:?}");
    }

    #[test]
    #[should_panic(expected = "shards must be in")]
    fn plan_rejects_more_shards_than_routers() {
        let topo = build_topology(TopologyKind::Mesh, 16).unwrap();
        let _ = ShardPlan::new(topo.as_ref(), 17);
    }

    #[test]
    fn weighted_plan_with_uniform_weights_stays_balanced() {
        let topo = build_topology(TopologyKind::Mesh, 64).unwrap();
        for shards in [1, 2, 3, 4, 7, 8, 64] {
            let plan = ShardPlan::weighted(topo.as_ref(), shards, &[1; 64]);
            assert_eq!(plan.shards(), shards);
            let mut next = 0;
            for s in 0..shards {
                let range = plan.router_range(s);
                assert_eq!(range.start, next);
                next = range.end;
                let size = range.len();
                assert!(
                    size == 64 / shards || size == 64 / shards + 1,
                    "shards={shards}: shard {s} owns {size} routers"
                );
            }
            assert_eq!(next, 64);
        }
    }

    #[test]
    fn weighted_plan_moves_cuts_toward_heavy_routers() {
        let topo = build_topology(TopologyKind::Mesh, 64).unwrap();
        // Routers 0..8 cost 8×: a 2-way split should give the heavy
        // prefix far fewer routers than the uniform 32/32.
        let mut weights = [1u64; 64];
        for w in &mut weights[..8] {
            *w = 8;
        }
        let plan = ShardPlan::weighted(topo.as_ref(), 2, &weights);
        let first = plan.router_range(0).len();
        assert!(first < 20, "heavy prefix took {first} routers, expected < 20");
        // Shard weights should be near-even: total 64 + 8*7 = 120.
        let sum = |r: std::ops::Range<usize>| r.map(|i| weights[i]).sum::<u64>();
        let (a, b) = (sum(plan.router_range(0)), sum(plan.router_range(1)));
        assert!(a.abs_diff(b) <= 8, "weight split {a}/{b} too lopsided");
    }

    #[test]
    fn weighted_plan_clamps_zero_weights_and_keeps_shards_nonempty() {
        let topo = build_topology(TopologyKind::Mesh, 64).unwrap();
        // All-zero weights degrade to the uniform split, not to empty
        // shards or a division by zero.
        let plan = ShardPlan::weighted(topo.as_ref(), 8, &[0; 64]);
        for s in 0..8 {
            assert_eq!(plan.router_range(s).len(), 8);
        }
        // One extreme outlier: everyone else still gets ≥ 1 router.
        let mut weights = [0u64; 64];
        weights[0] = u64::MAX / 2;
        let plan = ShardPlan::weighted(topo.as_ref(), 8, &weights);
        for s in 0..8 {
            assert!(!plan.router_range(s).is_empty(), "shard {s} empty");
        }
        assert_eq!(plan.router_range(0).len(), 1, "outlier router should sit alone");
    }

    #[test]
    #[should_panic(expected = "one weight per router")]
    fn weighted_plan_rejects_wrong_weight_count() {
        let topo = build_topology(TopologyKind::Mesh, 64).unwrap();
        let _ = ShardPlan::weighted(topo.as_ref(), 4, &[1; 63]);
    }
}
