//! The cycle pipeline: phases 2–5 of a network cycle over one shard.
//!
//! There is exactly one implementation of source injection, delivery,
//! router stepping, idle replay, and fan-out, and it runs over a
//! [`Shard`]: a contiguous range of routers and their terminals, borrowed
//! as mutable slices ([`Fabric`]), plus that range's long-lived scheduler
//! state ([`ShardState`]).
//!
//! * **Serial stepping is the one-shard case.** [`NetworkSim::step`]
//!   generates phase 1, then drives the pipeline inline over a single
//!   shard covering the whole network — no threads, no barrier, no
//!   mailboxes, no boundary lists — and merges its records in the same
//!   step.
//! * **Sharded stepping** (`crate::shard`) runs one pipeline per shard thread,
//!   wrapped in the mailbox drain before it and the boundary scan after.
//! * **Gated and ungated differ only in the event source.** With
//!   [`SimConfig::activity_gating`] on, deliveries come from the wake
//!   calendar and the routers to step from the active set; off, the
//!   delivery list is every pipe with something due (the exhaustive
//!   sweep) and the work list is every router of the shard. Everything
//!   downstream of that choice is shared, so `tests/gating_parity.rs`
//!   holds the calendar and active set against the sweep without either
//!   side being written twice.
//!
//! [`NetworkSim::step`]: crate::NetworkSim::step

use std::ops::Range;

use crate::channel::Pipe;
use crate::network::{CreditDest, EjectedPacket, RouteTable};
use crate::source::SourceQueue;
use crate::stats::NetworkStats;
use crate::{CREDIT_LATENCY, FLIT_LATENCY};
use vix_core::{Cycle, Flit, NodeId, PortId, RouterId, SimConfig, VcId};
use vix_router::{Router, RouterOutput};
use vix_telemetry::{
    Profiler, SpanKind, SpanStart, TelemetrySink, TraceEvent, TraceEventKind, NO_ID,
};

/// Size of the wake-calendar ring. Must exceed every pipe latency in the
/// network (flit links, credit links, and the 1-cycle injection link) so a
/// slot is always fully drained before an event can be scheduled back into
/// it.
pub(crate) const WAKE_RING: usize = 4;
const _: () = {
    assert!(WAKE_RING as u64 > FLIT_LATENCY);
    assert!(WAKE_RING as u64 > CREDIT_LATENCY);
};

/// A deferred delivery: drain this pipe when its due cycle arrives and wake
/// the receiving router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WakeEvent {
    /// Injection link of node `n` has a flit due.
    Inject(usize),
    /// Flit link leaving router `r` through port `p` has flits due.
    FlitLink(usize, usize),
    /// Credit link leaving router `r`'s input port `p` has credits due.
    CreditLink(usize, usize),
}

/// Scheduler bookkeeping (see DESIGN.md §6c). Indexed by global router and
/// node ids; a shard only ever touches its own entries.
///
/// The calendar, active set, and retention are used only with
/// [`SimConfig::activity_gating`] on. Correctness contract: a gated run is
/// bit-identical to an ungated run — skipped cycles are replayed through
/// [`vix_router::Router::note_idle_cycles`] before a router steps again.
#[derive(Debug)]
pub(crate) struct GatingState {
    /// `calendar[t % WAKE_RING]` — deliveries due at cycle `t`.
    pub(crate) calendar: [Vec<WakeEvent>; WAKE_RING],
    /// Routers to step this cycle (sorted ascending before phase 5 so that
    /// stats accumulation and ejection order match the ungated sweep).
    pub(crate) work: Vec<usize>,
    /// Routers pre-activated for the next cycle (retention: a router only
    /// leaves the active set after a step that begins *and* ends quiescent).
    pub(crate) pending: Vec<usize>,
    /// `active_mark[r]` — last cycle router `r` was queued for; dedups
    /// multiple wakeups in one cycle.
    pub(crate) active_mark: Vec<u64>,
    /// `stepped_until[r]` — cycles of router `r`'s history that have been
    /// executed or replayed; the gap to `now` is replayed lazily via
    /// `note_idle_cycles` when the router re-activates.
    pub(crate) stepped_until: Vec<u64>,
    /// Per-pipe scheduled-stamp dedup: the due cycle already scheduled, so
    /// multiple same-cycle pushes (e.g. VIX multi-grant credits) enqueue
    /// one event.
    inject_sched: Vec<u64>,
    flit_sched: Vec<Vec<u64>>,
    credit_sched: Vec<Vec<u64>>,
    /// Total `Router::step_into` calls over the run (gated and ungated);
    /// the observable for O(active) scheduling tests.
    pub(crate) router_steps: u64,
}

impl GatingState {
    pub(crate) fn new(nodes: usize, routers: usize, radix: usize) -> Self {
        // Worst-case slot population: every injection link plus every flit
        // and credit link delivers on the same cycle. Reserving it up front
        // keeps the steady-state step allocation-free — for the calendar
        // and for the ungated sweep that fills the same slot.
        let slot_cap = nodes + 2 * routers * radix;
        GatingState {
            calendar: std::array::from_fn(|_| Vec::with_capacity(slot_cap)),
            work: Vec::with_capacity(routers),
            pending: Vec::with_capacity(routers),
            active_mark: vec![u64::MAX; routers],
            stepped_until: vec![0; routers],
            inject_sched: vec![u64::MAX; nodes],
            flit_sched: vec![vec![u64::MAX; radix]; routers],
            credit_sched: vec![vec![u64::MAX; radix]; routers],
            router_steps: 0,
        }
    }

    /// Enqueues `ev` for cycle `due` unless its pipe is already scheduled
    /// for that cycle.
    #[inline]
    fn schedule(&mut self, ev: WakeEvent, due: u64) {
        let stamp = match ev {
            WakeEvent::Inject(n) => &mut self.inject_sched[n],
            WakeEvent::FlitLink(r, p) => &mut self.flit_sched[r][p],
            WakeEvent::CreditLink(r, p) => &mut self.credit_sched[r][p],
        };
        if *stamp != due {
            *stamp = due;
            self.calendar[(due % WAKE_RING as u64) as usize].push(ev);
        }
    }

    /// Deliveries still scheduled in the calendar (a heartbeat gauge).
    pub(crate) fn wake_depth(&self) -> u64 {
        self.calendar.iter().map(|slot| slot.len() as u64).sum()
    }
}

/// Marks router `r` active for cycle `at`, queueing it in `queue` unless
/// already queued for that cycle.
pub(crate) fn activate(active_mark: &mut [u64], queue: &mut Vec<usize>, r: usize, at: u64) {
    if active_mark[r] != at {
        active_mark[r] = at;
        queue.push(r);
    }
}

/// One ejection as [`NetworkStats::record_ejection`] takes it; buffered
/// per shard and replayed in ascending shard order.
#[derive(Debug, Clone, Copy)]
struct StatRecord {
    source: NodeId,
    is_tail: bool,
    created_at: Cycle,
    at: Cycle,
}

/// One cycle's observable output of one shard: the measurement-window
/// ejections and the delivered packets, in ascending router order.
#[derive(Debug, Default)]
pub(crate) struct Records {
    stats: Vec<StatRecord>,
    ejects: Vec<EjectedPacket>,
}

impl Records {
    /// Replays the buffered records into `stats` and `ejected` and empties
    /// the buffers (keeping their capacity).
    pub(crate) fn merge_into(
        &mut self,
        stats: &mut NetworkStats,
        ejected: &mut Vec<EjectedPacket>,
    ) {
        for rec in self.stats.drain(..) {
            stats.record_ejection(rec.source, rec.is_tail, rec.created_at, rec.at);
        }
        ejected.append(&mut self.ejects);
    }
}

/// The long-lived scheduler state of one shard: what survives from one
/// cycle to the next besides the network itself.
#[derive(Debug)]
pub(crate) struct ShardState {
    /// Global indices of the routers this shard steps.
    pub(crate) routers: Range<usize>,
    /// Global indices of the terminals attached to them.
    pub(crate) nodes: Range<usize>,
    pub(crate) gating: GatingState,
    pub(crate) records: Records,
    /// Reused router-output buffer: [`Router::step_into`] writes each
    /// router's flits and credits here, so the steady-state step performs
    /// no heap allocation.
    out: RouterOutput,
    /// A sharded run's per-shard profiler track. `None` for the serial shard,
    /// whose spans go to the engine profiler inside its sink.
    pub(crate) prof: Option<Box<Profiler>>,
}

impl ShardState {
    /// State for the shard owning `routers` and `nodes` of a network with
    /// `total_nodes` terminals, `total_routers` routers, and `radix` ports.
    pub(crate) fn new(
        routers: Range<usize>,
        nodes: Range<usize>,
        total_nodes: usize,
        total_routers: usize,
        radix: usize,
    ) -> Self {
        ShardState {
            routers,
            nodes,
            gating: GatingState::new(total_nodes, total_routers, radix),
            records: Records::default(),
            out: RouterOutput::default(),
            prof: None,
        }
    }
}

/// Mutable slices of the network's per-router and per-node arrays.
#[derive(Debug)]
pub(crate) struct Fabric<'a> {
    pub(crate) routers: &'a mut [Router],
    /// `flit_pipes[r][p]` — link leaving router `r` through port `p`.
    pub(crate) flit_pipes: &'a mut [Vec<Option<Pipe<Flit>>>],
    /// `credit_pipes[r][p]` — credits leaving router `r`'s *input* port `p`.
    pub(crate) credit_pipes: &'a mut [Vec<Pipe<VcId>>],
    pub(crate) credit_dests: &'a [Vec<CreditDest>],
    pub(crate) inject_pipes: &'a mut [Pipe<Flit>],
    pub(crate) sources: &'a mut [SourceQueue],
}

impl<'a> Fabric<'a> {
    /// Splits off the first `routers` routers and `nodes` terminals,
    /// leaving the rest in `self`.
    pub(crate) fn split_front(&mut self, routers: usize, nodes: usize) -> Fabric<'a> {
        fn front<'a, T>(rest: &mut &'a mut [T], n: usize) -> &'a mut [T] {
            let (head, tail) = std::mem::take(rest).split_at_mut(n);
            *rest = tail;
            head
        }
        let (credit_dests, tail) = self.credit_dests.split_at(routers);
        self.credit_dests = tail;
        Fabric {
            routers: front(&mut self.routers, routers),
            flit_pipes: front(&mut self.flit_pipes, routers),
            credit_pipes: front(&mut self.credit_pipes, routers),
            credit_dests,
            inject_pipes: front(&mut self.inject_pipes, nodes),
            sources: front(&mut self.sources, nodes),
        }
    }
}

/// Heartbeat gauges over one shard: deliveries pending in its wake
/// calendar (always 0 ungated) and flits buffered in its routers.
pub(crate) fn health_gauges(gating: &GatingState, routers: &[Router]) -> (u64, u64) {
    let buffered = routers.iter().map(|r| r.buffered_flits() as u64).sum();
    (gating.wake_depth(), buffered)
}

/// One shard of the network, ready to run the cycle pipeline: its slice
/// of routers, pipes, and sources, its scheduler state, and the shared
/// read-only context. Router, pipe, and source indices are global; the
/// range starts in [`ShardState`] translate them into the local slices.
#[derive(Debug)]
pub(crate) struct Shard<'a> {
    pub(crate) st: &'a mut ShardState,
    pub(crate) fab: Fabric<'a>,
    pub(crate) cfg: &'a SimConfig,
    /// Routing and link tables: every per-flit topology question.
    pub(crate) routes: &'a RouteTable,
    /// The run's sink for the serial shard; a disabled one for sharded
    /// workers (recording runs never shard, see
    /// [`NetworkSim::effective_shards`](crate::NetworkSim::effective_shards)).
    pub(crate) sink: &'a mut TelemetrySink,
}

impl Shard<'_> {
    /// True when router `r` belongs to this shard.
    #[inline]
    fn owns(&self, r: usize) -> bool {
        self.st.routers.contains(&r)
    }

    /// True when credits leaving input port `p` of local router `ri` are
    /// delivered inside this shard.
    fn credit_is_local(&self, ri: usize, p: usize) -> bool {
        match self.fab.credit_dests[ri][p] {
            CreditDest::Upstream(ur, _) => self.owns(ur.0),
            CreditDest::Source(_) => true,
            CreditDest::Unconnected => unreachable!("credit on unconnected port {p}"),
        }
    }

    /// Starts a profiling span chain (no clock read when profiling is off).
    #[inline]
    pub(crate) fn span_start(&self) -> SpanStart {
        match &self.st.prof {
            Some(p) => p.start(),
            None => self.sink.span_start(),
        }
    }

    /// Closes the span begun at `from` as `kind` for cycle `t` and starts
    /// the next one at the same instant.
    #[inline]
    pub(crate) fn lap(&mut self, kind: SpanKind, t: u64, from: SpanStart) -> SpanStart {
        match &mut self.st.prof {
            Some(p) => p.lap(kind, t, from),
            None => self.sink.span_lap(kind, t, from),
        }
    }

    /// Queues router `r` to step at cycle `t` (gated runs; ungated runs
    /// step every router anyway).
    #[inline]
    pub(crate) fn wake(&mut self, r: usize, t: u64) {
        if self.cfg.activity_gating {
            let g = &mut self.st.gating;
            activate(&mut g.active_mark, &mut g.work, r, t);
        }
    }

    /// Puts `ev` on the wake calendar for cycle `due` (gated runs; ungated
    /// runs sweep every pipe instead).
    #[inline]
    fn schedule(&mut self, ev: WakeEvent, due: u64) {
        if self.cfg.activity_gating {
            self.st.gating.schedule(ev, due);
        }
    }

    /// Records trace event `kind` for `flit` at `port` of `router`.
    #[inline]
    fn trace_flit(
        &mut self,
        kind: TraceEventKind,
        now: Cycle,
        router: usize,
        port: PortId,
        flit: &Flit,
    ) {
        if self.sink.tracing() {
            self.sink.trace(TraceEvent {
                router: router as u32,
                port: port.0 as u32,
                vc: flit.out_vc().map_or(NO_ID, |v| v.0 as u32),
                packet: flit.packet.id.0,
                flit: flit.index() as u32,
                ..TraceEvent::at(now, kind)
            });
        }
    }

    /// Phases 2–5 of cycle `now` over this shard, continuing the profiling
    /// span chain `span`. Phase 1 (traffic generation) has already
    /// enqueued this cycle's packets on the sources.
    pub(crate) fn step(&mut self, now: Cycle, mut span: SpanStart) -> SpanStart {
        let t = now.0;
        let gated = self.cfg.activity_gating;

        // 2. Sources stream flits toward their routers. Every source tries
        // every cycle (an idle source's `try_send` is a pure no-op); a push
        // schedules the injection link's delivery one cycle out.
        for i in 0..self.fab.sources.len() {
            let n = self.st.nodes.start + i;
            let routes = self.routes;
            let (router, _) = routes.home(NodeId(n));
            let resolve = |dest: NodeId| routes.resolve(router, dest);
            if let Some(flit) = self.fab.sources[i].try_send(now, resolve) {
                self.fab.inject_pipes[i].push(now, flit);
                self.schedule(WakeEvent::Inject(n), t + 1);
            }
        }
        span = self.lap(SpanKind::SourceInject, t, span);

        // 3 + 4. Deliver everything due this cycle: the calendar slot, or
        // the exhaustive sweep ungated. Distinct events touch disjoint
        // state (each pipe feeds one buffer; credits are counter
        // increments), so delivery order is interchangeable. The sweep
        // lists credit links last, so its two halves are profiled as
        // `Deliver` and `CreditDeliver`; a calendar drain is one `Deliver`.
        let ids = self.sink.ids;
        let slot = (t % WAKE_RING as u64) as usize;
        let mut events = std::mem::take(&mut self.st.gating.calendar[slot]);
        let credits_from = if gated {
            events.len()
        } else {
            self.sweep_due(now, &mut events)
        };
        self.sink.gauge(ids.sched_wake_events, events.len() as u64);
        for &ev in &events[..credits_from] {
            self.deliver(ev, now);
        }
        span = self.lap(SpanKind::Deliver, t, span);
        if !gated {
            for &ev in &events[credits_from..] {
                self.deliver(ev, now);
            }
            span = self.lap(SpanKind::CreditDeliver, t, span);
        }
        events.clear();
        self.st.gating.calendar[slot] = events;

        // 5. Step the routers in ascending index order (stats accumulation
        // and ejection order must not depend on the scheduler): the active
        // set gated, every router of the shard ungated.
        let in_window = t >= self.cfg.warmup && t < self.cfg.warmup + self.cfg.measure;
        let mut out = std::mem::take(&mut self.st.out);
        if gated {
            let mut work = std::mem::take(&mut self.st.gating.work);
            work.sort_unstable();
            self.sink.gauge(ids.sched_active_routers, work.len() as u64);
            for &r in &work {
                self.step_router(r, now, in_window, &mut out);
            }
            work.clear();
            self.st.gating.work = std::mem::replace(&mut self.st.gating.pending, work);
        } else {
            self.sink
                .gauge(ids.sched_active_routers, self.st.routers.len() as u64);
            for r in self.st.routers.clone() {
                self.step_router(r, now, in_window, &mut out);
            }
        }
        self.st.out = out;
        self.lap(SpanKind::RouterStep, t, span)
    }

    /// The ungated event source: every pipe of this shard with a delivery
    /// due at `now` — injection links in node order, then flit links, then
    /// credit links — returning where the credit links start. Boundary
    /// pipes never have anything due mid-cycle (the sharded boundary scan
    /// drained them through `now` at the end of the previous cycle).
    fn sweep_due(&self, now: Cycle, events: &mut Vec<WakeEvent>) -> usize {
        let (r0, n0) = (self.st.routers.start, self.st.nodes.start);
        for (i, pipe) in self.fab.inject_pipes.iter().enumerate() {
            if pipe.has_ready(now) {
                events.push(WakeEvent::Inject(n0 + i));
            }
        }
        for (ri, row) in self.fab.flit_pipes.iter().enumerate() {
            for (p, pipe) in row.iter().enumerate() {
                if pipe.as_ref().is_some_and(|pipe| pipe.has_ready(now)) {
                    events.push(WakeEvent::FlitLink(r0 + ri, p));
                }
            }
        }
        let credits_from = events.len();
        for (ri, row) in self.fab.credit_pipes.iter().enumerate() {
            for (p, pipe) in row.iter().enumerate() {
                if pipe.has_ready(now) {
                    events.push(WakeEvent::CreditLink(r0 + ri, p));
                }
            }
        }
        credits_from
    }

    /// Drains one pipe with a delivery due at `now`. Flit deliveries wake
    /// the receiving router.
    fn deliver(&mut self, ev: WakeEvent, now: Cycle) {
        let (r0, n0) = (self.st.routers.start, self.st.nodes.start);
        match ev {
            WakeEvent::Inject(n) => {
                let (RouterId(router), port) = self.routes.home(NodeId(n));
                while let Some(flit) = self.fab.inject_pipes[n - n0].pop_ready(now) {
                    self.trace_flit(TraceEventKind::Inject, now, router, port, &flit);
                    self.fab.routers[router - r0].accept_flit(port, flit);
                }
                self.wake(router, now.0);
            }
            WakeEvent::FlitLink(r, p) => {
                let (down, down_port) = self
                    .routes
                    .downstream(r, PortId(p))
                    .expect("flit pipe exists only on connected ports");
                debug_assert!(
                    self.owns(down.0),
                    "boundary pipe had a delivery due mid-cycle"
                );
                let pipe = self.fab.flit_pipes[r - r0][p]
                    .as_mut()
                    .expect("connected port has a pipe");
                while let Some(flit) = pipe.pop_ready(now) {
                    self.fab.routers[down.0 - r0].accept_flit(down_port, flit);
                }
                self.wake(down.0, now.0);
            }
            // Credit deliveries never wake a router: a credit only
            // increments an output-side counter, and output state is
            // unread by an empty cycle — a quiescent router has no flit the
            // credit could release. A non-quiescent receiver is already in
            // the active set (flit delivery activated it and retention
            // holds it until it drains), so the credit is applied before
            // its step either way.
            WakeEvent::CreditLink(r, p) => {
                let pipe = &mut self.fab.credit_pipes[r - r0][p];
                match self.fab.credit_dests[r - r0][p] {
                    CreditDest::Upstream(ur, up) => {
                        while let Some(vc) = pipe.pop_ready(now) {
                            self.fab.routers[ur.0 - r0].credit_return(up, vc);
                        }
                    }
                    CreditDest::Source(node) => {
                        while let Some(vc) = pipe.pop_ready(now) {
                            self.fab.sources[node.0 - n0].credit_return(vc);
                        }
                    }
                    CreditDest::Unconnected => {
                        unreachable!("credit on unconnected port {p} of router {r}")
                    }
                }
            }
        }
    }

    /// Steps router `r` at `now` — replaying its skipped quiescent cycles
    /// first — and fans its output out. A router leaves the active set only
    /// after a step that begins and ends quiescent, so its last executed
    /// cycle before a skip is always a real empty cycle.
    fn step_router(&mut self, r: usize, now: Cycle, in_window: bool, out: &mut RouterOutput) {
        let t = now.0;
        let router = &mut self.fab.routers[r - self.st.routers.start];
        let was_quiescent = router.is_quiescent();
        let gap = t - self.st.gating.stepped_until[r];
        if gap > 0 {
            router.note_idle_cycles(gap);
        }
        router.step_into(now, out, self.sink);
        let retain = !(was_quiescent && router.is_quiescent());
        self.st.gating.router_steps += 1;
        self.st.gating.stepped_until[r] = t + 1;
        self.fan_out(r, now, in_window, out);
        if retain && self.cfg.activity_gating {
            let g = &mut self.st.gating;
            activate(&mut g.active_mark, &mut g.pending, r, t + 1);
        }
    }

    /// Fans one router's step output out to ejection records and link
    /// pipes. A push onto a pipe delivered inside this shard schedules its
    /// calendar event; boundary pipes schedule nothing — the sharded
    /// boundary scan visits them unconditionally.
    fn fan_out(&mut self, r: usize, now: Cycle, in_window: bool, out: &mut RouterOutput) {
        let t = now.0;
        let ri = r - self.st.routers.start;
        for (p, mut flit) in out.flits.drain(..) {
            if self.routes.is_local_port(p) {
                debug_assert_eq!(
                    self.routes.home(flit.packet.dest),
                    (RouterId(r), p),
                    "flit ejected at the wrong terminal"
                );
                self.trace_flit(TraceEventKind::Eject, now, r, p, &flit);
                if in_window {
                    self.st.records.stats.push(StatRecord {
                        source: flit.packet.source,
                        is_tail: flit.is_tail(),
                        created_at: flit.packet.created_at,
                        at: now,
                    });
                }
                if flit.is_tail() {
                    self.st.records.ejects.push(EjectedPacket {
                        packet: flit.packet,
                        at: now,
                    });
                }
            } else {
                // Lookahead routing: rewrite the routing fields for the
                // downstream router before the flit enters the link.
                let (down, _) =
                    self.routes.downstream(r, p).expect("route uses connected ports");
                let (out_port, lookahead, _) = self.routes.resolve(down, flit.packet.dest);
                flit.set_route(out_port, lookahead);
                self.trace_flit(TraceEventKind::LinkTraversal, now, r, p, &flit);
                self.fab.flit_pipes[ri][p.0]
                    .as_mut()
                    .expect("connected port has a pipe")
                    .push(now, flit);
                if self.owns(down.0) {
                    self.schedule(WakeEvent::FlitLink(r, p.0), t + FLIT_LATENCY);
                }
            }
        }
        for (p, vc) in out.credits.drain(..) {
            if self.sink.tracing() {
                self.sink.trace(TraceEvent {
                    router: r as u32,
                    port: p.0 as u32,
                    vc: vc.0 as u32,
                    ..TraceEvent::at(now, TraceEventKind::CreditReturn)
                });
            }
            self.fab.credit_pipes[ri][p.0].push(now, vc);
            if self.credit_is_local(ri, p.0) {
                self.schedule(WakeEvent::CreditLink(r, p.0), t + CREDIT_LATENCY);
            }
        }
    }

    /// Rebuilds this shard's wake calendar from the contents of its own
    /// pipes, after another scheduler ran the previous cycles. Every
    /// in-flight item's due cycle lies within `WAKE_RING` of now, so slots
    /// never alias. Pipes delivered outside the shard are skipped — the
    /// sharded boundary scan replaces their calendar events. Ungated
    /// shards keep no calendar.
    pub(crate) fn rebuild_calendar(&mut self) {
        if !self.cfg.activity_gating {
            return;
        }
        let g = &mut self.st.gating;
        for slot in &mut g.calendar {
            slot.clear();
        }
        g.inject_sched.fill(u64::MAX);
        g.flit_sched.iter_mut().for_each(|row| row.fill(u64::MAX));
        g.credit_sched.iter_mut().for_each(|row| row.fill(u64::MAX));
        let (r0, n0) = (self.st.routers.start, self.st.nodes.start);
        for (i, pipe) in self.fab.inject_pipes.iter().enumerate() {
            for due in pipe.dues() {
                self.st.gating.schedule(WakeEvent::Inject(n0 + i), due);
            }
        }
        for ri in 0..self.fab.routers.len() {
            let r = r0 + ri;
            for (p, pipe) in self.fab.flit_pipes[ri].iter().enumerate() {
                let Some(pipe) = pipe.as_ref().filter(|pipe| !pipe.is_empty()) else {
                    continue;
                };
                let (down, _) = self
                    .routes
                    .downstream(r, PortId(p))
                    .expect("flit pipe exists only on connected ports");
                if self.owns(down.0) {
                    for due in pipe.dues() {
                        self.st.gating.schedule(WakeEvent::FlitLink(r, p), due);
                    }
                }
            }
            for p in 0..self.fab.credit_pipes[ri].len() {
                if self.fab.credit_pipes[ri][p].is_empty() || !self.credit_is_local(ri, p) {
                    continue;
                }
                for due in self.fab.credit_pipes[ri][p].dues() {
                    self.st.gating.schedule(WakeEvent::CreditLink(r, p), due);
                }
            }
        }
    }
}
