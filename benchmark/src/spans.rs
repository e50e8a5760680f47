//! Bench-side spans around each call into a simulator layer.
//!
//! Spans are kept in memory while the benchmark runs and written out as
//! JSON lines when it ends. Every span names the span that caused it
//! (`parent`, 0 for a root) and the repetition it belongs to (`rep`, the
//! identifier all spans of one repetition share).

use std::io::{self, Write};
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u32,
    /// Id of the enclosing span, 0 for a repetition's root span.
    pub parent: u32,
    /// Repetition the span belongs to.
    pub rep: u32,
    /// Layer call, e.g. `NetworkSim::run_cycles`.
    pub name: &'static str,
    /// Start, in ns since the log's epoch.
    pub start_ns: u64,
    /// End, in ns since the log's epoch.
    pub end_ns: u64,
}

/// In-memory span log. A disabled log hands out ids but records nothing,
/// so untraced repetitions pay only for the clock reads their timing
/// needs anyway.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    enabled: bool,
    next_id: u32,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        SpanLog {
            epoch,
            enabled: false,
            next_id: 0,
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans that follow.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Reserves the id of a span that will be recorded once it closes, so
    /// its children can name it as their parent.
    pub fn reserve(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }

    /// Records a span that ran from `start` to `end`.
    pub fn record(
        &mut self,
        id: u32,
        parent: u32,
        rep: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                id,
                parent,
                rep,
                name,
                start_ns: ns(start),
                end_ns: ns(end),
            });
        }
    }

    /// Recorded spans, in the order they closed.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl<W: Write>(&self, out: &mut W) -> io::Result<()> {
        for s in &self.spans {
            writeln!(
                out,
                "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"rep\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.rep, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}
