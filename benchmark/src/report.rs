//! The run's report: the human-readable table, the result file with the
//! host fingerprint and each metric's quartiles, the traced run's span
//! file, and the one-line JSON result.

use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;

use crate::catalogue;
use crate::host::Fingerprint;
use crate::quantile::Quartiles;
use crate::spans::SpanLog;
use crate::workload::{Workload, DEFAULT_SEED};

/// Paper figures the claim metrics are printed against.
const PAPER_VIX_OVER_IF_PCT: f64 = 16.2;
const PAPER_MIX8_SPEEDUP: f64 = 1.07;

/// One reported value.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// Reported value.
    pub value: f64,
    /// Spread of the samples behind the value, where it has several.
    pub quartiles: Option<Quartiles>,
}

impl Metric {
    /// A single-valued metric.
    pub fn new(name: &'static str, value: f64) -> Self {
        Metric {
            name,
            value,
            quartiles: None,
        }
    }

    /// The median of `samples` (0 when there are none).
    pub fn sampled(name: &'static str, samples: &[f64]) -> Self {
        let q = Quartiles::of(samples);
        Metric {
            name,
            value: q.map_or(0.0, |q| q.median),
            quartiles: q,
        }
    }

    /// Attaches quartiles.
    pub fn with_quartiles(mut self, q: Option<Quartiles>) -> Self {
        self.quartiles = q;
        self
    }

    /// The metric's unit from the catalogue.
    pub fn unit(&self) -> &'static str {
        catalogue::def(self.name).unit
    }
}

/// Everything one run measured and checked.
#[derive(Debug)]
pub struct Report {
    /// The workload.
    pub workload: Workload,
    /// Seed of the measured simulations.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// The host.
    pub fingerprint: Fingerprint,
    /// Repetitions run, warm-up included.
    pub reps: usize,
    /// Of those, traced repetitions.
    pub traced_reps: usize,
    /// Full-size chunk timings behind the cycle-time percentiles.
    pub chunk_samples: usize,
    /// Simulations attempted.
    pub attempted: u64,
    /// One entry per failed simulation.
    pub failures: Vec<String>,
    /// Reported metrics, in catalogue order.
    pub metrics: Vec<Metric>,
    /// Digests of the default-seed simulations (what `digests.txt` records).
    pub default_digests: Vec<(&'static str, u64)>,
    /// `(repetition, simulation, PhaseBreakdown JSON)` of every profiled run.
    pub breakdowns: Vec<(u32, &'static str, String)>,
    /// Bench-side spans of the traced repetitions.
    pub spans: SpanLog,
}

/// Formats a value with every digit it has; non-finite values become 0 so
/// the line stays valid JSON.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

impl Report {
    /// Whether every attempted simulation passed its checks.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The metric named `name`.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The result line: `correct`, `attempted`, `failed`, and every metric
    /// with its unit.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| catalogue::in_result_line(m.name))
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    num(m.value),
                    m.unit()
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        )
    }

    /// The human-readable report printed before the result line.
    pub fn render(&self) -> String {
        let f = &self.fingerprint;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "workload {}  seed {}  {}  repetitions {} (1 warm-up{})",
            self.workload.name(),
            self.seed,
            if self.trace {
                "traced run"
            } else {
                "end-to-end run"
            },
            self.reps,
            if self.trace {
                format!(", {} traced", self.traced_reps)
            } else {
                String::new()
            },
        );
        let _ = writeln!(
            out,
            "host: cpu \"{}\", nproc {}, {}, git rev {}",
            f.cpu, f.nproc, f.rustc, f.git_rev
        );
        let _ = writeln!(
            out,
            "{:<34} {:>14} {:<16} {:>12} {:>12} {:>6}  {}",
            "metric",
            "value",
            "unit",
            "q1",
            "q3",
            "n",
            if self.trace { "should move" } else { "" }
        );
        for m in &self.metrics {
            let def = catalogue::def(m.name);
            let (q1, q3, n) =
                m.quartiles
                    .map_or((String::new(), String::new(), String::new()), |q| {
                        (
                            format!("{:.4}", q.q1),
                            format!("{:.4}", q.q3),
                            q.n.to_string(),
                        )
                    });
            let _ = writeln!(
                out,
                "{:<34} {:>14.4} {:<16} {:>12} {:>12} {:>6}  {}",
                m.name, m.value, def.unit, q1, q3, n, def.about
            );
        }
        if !self.trace {
            let _ = writeln!(out, "cycle-time samples: {} chunks", self.chunk_samples);
            let _ = writeln!(out, "paper claims (simulated; the model is unvalidated):");
            if let Some(m) = self.metric("vix_over_if_pct") {
                let _ = writeln!(
                    out,
                    "  vix_over_if_pct {:+.2} %   paper {:+.1} %   error {:+.2} points",
                    m.value,
                    PAPER_VIX_OVER_IF_PCT,
                    m.value - PAPER_VIX_OVER_IF_PCT
                );
            }
            if let Some(m) = self.metric("ipc_speedup") {
                let _ = writeln!(
                    out,
                    "  ipc_speedup     {:.4}     paper {:.2}     error {:+.4} ({:+.1} %)",
                    m.value,
                    PAPER_MIX8_SPEEDUP,
                    m.value - PAPER_MIX8_SPEEDUP,
                    (m.value / PAPER_MIX8_SPEEDUP - 1.0) * 100.0
                );
            }
        }
        for (label, d) in &self.default_digests {
            let _ = writeln!(
                out,
                "digest {} {label} seed {DEFAULT_SEED}: {d:016x}",
                self.workload.name()
            );
        }
        let _ = writeln!(
            out,
            "checks: {} simulations attempted, {} failed",
            self.attempted,
            self.failures.len()
        );
        for why in &self.failures {
            let _ = writeln!(out, "  FAILED {why}");
        }
        out
    }

    /// The result file: fingerprint, failures, and each metric with its
    /// median and quartiles where it has several samples.
    pub fn result_json(&self) -> String {
        let f = &self.fingerprint;
        let esc = vix_telemetry::json::escape;
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let q = m.quartiles.map_or(String::new(), |q| {
                    format!(
                        ", \"q1\": {}, \"median\": {}, \"q3\": {}, \"samples\": {}",
                        num(q.q1),
                        num(q.median),
                        num(q.q3),
                        q.n
                    )
                });
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"{q}}}",
                    m.name,
                    num(m.value),
                    m.unit()
                )
            })
            .collect();
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|s| format!("\"{}\"", esc(s)))
            .collect();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"repetitions\": {}, \"chunk_samples\": {},\n \
             \"host\": {{\"cpu\": \"{}\", \"nproc\": {}, \"rustc\": \"{}\", \"git_rev\": \"{}\"}},\n \
             \"attempted\": {}, \"failures\": [{}],\n \"metrics\": {{{}}}}}\n",
            self.workload.name(),
            self.seed,
            self.trace,
            self.reps,
            self.chunk_samples,
            esc(&f.cpu),
            f.nproc,
            esc(f.rustc),
            esc(&f.git_rev),
            self.attempted,
            failures.join(", "),
            metrics.join(",\n  ")
        )
    }

    /// Writes the result file and, for a traced run, the span file (bench
    /// spans plus the engine profiler's phase breakdown of every profiled
    /// simulation) into `dir`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_files(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let stem = format!(
            "{}-seed{}-trace{}",
            self.workload.name(),
            self.seed,
            u8::from(self.trace)
        );
        std::fs::write(dir.join(format!("{stem}.json")), self.result_json())?;
        if self.trace {
            let mut out = io::BufWriter::new(std::fs::File::create(
                dir.join(format!("{stem}-spans.jsonl")),
            )?);
            self.spans.write_jsonl(&mut out)?;
            for (rep, label, json) in &self.breakdowns {
                writeln!(out, "{{\"type\":\"phase_breakdown\",\"rep\":{rep},\"sim\":\"{label}\",\"breakdown\":{json}}}")?;
            }
            out.flush()?;
        }
        Ok(())
    }
}
