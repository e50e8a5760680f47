//! Command line of the VIX end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable report, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Result files (and the traced run's spans) go to `.bench_out/` in the
//! working directory. Exits 1 when any simulation fails a check, 2 on a
//! usage error.

use std::path::Path;
use std::process::ExitCode;

use vix_e2e_bench::{execute, Options, Plan, Scale, Workload, DEFAULT_SEED};

const USAGE: &str = "usage: vix-e2e-bench --workload <mesh64-saturated|mesh64-lowload|mesh256-sharded|cmp64-mix8|all> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 20,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                out.workloads = if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?]
                };
            }
            "--seed" => {
                out.seed = value
                    .parse()
                    .map_err(|e| format!("bad seed {value}: {e}"))?
            }
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .map_err(|e| format!("bad seconds {value}: {e}"))?
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if out.workloads.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let opts = Options {
        seconds: args.seconds as f64,
        trace: args.trace,
    };
    let mut lines = Vec::new();
    let mut correct = true;
    for &w in &args.workloads {
        let report = execute(&Plan::new(w, Scale::Full, args.seed), &opts);
        print!("{}", report.render());
        if let Err(e) = report.write_files(Path::new(".bench_out")) {
            eprintln!("warning: could not write the result files: {e}");
        }
        correct &= report.correct();
        lines.push(report.json_line());
    }
    // With several workloads every result line is printed, the last one
    // last; a single workload's line is the final stdout line.
    for line in lines {
        println!("{line}");
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
