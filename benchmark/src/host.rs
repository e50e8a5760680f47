//! Host fingerprint and memory high-water mark.

use std::process::Command;

/// What a result was measured on. Later runs compare against a result
/// only when the fingerprint matches.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// [`std::thread::available_parallelism`].
    pub nproc: usize,
    /// `rustc --version` of the compiler that built this binary.
    pub rustc: &'static str,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_rev: String,
}

impl Fingerprint {
    /// Reads the fingerprint of the running host.
    pub fn detect() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let git_rev = Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            cpu,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("BENCH_RUSTC_VERSION"),
            git_rev,
        }
    }
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB, or `None`
/// where `/proc/self/status` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}
