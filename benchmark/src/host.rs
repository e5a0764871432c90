//! What the numbers were taken on, and how much memory the process used.

use std::fs;

/// Host and build identity recorded with every result.
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// `/proc/sys/kernel/osrelease`.
    pub kernel: String,
    /// `rustc --version`, passed in by `run.sh`.
    pub rustc: String,
    /// `git rev-parse HEAD`, passed in by `run.sh` (`unknown` outside git).
    pub commit: String,
}

impl Fingerprint {
    /// Reads the host; `rustc` and `commit` come from `run.sh`'s environment.
    pub fn read() -> Fingerprint {
        let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
        Fingerprint {
            cores: cores(),
            kernel: fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
            rustc: env("PIPELINE_BENCH_RUSTC"),
            commit: env("PIPELINE_BENCH_COMMIT"),
        }
    }

    /// `key=value` pairs for the result header and the trace file.
    pub fn pairs(&self) -> Vec<(&'static str, String)> {
        vec![
            ("cores", self.cores.to_string()),
            ("kernel", self.kernel.clone()),
            ("rustc", self.rustc.clone()),
            ("commit", self.commit.clone()),
        ]
    }
}

/// Cores the process may use (1 when the host will not say).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// One `Vm*` line of `/proc/self/status`, in MiB.
fn status_mib(key: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set of the process so far (`VmHWM`), MiB; 0 where
/// `/proc` is not available.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:").unwrap_or(0.0)
}

/// Per-span peak memory: resets the kernel's high-water mark where
/// `/proc/self/clear_refs` is writable and reads `VmHWM` afterwards;
/// otherwise falls back to `VmRSS` at the end of the span.
pub struct RssProbe {
    resettable: bool,
}

impl RssProbe {
    /// Starts a probe window.
    pub fn start() -> RssProbe {
        RssProbe {
            resettable: fs::write("/proc/self/clear_refs", "5").is_ok(),
        }
    }

    /// Peak (or, without reset support, final) resident set since
    /// [`RssProbe::start`], MiB.
    pub fn finish(self) -> f64 {
        let key = if self.resettable { "VmHWM:" } else { "VmRSS:" };
        status_mib(key).unwrap_or(0.0)
    }
}
