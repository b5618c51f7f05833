//! Process resource use and the host/build fingerprint printed with every
//! result.

use std::process::{Command, Stdio};

/// `/proc` reports process CPU times in clock ticks of this fixed
/// user-space rate (`USER_HZ`).
const USER_HZ: f64 = 100.0;

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the peak resident set size to the current resident set, so that
/// [`peak_rss_mb`] covers only what runs from here on. Returns the peak
/// before the reset.
pub fn reset_peak_rss() -> Result<f64, String> {
    let before = peak_rss_mb();
    // Writing 5 to `clear_refs` resets `VmHWM` (Linux 4.0 and later).
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak resident set: {e}"))?;
    Ok(before)
}

/// User plus system CPU seconds consumed by every thread of this process
/// so far, including threads that have exited.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Host-wide CPU time stolen by the hypervisor, from `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct Steal {
    steal: u64,
    total: u64,
}

impl Steal {
    pub fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let ticks: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        Steal {
            steal: ticks.get(7).copied().unwrap_or(0),
            total: ticks.iter().take(8).sum(),
        }
    }

    /// Percentage of all CPU time since `self` that was stolen: a run
    /// measured while the host was oversubscribed shows it here.
    pub fn pct_since(self) -> f64 {
        let now = Steal::now();
        let total = now.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * now.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// First line of a command's standard output, or "unknown". Git is kept
/// from searching above the working directory for a repository.
fn command_line(program: &str, args: &[&str]) -> String {
    let parent = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.as_os_str().to_owned()))
        .unwrap_or_default();
    Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", parent)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&serde::Value::Str(s.to_string()))
        .expect("string rendering is infallible")
}

/// One JSON object describing the host, the build and the run inputs.
pub fn fingerprint(workload: &str, seed: u64, extra: &[(&str, String)]) -> String {
    let mut fields = vec![
        ("workload", json_str(workload)),
        ("seed", seed.to_string()),
        ("nproc", nproc().to_string()),
        ("cpu_model", json_str(&cpu_model())),
        ("rustc", json_str(&command_line("rustc", &["-V"]))),
        ("parallel_feature", cfg!(feature = "parallel").to_string()),
        (
            "git_commit",
            json_str(&command_line("git", &["rev-parse", "HEAD"])),
        ),
    ];
    fields.extend(extra.iter().map(|(k, v)| (*k, v.clone())));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{\"fingerprint\": {{{}}}}}", body.join(", "))
}
