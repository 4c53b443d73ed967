//! Host provenance: peak memory, and the noise sources that tell a run
//! slowed by a busy host apart from a slower program — run-queue wait of
//! this process's threads and the host's steal time over the timed
//! window. Report-only; nothing is gated on these.

use std::collections::BTreeMap;

/// Peak resident set of this process (`VmHWM`) in MB; 0 where `/proc`
/// does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The source revision being measured: `git rev-parse` where the working
/// directory is a git checkout, else `unknown`.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A snapshot of the counters a noise report differences.
pub struct Sample {
    /// Run-queue wait in ns per live thread id (schedstat field 2).
    runq_ns: BTreeMap<String, u64>,
    /// Host steal jiffies and all jiffies (`/proc/stat` `cpu` line).
    steal: u64,
    total: u64,
}

impl Sample {
    /// Reads the counters now.
    pub fn take() -> Sample {
        let mut runq_ns = BTreeMap::new();
        if let Ok(dir) = std::fs::read_dir("/proc/self/task") {
            for task in dir.flatten() {
                let wait = std::fs::read_to_string(task.path().join("schedstat"))
                    .ok()
                    .and_then(|s| s.split_whitespace().nth(1)?.parse().ok());
                if let Some(w) = wait {
                    runq_ns.insert(task.file_name().to_string_lossy().into_owned(), w);
                }
            }
        }
        let cpu: Vec<u64> = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| {
                s.lines().next().map(|l| {
                    l.split_whitespace()
                        .skip(1)
                        .take(8)
                        .filter_map(|f| f.parse().ok())
                        .collect()
                })
            })
            .unwrap_or_default();
        Sample {
            runq_ns,
            steal: cpu.get(7).copied().unwrap_or(0),
            total: cpu.iter().sum(),
        }
    }
}

/// Noise over a window, as one JSON object: run-queue wait summed over
/// the threads alive at its end (threads born inside it count from 0)
/// and the host's steal share.
pub fn noise_json(start: &Sample, end: &Sample) -> String {
    let runq: u64 = end
        .runq_ns
        .iter()
        .map(|(tid, &w)| w.saturating_sub(start.runq_ns.get(tid).copied().unwrap_or(0)))
        .sum();
    let total = end.total.saturating_sub(start.total);
    let steal = end.steal.saturating_sub(start.steal);
    let share = if total == 0 {
        0.0
    } else {
        steal as f64 / total as f64
    };
    format!(
        "{{\"runq_wait_ms\":{},\"steal_share\":{share},\"threads\":{}}}",
        runq as f64 / 1e6,
        end.runq_ns.len()
    )
}
