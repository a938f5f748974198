//! Steadiness instruments: process CPU, host steal, peak memory and the
//! facts about the machine a reading depends on.
//!
//! Everything comes from `/proc` and `/sys`. The box this benchmark was
//! sized on is a shared 2-core guest that loses CPU to its neighbours
//! (steal), so each run reports how much of the window was stolen and
//! what the process itself consumed next to wall time.

use std::fs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Linux reports `/proc` CPU times in USER_HZ ticks, fixed at 100/s.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds consumed by this process so far.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    parse_process_cpu_ticks(&stat).map_or(0.0, |t| t as f64 / TICKS_PER_S)
}

/// `utime + stime` from a `/proc/<pid>/stat` line. The command name may
/// hold spaces, so fields are counted after its closing parenthesis.
fn parse_process_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // fields[0] is the state (field 3); utime is field 14, stime 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Host-wide CPU tick counters from the aggregate `cpu` line of
/// `/proc/stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostTicks {
    /// user + nice + system + idle + iowait + irq + softirq + steal.
    pub total: u64,
    /// Ticks the hypervisor gave to other guests.
    pub steal: u64,
}

impl HostTicks {
    /// Read the counters now (zeros where `/proc/stat` is unreadable).
    pub fn now() -> HostTicks {
        fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| parse_host_ticks(&s))
            .unwrap_or_default()
    }

    /// Share of host CPU time stolen between `earlier` and `self`.
    pub fn steal_frac_since(&self, earlier: &HostTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

fn parse_host_ticks(proc_stat: &str) -> Option<HostTicks> {
    let line = proc_stat.lines().find(|l| l.starts_with("cpu "))?;
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    if v.len() < 8 {
        return None;
    }
    Some(HostTicks {
        total: v.iter().sum(),
        steal: v[7],
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set size of this process in MiB (`VmRSS`).
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

fn status_mb(field: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Samples the resident set every [`RssSampler::PERIOD`] on a thread of
/// its own while a window runs. The peak of a run depends on how far
/// producers got ahead of consumers in its worst moment; the median over
/// the window says what the process typically holds.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<f64>>,
}

impl RssSampler {
    /// Time between samples.
    pub const PERIOD: Duration = Duration::from_millis(25);

    /// Start sampling.
    pub fn start() -> RssSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let thread = std::thread::spawn(move || {
            let mut samples = vec![rss_mb()];
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(Self::PERIOD);
                samples.push(rss_mb());
            }
            samples
        });
        RssSampler { stop, thread }
    }

    /// Stop sampling; the median resident set over the window, MiB.
    pub fn finish(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        let samples = self.thread.join().expect("RSS sampler panicked");
        crate::stats::median(&samples).unwrap_or(0.0)
    }
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size of the last-level cache as the kernel reports it (e.g. `"32768K"`).
pub fn llc_size() -> String {
    (0..8)
        .rev()
        .find_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            fs::read_to_string(format!("{dir}/size")).ok()
        })
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The commit the benchmark was built from, when run inside a git work
/// tree (read from `.git` directly; a plain checkout reports `unknown`).
pub fn git_sha() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_default(),
        None => head.to_string(),
    };
    if sha.len() == 40 && sha.bytes().all(|b| b.is_ascii_hexdigit()) {
        sha
    } else {
        "unknown".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_process_ticks_after_spaced_command_name() {
        let line = "4242 (my (odd) cmd) S 1 2 3 4 5 6 7 8 9 10 250 31 0 0 20 0 3 0";
        assert_eq!(parse_process_cpu_ticks(line), Some(281));
    }

    #[test]
    fn steal_fraction_is_a_share_of_elapsed_ticks() {
        let a = parse_host_ticks("cpu  100 0 50 800 10 0 0 40 0 0\ncpu0 1 2").unwrap();
        let b = parse_host_ticks("cpu  150 0 70 900 10 0 0 60 0 0\ncpu0 1 2").unwrap();
        assert_eq!(a.total, 1000);
        assert!((b.steal_frac_since(&a) - 20.0 / 190.0).abs() < 1e-12);
        assert_eq!(a.steal_frac_since(&a), 0.0);
    }
}
