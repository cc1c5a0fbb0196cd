//! Process and machine readings from `/proc`: CPU time, peak RSS, steal
//! time, a fixed calibration loop and a machine fingerprint.  None of them
//! gates a run; they tell a noisy run apart from a slow program.

use std::time::Instant;

/// Kernel clock ticks per second for `/proc` CPU counters (`USER_HZ`,
/// fixed at 100 on every Linux architecture this runs on).
const USER_HZ: f64 = 100.0;

/// CPU time (user + system) of every thread of this process, seconds.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 after the name.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / USER_HZ,
        _ => 0.0,
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Machine-wide CPU jiffies from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MachineCpu {
    total: u64,
    steal: u64,
}

impl MachineCpu {
    /// Read the aggregate `cpu` line.
    pub fn read() -> MachineCpu {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return MachineCpu::default();
        };
        let vals: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already counted in user, so it is left out.
        let total = vals.iter().take(8).sum();
        let steal = vals.get(7).copied().unwrap_or(0);
        MachineCpu { total, steal }
    }

    /// Steal time between `self` and `later`, as a share of all CPU time.
    pub fn steal_share(&self, later: &MachineCpu) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// A fixed integer loop's cost in ns per iteration.  Run before and after
/// a workload: if the two readings differ, the machine changed speed
/// during the run.
pub fn calibration_ns_per_iter() -> f64 {
    const ITERS: u64 = 20_000_000;
    let start = Instant::now();
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
    for i in 0..ITERS {
        x = x.rotate_left(5) ^ i.wrapping_mul(0x2545_f491_4f6c_dd1d);
    }
    std::hint::black_box(x);
    start.elapsed().as_nanos() as f64 / ITERS as f64
}

/// `nproc` and the CPU model name.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|m| m.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".to_string());
    format!("nproc={nproc} cpu={model:?}")
}
