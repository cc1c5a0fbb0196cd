//! Helpers shared by the workloads: seeded hashing, the synthetic fleet's
//! readings, timed set-ups, the measured window, CPU slices and the
//! ledger's generic metrics.

use std::sync::Arc;
use std::time::Instant;

use jamm::jamm_ulm::{keys, Event, Level, Timestamp};
use jamm::SharedEvent;

use crate::report::Report;
use crate::stats;
use crate::sys::{self, MachineCpu};
use crate::trace::Ledger;

/// Set-ups per run: at least [`MIN_SETUPS`], and more while they have taken
/// less than [`SETUP_BUDGET_S`] in all, up to [`MAX_SETUPS`].  `setup_s` is
/// their median, so a set-up of milliseconds is still read many times.
pub const MIN_SETUPS: usize = 3;
/// See [`MIN_SETUPS`].
pub const MAX_SETUPS: usize = 31;
/// See [`MIN_SETUPS`].
pub const SETUP_BUDGET_S: f64 = 1.0;

/// A well-mixed 64-bit hash of a seed and two keys (splitmix64 finaliser).
/// Every generated input is a pure function of these, so the same seed
/// regenerates the same stream for the correctness oracles.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ b.wrapping_mul(0xc2b2_ae3d_27d4_eb4f).rotate_left(31);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A hash mapped to `[0, 1)`.
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Hosts of the synthetic fleet that history_queries archives and
/// subscriber_fanout publishes.
pub const FLEET_HOSTS: u64 = 256;

/// The fleet's 16 event types.
pub const FLEET_TYPES: [&str; 16] = [
    keys::cpu::TOTAL,
    keys::cpu::USER,
    keys::cpu::SYS,
    keys::cpu::INTERRUPTS,
    keys::mem::FREE,
    keys::mem::USED,
    keys::tcp::RETRANSMITS,
    keys::tcp::WINDOW_SIZE,
    keys::tcp::RETRANS_COUNTER,
    keys::net::IF_IN_OCTETS,
    keys::net::IF_OUT_OCTETS,
    keys::net::IF_ERRORS,
    keys::net::IF_DROPS,
    "DISK_BUSY_PCT",
    "LOAD_AVG_1MIN",
    "GRIDFTP_THROUGHPUT",
];

/// Name of fleet host `h`.
pub fn fleet_host(h: u64) -> String {
    format!("h{h:03}.site{}.grid", h % 8)
}

/// One reading of every (host, type) series at `ts`, in publish order.
/// Values and levels are seeded by `step`; `errors` and `warnings` are
/// the per-mille shares of `Error` and `Warning` readings.
pub fn fleet_readings(
    seed: u64,
    step: u64,
    ts: Timestamp,
    hosts: &[String],
    (errors, warnings): (u64, u64),
) -> Vec<SharedEvent> {
    let mut out = Vec::with_capacity(hosts.len() * FLEET_TYPES.len());
    for (h, host) in hosts.iter().enumerate() {
        for (t, ty) in FLEET_TYPES.iter().enumerate() {
            let series = (h * FLEET_TYPES.len() + t) as u64;
            let value = 100.0 * unit(mix(seed, step, series));
            let draw = mix(seed ^ 0x1e7e1, step, series) % 1000;
            let level = if draw < errors {
                Level::Error
            } else if draw < errors + warnings {
                Level::Warning
            } else {
                Level::Usage
            };
            out.push(Arc::new(
                Event::builder("synth", host.clone())
                    .level(level)
                    .event_type(*ty)
                    .timestamp(ts)
                    .field(keys::SENSOR, "synth")
                    .value(value)
                    .build(),
            ));
        }
    }
    out
}

/// Run `setup` repeatedly (see [`MIN_SETUPS`]), dropping each result
/// before the next set-up starts; returns the last result, the median
/// duration in seconds, and the number of set-ups.
pub fn timed_setups<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64, usize), String> {
    let mut secs: Vec<f64> = Vec::with_capacity(MAX_SETUPS);
    let mut last = None;
    while secs.len() < MIN_SETUPS
        || (secs.len() < MAX_SETUPS && secs.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(last.take());
        let start = Instant::now();
        let built = setup()?;
        secs.push(start.elapsed().as_secs_f64());
        last = Some(built);
    }
    let built = last.expect("MIN_SETUPS is at least one");
    let n = secs.len();
    Ok((built, stats::median(&mut secs), n))
}

/// Process and machine readings at the start of a timed window.
#[derive(Debug)]
pub struct Window {
    start: Instant,
    cpu_s: f64,
    machine: MachineCpu,
}

impl Window {
    /// Start measuring.
    pub fn begin() -> Window {
        Window {
            start: Instant::now(),
            cpu_s: sys::process_cpu_s(),
            machine: MachineCpu::read(),
        }
    }

    /// Stop measuring; records CPU share and steal as diagnostics and
    /// returns the wall time, s.
    pub fn end(self, report: &mut Report) -> f64 {
        let wall_s = self.start.elapsed().as_secs_f64();
        let cpu_s = sys::process_cpu_s() - self.cpu_s;
        let steal = self.machine.steal_share(&MachineCpu::read());
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        report.diag(format!(
            "window: {wall_s:.3} s wall, process CPU {:.1}% of {nproc} cores, steal {:.2}%",
            100.0 * cpu_s / (wall_s * nproc as f64),
            100.0 * steal
        ));
        wall_s
    }
}

/// Process CPU time per operation, read at marks through the window.
#[derive(Debug, Default)]
pub struct CpuSlices {
    marks: Vec<(f64, u64)>,
}

impl CpuSlices {
    /// Mark the process CPU time after `ops` operations of the window.
    pub fn mark(&mut self, ops: u64) {
        self.marks.push((sys::process_cpu_s(), ops));
    }

    /// Lower quartile over the slices between marks of CPU µs per
    /// operation, and the whole span's mean.
    pub fn us_per_op(&self) -> (f64, f64) {
        let mut per: Vec<f64> = self
            .marks
            .windows(2)
            .filter(|w| w[1].1 > w[0].1)
            .map(|w| (w[1].0 - w[0].0) * 1e6 / (w[1].1 - w[0].1) as f64)
            .collect();
        let mean = match (self.marks.first(), self.marks.last()) {
            (Some(a), Some(b)) if b.1 > a.1 => (b.0 - a.0) * 1e6 / (b.1 - a.1) as f64,
            _ => 0.0,
        };
        (stats::quantile(&mut per, 0.25), mean)
    }
}

/// The generic ledger metrics every traced workload reports, from the
/// traced half's spans and the busy time of each request in the untraced
/// and traced halves of the window.
pub fn ledger_metrics(
    report: &mut Report,
    ledger: Ledger,
    untraced_us: &[f64],
    traced_us: &[f64],
    window_ops: u64,
) {
    let roots = ledger.roots.max(1) as f64;
    let spans: u64 = ledger.rows.values().map(|r| r.calls).sum();
    let overhead = 100.0
        * (stats::median(&mut traced_us.to_vec()) / stats::median(&mut untraced_us.to_vec()) - 1.0);
    report.layer(
        "bench.glue_us_per_request",
        ledger.layer_ns("bench") as f64 / 1e3 / roots,
    );
    report.layer("bench.request_us", ledger.root_ns as f64 / 1e3 / roots);
    report.layer("ledger.coverage_pct", 100.0 * ledger.coverage());
    report.layer("trace.overhead_pct", overhead);
    report.layer("trace.spans", spans as f64);
    report.layer("window.ops", window_ops as f64);
    report.diag(format!(
        "tracing overhead: median request {:.1} us traced vs {:.1} us untraced ({overhead:+.1}%)",
        stats::median(&mut traced_us.to_vec()),
        stats::median(&mut untraced_us.to_vec()),
    ));
    report.ledger = Some(ledger);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_slices_report_the_lower_quartile_and_the_mean() {
        let slices = CpuSlices {
            marks: vec![(0.0, 0), (1.0, 100), (3.0, 200), (3.5, 300), (6.5, 400)],
        };
        // Slices of 10000, 20000, 5000 and 30000 us per op.
        let (p25, mean) = slices.us_per_op();
        assert_eq!(p25, 8750.0);
        assert_eq!(mean, 16250.0);
        assert_eq!(CpuSlices::default().us_per_op(), (0.0, 0.0));
    }

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix(7, 1, 2), mix(7, 1, 2));
        assert_ne!(mix(7, 1, 2), mix(8, 1, 2));
        assert_ne!(mix(7, 1, 2), mix(7, 2, 1));
        let mean = (0..10_000).map(|i| unit(mix(3, i, 0))).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "{mean}");
    }
}
