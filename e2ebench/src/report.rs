//! What a workload run hands back to `main`, and the metric catalogue the
//! benchmark's JSON line is checked against.

use crate::trace::Ledger;

/// End-to-end metrics every workload reports (untraced runs), with units.
/// Each workload maps its own unit of work onto the generic names; the
/// mapping is printed with the result and documented in the README.
///
/// Timings are gated on their lower quartile: on a shared machine the
/// neighbours only ever slow a request down, and across seeds the lower
/// quartile spread a third as wide as the median, which every report
/// still prints beside the tail and the throughput.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_p25_ms", "ms"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of traced runs.  A workload that never calls into a
/// layer reports that layer's rows as 0: the workload bypasses it.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("manager.tick_us_per_event", "us"),
    ("gateway.publish_us_per_event", "us"),
    ("gateway.deliveries_per_event", "ratio"),
    ("gateway.drops", "count"),
    ("gateway.live_ms", "ms"),
    ("gateway.summaries_ms", "ms"),
    ("gateway.view_read_us", "us"),
    ("consumers.collector_poll_us_per_event", "us"),
    ("consumers.archiver_poll_us_per_event", "us"),
    ("consumers.durable_p50_ms", "ms"),
    ("tsdb.seals", "count"),
    ("tsdb.appended", "count"),
    ("rmi.events_per_frame", "ratio"),
    ("rmi.bytes_per_event", "bytes"),
    ("rmi.client_drops", "count"),
    ("rmi.decode_errors", "count"),
    ("reactor.dispatch_us_per_frame", "us"),
    ("reactor.saturation", "ratio"),
    ("reactor.dropped_frames", "count"),
    ("core.parse_us", "us"),
    ("core.fold_ms", "ms"),
    ("archive.scan_ms", "ms"),
    ("archive.rows_per_query", "count"),
    ("archive.pruned_ratio", "ratio"),
    ("bench.glue_us_per_request", "us"),
    ("bench.request_us", "us"),
    ("ledger.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("window.ops", "count"),
];

/// A named reading.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// One correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Observed values.
    pub detail: String,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the timed window (events published, or
    /// queries run).
    pub attempted: u64,
    /// Operations failed in the timed window (see the README for the
    /// definition per workload).
    pub failed: u64,
    /// Correctness checks, run outside the timed window.
    pub checks: Vec<Check>,
    /// Generic end-to-end metrics (the JSON line of untraced runs).
    pub e2e: Vec<Metric>,
    /// The same measurements under their workload-specific names.
    pub named: Vec<Metric>,
    /// Per-layer metrics (the JSON line of traced runs).
    pub layers: Vec<Metric>,
    /// The traced half's ledger, when traced.
    pub ledger: Option<Ledger>,
    /// Diagnostics that never gate a run.
    pub diag: Vec<String>,
}

impl Report {
    /// Record a check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    /// Record a generic end-to-end metric (unit from [`END_TO_END`]).
    pub fn e2e(&mut self, name: &str, value: f64) {
        let unit = END_TO_END
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("{name} is not an end-to-end metric"));
        self.e2e.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Record a workload-specific reading for the printed table.
    pub fn named(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.named.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Record a per-layer metric (unit from [`PER_LAYER`]).
    pub fn layer(&mut self, name: &str, value: f64) {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.layers.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// A diagnostic line.
    pub fn diag(&mut self, line: impl Into<String>) {
        self.diag.push(line.into());
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}
