//! End-to-end JAMM benchmark.
//!
//! ```text
//! e2ebench --workload <live_fleet|history_queries|subscriber_fanout>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the deployment from outside through the public API of the
//! `jamm` facade and the layer crates, checks the outputs against oracles
//! outside the timed window, prints a human-readable report, and ends with
//! one JSON line: `{"correct", "attempted", "failed", "metrics"}` holding
//! the end-to-end metrics (`--trace 0`) or the per-layer ledger metrics
//! (`--trace 1`).  Exits 1 when a correctness check fails.

mod common;
mod fanout;
mod history;
mod live_fleet;
mod report;
mod stats;
mod sys;
mod trace;

use std::fmt::Write as _;

use report::{Report, END_TO_END, PER_LAYER};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Nominal run length, s: sets the fixed amount of work of each run.
    pub seconds: u64,
    /// Traced run (per-layer ledger) instead of the untraced one.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&seconds) {
                    return Err("--seconds must be 1..=600".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `{}` prints the shortest representation that round-trips, so
        // every measured digit survives.
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn print_report(args: &Args, report: &Report) {
    println!(
        "# e2ebench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &report.diag {
        println!("# {line}");
    }
    println!("# measurements");
    for m in &report.named {
        println!("  {:<40} {:>14.4} {}", m.name, m.value, m.unit);
    }
    if let Some(ledger) = &report.ledger {
        println!(
            "# per-layer ledger (traced half: {} requests, {:.3} ms traced wall)",
            ledger.roots,
            ledger.root_ns as f64 / 1e6
        );
        println!(
            "  {:<36} {:>9} {:>12} {:>12} {:>7}",
            "span", "calls", "self_ms", "us/request", "share"
        );
        let roots = ledger.roots.max(1) as f64;
        for (name, row) in &ledger.rows {
            println!(
                "  {:<36} {:>9} {:>12.3} {:>12.2} {:>6.1}%",
                name,
                row.calls,
                row.self_ns as f64 / 1e6,
                row.self_ns as f64 / 1e3 / roots,
                100.0 * row.self_ns as f64 / ledger.root_ns.max(1) as f64
            );
        }
        println!(
            "  rows sum to {:.3} ms of {:.3} ms traced wall; layers (excluding bench glue) cover {:.1}%",
            ledger.total_self_ns() as f64 / 1e6,
            ledger.root_ns as f64 / 1e6,
            100.0 * ledger.coverage()
        );
    }
    if !report.layers.is_empty() {
        println!("# per-layer metrics");
        for m in &report.layers {
            println!("  {:<40} {:>14.4} {}", m.name, m.value, m.unit);
        }
    }
    println!("# checks");
    for c in &report.checks {
        println!(
            "  [{}] {}: {}",
            if c.ok { "ok" } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    println!(
        "# operations: attempted={} failed={}",
        report.attempted, report.failed
    );
}

fn result_line(args: &Args, report: &Report) -> Result<String, String> {
    let mut metrics = String::new();
    let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let measured = if args.trace {
        &report.layers
    } else {
        &report.e2e
    };
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let value = match measured.iter().find(|m| m.name == *name) {
            Some(m) => m.value,
            // Per-layer rows of layers this workload never calls are 0;
            // every end-to-end metric must be measured.
            None if args.trace => 0.0,
            None => return Err(format!("workload did not measure {name}")),
        };
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let calib_before = sys::calibration_ns_per_iter();
    let run = match args.workload.as_str() {
        "live_fleet" => live_fleet::run(&args),
        "history_queries" => history::run(&args),
        "subscriber_fanout" => fanout::run(&args),
        other => Err(format!(
            "unknown workload {other:?} (live_fleet, history_queries, subscriber_fanout)"
        )),
    };
    let mut report = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let calib_after = sys::calibration_ns_per_iter();
    report.diag(format!(
        "calibration loop: {calib_before:.4} ns/iter before, {calib_after:.4} after ({:+.1}%)",
        100.0 * (calib_after / calib_before - 1.0)
    ));
    report.diag(format!("machine: {}", sys::fingerprint()));
    print_report(&args, &report);
    let line = match result_line(&args, &report) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    println!("{line}");
    if !report.correct() {
        std::process::exit(1);
    }
}
