//! `subscriber_fanout`: the paper's consumer-scaling claim, closed loop.
//!
//! 1000 in-process subscriptions with seeded filters (3/8 type+host, 1/8
//! each type+Above, type+OnChange, type+RelativeChange, host+Crosses and
//! MinLevel) sit on one gateway.  The bench publishes a fixed number of
//! 4096-event fleet ticks, advancing a simulated clock by 1 s per tick, and
//! drains every subscription after each publish.  No manager, edge or
//! archive: the cost is gateway routing, filtering and queue hand-off.
//! The input is a fixed count, not a fixed duration, because summaries
//! retain an hour of readings — under a fixed duration a faster program
//! would hold more state and show a higher peak RSS.

use std::time::Instant;

use jamm::jamm_core::flow::{EventSource, OverflowPolicy};
use jamm::jamm_gateway::{EventFilter, EventGateway, FlatFanout, GatewayConfig, Subscription};
use jamm::jamm_ulm::{Level, Timestamp};
use jamm::SharedEvent;

use crate::common::{self, fleet_host, fleet_readings, mix, unit, FLEET_HOSTS, FLEET_TYPES};
use crate::report::Report;
use crate::stats::{quantile, quantile_label, tail_quantile};
use crate::trace::{Ledger, Tracer};
use crate::Args;

const SUBSCRIPTIONS: u64 = 1_000;
/// Ticks per nominal second of `--seconds`: the run's fixed tick count.
const TICKS_PER_SECOND: u64 = 2;
/// Untimed ticks before the window; their deliveries are kept and replayed
/// through `FlatFanout`, the reference fan-out.
const WARM_TICKS: u64 = 2;
/// Ticks per CPU-time slice.
const CPU_SLICE_TICKS: u64 = 4;
/// Simulated time of tick 0: 2000-03-30 00:00:00 UTC.
const BASE_SECS: u64 = 954_374_400;

/// One fleet tick at `BASE_SECS + tick`: 5 ‰ errors, 2 % warnings.
fn tick_events(seed: u64, tick: u64, hosts: &[String]) -> Vec<SharedEvent> {
    fleet_readings(
        seed,
        tick,
        Timestamp::from_secs(BASE_SECS + tick),
        hosts,
        (5, 20),
    )
}

/// The filter set of subscription `j`.  The kind follows `j` so every
/// seed has the same mix; the seed picks types, hosts and thresholds.
fn filters(seed: u64, j: u64) -> Vec<EventFilter> {
    let r = |k: u64| mix(seed, 0xfa40 + k, j);
    let ty = || {
        EventFilter::EventTypes(vec![FLEET_TYPES
            [(r(1) % FLEET_TYPES.len() as u64) as usize]
            .into()])
    };
    let host = || EventFilter::Hosts(vec![fleet_host(r(2) % FLEET_HOSTS)]);
    match j % 8 {
        0..=2 => vec![ty(), host()],
        3 => vec![ty(), EventFilter::Above(50.0 + 49.0 * unit(r(3)))],
        4 => vec![ty(), EventFilter::OnChange],
        5 => vec![ty(), EventFilter::RelativeChange(0.2 + 0.3 * unit(r(3)))],
        6 => vec![host(), EventFilter::Crosses(50.0)],
        _ => vec![EventFilter::MinLevel(if (j / 8).is_multiple_of(2) {
            Level::Warning
        } else {
            Level::Error
        })],
    }
}

fn setup(seed: u64) -> Result<(EventGateway, Vec<Subscription>), String> {
    let gw = EventGateway::new(GatewayConfig::open("gw.fanout.grid:8765"));
    let subs = (0..SUBSCRIPTIONS)
        .map(|j| {
            gw.subscribe()
                .stream()
                .filters(filters(seed, j))
                .as_consumer(format!("consumer-{j}"))
                .open()
                .map_err(|e| format!("subscription {j}: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((gw, subs))
}

/// Run the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let seed = args.seed;
    let ((gw, mut subs), setup_s, setups) = common::timed_setups(|| setup(seed))?;
    let hosts: Vec<String> = (0..FLEET_HOSTS).map(fleet_host).collect();
    let mut scratch: Vec<SharedEvent> = Vec::new();

    // Warm-up ticks: keep each subscription's deliveries for the oracle.
    let mut warm_events = Vec::new();
    let mut warm_seen: Vec<Vec<SharedEvent>> = vec![Vec::new(); subs.len()];
    for tick in 0..WARM_TICKS {
        let events = tick_events(seed, tick, &hosts);
        gw.publish_shared_batch(&events);
        for (sub, seen) in subs.iter_mut().zip(warm_seen.iter_mut()) {
            sub.drain_into(seen);
        }
        warm_events.extend(events);
    }

    let ticks = TICKS_PER_SECOND * args.seconds;
    let trace_from = if args.trace {
        WARM_TICKS + ticks / 2
    } else {
        u64::MAX
    };
    let mut tracer = Tracer::new(false);
    let mut tick_ms = Vec::with_capacity(ticks as usize);
    let (mut published, mut drained, mut traced_published, mut traced_drained) =
        (0u64, 0u64, 0u64, 0u64);
    let stats = gw.stats();
    let read = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
    let (in0, out0, dropped0) = (
        read(&stats.events_in),
        read(&stats.events_out),
        read(&stats.events_dropped),
    );
    let mut cpu = common::CpuSlices::default();
    let window = common::Window::begin();
    for tick in WARM_TICKS..WARM_TICKS + ticks {
        if (tick - WARM_TICKS).is_multiple_of(CPU_SLICE_TICKS) {
            cpu.mark(published);
        }
        if tick == trace_from {
            tracer.set_enabled(true);
        }
        // Each tick's input is made just before it is timed: generating
        // every tick up front would put the inputs into the peak RSS.
        let events = tick_events(seed, tick, &hosts);
        let start = Instant::now();
        let root = tracer.begin("bench.tick", tick);
        let span = tracer.begin("gateway.publish", tick);
        gw.publish_shared_batch(&events);
        tracer.end(span);
        let span = tracer.begin("consumers.drain", tick);
        let mut n = 0;
        for sub in subs.iter_mut() {
            n += sub.drain_into(&mut scratch);
            scratch.clear();
        }
        tracer.end(span);
        tracer.end(root);
        tick_ms.push(start.elapsed().as_secs_f64() * 1e3);
        published += events.len() as u64;
        drained += n as u64;
        if tick >= trace_from {
            traced_published += events.len() as u64;
            traced_drained += n as u64;
        }
    }
    cpu.mark(published);
    window.end(&mut report);
    let peak_rss = crate::sys::peak_rss_mb();
    let (gw_in, gw_out, gw_dropped) = (
        read(&stats.events_in) - in0,
        read(&stats.events_out) - out0,
        read(&stats.events_dropped) - dropped0,
    );

    let q_tail = tail_quantile(ticks as usize);
    let p25 = quantile(&mut tick_ms.clone(), 0.25);
    let p50 = quantile(&mut tick_ms.clone(), 0.5);
    let tail = quantile(&mut tick_ms.clone(), q_tail);
    // Events per second at the median tick: the rate a tick's fixed input
    // is published and drained at, robust to a few ticks slowed by the
    // machine's neighbours.
    let rate = (FLEET_HOSTS * FLEET_TYPES.len() as u64) as f64 / (p50 / 1e3);
    let (cpu_us, cpu_mean) = cpu.us_per_op();
    report.e2e("setup_s", setup_s);
    report.e2e("latency_p25_ms", p25);
    report.e2e("cpu_us_per_op", cpu_us);
    report.e2e("peak_rss_mb", peak_rss);
    report.named(format!("setup_s (median of {setups})"), setup_s, "s");
    report.named("tick_p25_ms", p25, "ms");
    report.named("tick_p50_ms", p50, "ms");
    report.named(format!("tick_{}_ms", quantile_label(q_tail)), tail, "ms");
    report.named("fanout_kev_s", rate / 1e3, "kev/s");
    report.named("cpu_us_per_event (p25 of 4-tick slices)", cpu_us, "us");
    report.named("cpu_us_per_event (whole window)", cpu_mean, "us");
    report.named(
        "deliveries_per_event",
        drained as f64 / published as f64,
        "ratio",
    );
    report.named("peak_rss_mb", peak_rss, "MiB");
    report.diag(format!(
        "closed loop: {SUBSCRIPTIONS} subscriptions, {ticks} ticks of {} events after {WARM_TICKS} warm-up ticks, simulated clock +1 s per tick",
        FLEET_HOSTS * FLEET_TYPES.len() as u64
    ));
    report.attempted = published;
    report.failed = gw_dropped + subs.iter().map(Subscription::dropped).sum::<u64>();

    if args.trace {
        let ledger = Ledger::of(tracer.spans());
        report.layer(
            "gateway.publish_us_per_event",
            ledger.row("gateway.publish").self_ns as f64 / 1e3 / traced_published.max(1) as f64,
        );
        // Printed only: this workload is not in the gated set, and no
        // gated workload drains subscriptions outside a collector.
        report.named(
            "consumers.drain_us_per_event",
            ledger.row("consumers.drain").self_ns as f64 / 1e3 / traced_drained.max(1) as f64,
            "us",
        );
        report.layer(
            "gateway.deliveries_per_event",
            gw_out as f64 / gw_in.max(1) as f64,
        );
        report.layer("gateway.drops", gw_dropped as f64);
        let split = (trace_from - WARM_TICKS) as usize;
        let us = |v: &[f64]| v.iter().map(|m| m * 1e3).collect::<Vec<_>>();
        common::ledger_metrics(
            &mut report,
            ledger,
            &us(&tick_ms[..split]),
            &us(&tick_ms[split..]),
            published,
        );
        report.diag(format!(
            "gateway route_us histogram (whole run): p50 {} us",
            stats.route_us.snapshot().p50()
        ));
    }

    // Correctness, outside the timed window.
    let check_start = Instant::now();
    let flat = FlatFanout::new();
    let mut flat_subs: Vec<Subscription> = (0..SUBSCRIPTIONS)
        .map(|j| flat.subscribe(filters(seed, j), 1 << 20, OverflowPolicy::DropOldest))
        .collect();
    for event in &warm_events {
        flat.publish(event);
    }
    let mismatched = flat_subs
        .iter_mut()
        .zip(&warm_seen)
        .map(|(flat_sub, seen)| flat_sub.drain() != *seen)
        .filter(|&differs| differs)
        .count();
    report.check(
        "per-subscription deliveries equal FlatFanout over the first ticks",
        mismatched == 0,
        format!(
            "{mismatched} of {SUBSCRIPTIONS} subscriptions differ over {} events ({} deliveries)",
            warm_events.len(),
            warm_seen.iter().map(Vec::len).sum::<usize>()
        ),
    );
    let warm_delivered: u64 = warm_seen.iter().map(|s| s.len() as u64).sum();
    let counted: u64 = subs.iter().map(Subscription::delivered).sum();
    report.check(
        "every delivery was drained",
        counted == warm_delivered + drained && gw_out == drained,
        format!(
            "subscriptions counted {counted}, drained {}, gateway events_out {gw_out} in the window",
            warm_delivered + drained
        ),
    );
    report.check(
        "no subscription dropped an event",
        report.failed == 0,
        format!("{} drops", report.failed),
    );
    report.diag(format!(
        "checks took {:.1} s",
        check_start.elapsed().as_secs_f64()
    ));
    Ok(report)
}
