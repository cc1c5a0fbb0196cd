//! `history_queries`: the query plane over an archived hour, closed loop.
//!
//! Set-up registers one continuous query, publishes a seeded 256-host ×
//! 16-type fleet (one sample per series every 10 s for 50 simulated
//! minutes, ≈1.23 M events) through gateway → archiver → tsdb, then seals
//! and compacts.  One client then runs `JammSystem::query` with `now` at
//! the end of the hour: 60 % single-series windows, 20 % `val>99` type
//! scans, 10 % group-by/top-k aggregates, 5 % error-level windows and 5 %
//! the view's own text.  The mix is weighted so the p50 sits inside one
//! class: an even mix put it on a class boundary, where it jumped between
//! runs.  Nothing is published while queries are timed, so this loads only
//! what `live_fleet` never calls: query tiers, summary reads, the live
//! cache scan, pruned columnar archive scans and aggregates.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

use jamm::jamm_core::intern::Sym;
use jamm::jamm_core::query::{Aggregator, Facts, Plan, Predicate};
use jamm::jamm_ulm::{Event, Timestamp};
use jamm::{HistorySource, JammBuilder, JammSystem, QueryAnswer, QueryError, SharedEvent};

use crate::common::{self, fleet_host, fleet_readings, mix, FLEET_HOSTS, FLEET_TYPES};
use crate::report::Report;
use crate::stats::{quantile, quantile_label, tail_quantile};
use crate::trace::{Ledger, Tracer};
use crate::Args;

const GW: &str = "gw.archive.grid:8765";
const CONSUMER: &str = "analyst";
const STEPS: u64 = 300;
const STEP_SECS: u64 = 10;
/// Simulated start of the archived hour: 2000-03-30 00:00:00 UTC.
const BASE_SECS: u64 = 954_374_400;
/// Queries are answered as of the end of the hour.
const NOW_SECS: u64 = BASE_SECS + 3_600;
/// Queries per nominal second of `--seconds`: the run's fixed query count.
const QUERIES_PER_SECOND: u64 = 20;
const WARM_QUERIES: u64 = 20;
/// Timed queries whose answers are checked against the brute-force oracle
/// and against the traced re-assembly: the first of each class, then
/// seeded picks.
const CHECK_QUERIES: usize = 8;
/// The continuous query.  It groups by host and type: a view folds every
/// event under that pair whatever its `groupby` says, so only this form
/// answers alike from the view and from a scan (see [`view_groupby_probe`]).
const VIEW_TEXT: &str = "(&(type=CPU_TOTAL)(groupby=host,type)(topk=10))";

/// The fleet's readings of one 10 s step: 2 ‰ errors, 2 % warnings.
fn step_events(seed: u64, step: u64, hosts: &[String]) -> Vec<SharedEvent> {
    let ts = Timestamp::from_secs(BASE_SECS + step * STEP_SECS);
    fleet_readings(seed, step, ts, hosts, (2, 20))
}

/// Query classes of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Window,
    ValScan,
    TopK,
    Level,
    View,
}

/// The mix, as one block of 20 queries: every block holds exactly these
/// classes, in a seeded order, so every seed runs the same mix.
const MIX: [Class; 20] = {
    use Class::*;
    [
        Window, Window, Window, Window, Window, Window, Window, Window, Window, Window, Window,
        Window, ValScan, ValScan, ValScan, ValScan, TopK, TopK, Level, View,
    ]
};

/// The class of query `i`: its slot in a seeded shuffle of its block.
fn class_of(seed: u64, i: u64) -> Class {
    let block = i / MIX.len() as u64;
    let mut order = MIX;
    for k in (1..order.len()).rev() {
        let swap = (mix(seed, 0xb10c + block, k as u64) % (k as u64 + 1)) as usize;
        order.swap(k, swap);
    }
    order[(i % MIX.len() as u64) as usize]
}

fn query(seed: u64, i: u64) -> (Class, String) {
    let r = |k: u64| mix(seed, 0x9e11 + k, i);
    let ty = FLEET_TYPES[(r(1) % FLEET_TYPES.len() as u64) as usize];
    let from = BASE_SECS + (r(2) % 41) * 60;
    let to = from + 600;
    let class = class_of(seed, i);
    match class {
        Class::Window => (
            Class::Window,
            format!(
                "(&(host={})(type={ty})(time>={from}s)(time<{to}s))",
                fleet_host(r(3) % FLEET_HOSTS)
            ),
        ),
        Class::ValScan => (class, format!("(&(type={ty})(val>99))")),
        Class::TopK => (class, format!("(&(type={ty})(groupby=host)(topk=10))")),
        Class::Level => (
            class,
            format!("(&(level>=error)(time>={from}s)(time<{to}s))"),
        ),
        Class::View => (class, VIEW_TEXT.to_string()),
    }
}

fn setup(seed: u64) -> Result<JammSystem, String> {
    let mut jamm = JammBuilder::new()
        .gateway(GW)
        .archiver("archiver", "cn=archive,o=grid")
        .build()
        .map_err(|e| format!("build: {e}"))?;
    jamm.register_continuous_query("top_cpu", VIEW_TEXT)
        .map_err(|e| format!("continuous query: {e}"))?;
    if jamm.connect_archiver(Vec::new()) != 1 {
        return Err("archiver could not subscribe".to_string());
    }
    let gw = Arc::clone(&jamm.gateways[0]);
    let hosts: Vec<String> = (0..FLEET_HOSTS).map(fleet_host).collect();
    let archiver = jamm.archiver.as_mut().ok_or("no archiver")?;
    for step in 0..STEPS {
        let batch = step_events(seed, step, &hosts);
        gw.publish_shared_batch(&batch);
        let stored = archiver.poll();
        if stored != batch.len() {
            return Err(format!(
                "step {step}: archived {stored} of {} events",
                batch.len()
            ));
        }
    }
    let maintenance = jamm.archive_maintenance(Timestamp::from_secs(NOW_SECS));
    if !maintenance.errors.is_empty() {
        return Err(format!("archive maintenance: {:?}", maintenance.errors));
    }
    // Cut the views' final snapshots so view answers are exact.
    gw.views().flush();
    Ok(jamm)
}

/// Mirror of the facade's private summary admission rule: a summary of
/// series `{type}_AVG_{window}` answers the plan's host and type facts.
fn summary_admitted(facts: &Facts, summary: &Event) -> bool {
    if let Some(hosts) = &facts.hosts {
        if !Sym::lookup(&summary.host).is_some_and(|h| hosts.contains(&h)) {
            return false;
        }
    }
    if let Some(types) = &facts.types {
        let ok = types.iter().any(|t| {
            summary
                .event_type
                .strip_prefix(t.as_str())
                .is_some_and(|rest| rest.starts_with("_AVG_"))
        });
        if !ok {
            return false;
        }
    }
    true
}

/// `JammSystem::query` re-assembled from the same public calls the facade
/// makes, with a span around each call into a layer.
fn traced_query(
    jamm: &JammSystem,
    text: &str,
    now: Timestamp,
    tracer: &mut Tracer,
    req: u64,
) -> Result<QueryAnswer, QueryError> {
    let span = tracer.begin("core.parse", req);
    let parsed = Predicate::parse(text).map(|pred| {
        let plan = pred.compile();
        (plan, pred.to_string())
    });
    tracer.end(span);
    let (plan, canonical) = parsed.map_err(|e| QueryError::BadQuery(e.to_string()))?;
    let mut live = Vec::new();
    let mut summaries = Vec::new();
    let mut view_names = Vec::new();
    let mut view_updates = 0;
    let mut view_history = Vec::new();
    let mut aggregates = Vec::new();
    for gw in &jamm.gateways {
        let span = tracer.begin("gateway.live", req);
        let got = gw.query_matching(CONSUMER, &plan);
        tracer.end(span);
        live.extend(got.map_err(|e| QueryError::Denied(e.to_string()))?);
        let span = tracer.begin("gateway.summaries", req);
        let got = gw.summaries(CONSUMER, now).map(|all| {
            all.into_iter()
                .filter(|s| summary_admitted(plan.facts(), s))
                .collect::<Vec<_>>()
        });
        tracer.end(span);
        summaries.extend(got.map_err(|e| QueryError::Denied(e.to_string()))?);
        let span = tracer.begin("gateway.view_read", req);
        if let Some(view) = gw.views().by_query_text(&canonical) {
            let snap = view.snapshot();
            view_names.push(format!("{}/{}", gw.name(), view.name()));
            view_updates += snap.updates;
            view_history.extend(snap.events.iter().map(|e| (**e).clone()));
            aggregates.extend(snap.aggregates.iter().cloned());
        }
        tracer.end(span);
    }
    let tiers = jamm.query_tier_stats();
    let (history, history_source) = if view_names.is_empty() {
        let stats = jamm.archive.stats();
        let (scanned0, pruned0) = (stats.segments_scanned(), stats.segments_pruned());
        let span = tracer.begin("archive.scan", req);
        let history: Vec<Event> = jamm.archive.scan_plan(&plan).collect();
        tracer.end(span);
        tiers.archive_scans.fetch_add(1, Relaxed);
        if let Some(spec) = plan.aggregate() {
            let span = tracer.begin("core.fold", req);
            let mut agg = Aggregator::new(spec.clone());
            for event in &history {
                agg.push(event);
            }
            aggregates = agg.rows(now.as_micros());
            tracer.end(span);
        }
        let source = HistorySource::ArchiveScan {
            segments_scanned: stats.segments_scanned() - scanned0,
            segments_pruned: stats.segments_pruned() - pruned0,
        };
        (history, source)
    } else {
        tiers.views_served.fetch_add(1, Relaxed);
        let source = HistorySource::MaterializedView {
            views: view_names,
            updates: view_updates,
        };
        (view_history, source)
    };
    Ok(QueryAnswer {
        live,
        summaries,
        history,
        aggregates,
        history_source,
    })
}

/// What the brute-force oracle expects of one query.
struct Expected {
    plan: Plan,
    class: Class,
    history: Vec<Event>,
    latest: Vec<Event>,
}

/// Regenerate the archived hour and evaluate every check query's plan on
/// every event, row by row.
fn brute_force(seed: u64, checks: &[(u64, Class, String)]) -> Vec<Expected> {
    let hosts: Vec<String> = (0..FLEET_HOSTS).map(fleet_host).collect();
    let mut expected: Vec<Expected> = checks
        .iter()
        .map(|(_, class, text)| Expected {
            plan: Predicate::parse(text)
                .expect("generated query parses")
                .compile(),
            class: *class,
            history: Vec::new(),
            latest: Vec::new(),
        })
        .collect();
    for step in 0..STEPS {
        let events = step_events(seed, step, &hosts);
        for e in expected.iter_mut() {
            for event in &events {
                if e.plan.eval(&**event) {
                    e.history.push((**event).clone());
                    if step == STEPS - 1 {
                        e.latest.push((**event).clone());
                    }
                }
            }
        }
    }
    expected
}

fn compare(answer: &QueryAnswer, want: &Expected, now: Timestamp) -> Result<(), String> {
    let mut live: Vec<&Event> = answer.live.iter().map(|e| &**e).collect();
    let mut want_live: Vec<&Event> = want.latest.iter().collect();
    let key = |e: &&Event| (e.host.clone(), e.event_type.clone());
    live.sort_by_key(key);
    want_live.sort_by_key(key);
    if live != want_live {
        return Err(format!(
            "live: {} events, oracle {}",
            live.len(),
            want_live.len()
        ));
    }
    let fold = |events: &[Event], at: u64| {
        want.plan.aggregate().map_or_else(Vec::new, |spec| {
            let mut agg = Aggregator::new(spec.clone());
            for e in events {
                agg.push(e);
            }
            agg.rows(at)
        })
    };
    let (history, aggregates) = if want.class == Class::View {
        // A view keeps the most recent matches in its ring and folds every
        // match; its rows are cut as of its newest event.
        let ring = jamm::jamm_gateway::views::VIEW_RING_CAPACITY;
        let tail = &want.history[want.history.len().saturating_sub(ring)..];
        let as_of = want.history.last().map_or(0, |e| e.timestamp.as_micros());
        (tail.to_vec(), fold(&want.history, as_of))
    } else {
        (want.history.clone(), fold(&want.history, now.as_micros()))
    };
    if answer.history != history {
        return Err(format!(
            "history: {} events, oracle {}",
            answer.history.len(),
            history.len()
        ));
    }
    if answer.aggregates != aggregates {
        return Err(format!(
            "aggregates: {} rows, oracle {}; first rows {:?} vs {:?}",
            answer.aggregates.len(),
            aggregates.len(),
            answer.aggregates.first(),
            aggregates.first()
        ));
    }
    Ok(())
}

/// Probe for a defect found with this benchmark's oracle: a continuous
/// query folds every event under its (host, type) pair whatever its
/// `groupby` says, so a view-served `(groupby=host)` answer carries
/// `event_type` in its rows (and splits a multi-type host into one row per
/// type) where the archive-scan fold of the same query does not.  The
/// timed mix's view groups by host and type, which both tiers agree on;
/// this probe reports every run whether the defect still reproduces.
fn view_groupby_probe() -> Result<bool, String> {
    let text = "(&(host=probe.grid)(groupby=host))";
    let jamm = JammBuilder::new()
        .gateway("gw.probe.grid:8765")
        .build()
        .map_err(|e| e.to_string())?;
    jamm.register_continuous_query("probe", text)
        .map_err(|e| e.to_string())?;
    let events: Vec<Event> = (0..4u32)
        .map(|i| {
            Event::builder("probe", "probe.grid")
                .event_type(FLEET_TYPES[(i % 2) as usize])
                .timestamp(Timestamp::from_secs(BASE_SECS + u64::from(i)))
                .value(f64::from(i))
                .build()
        })
        .collect();
    for e in &events {
        jamm.gateways[0].publish(e);
    }
    jamm.gateways[0].views().flush();
    let now = Timestamp::from_secs(NOW_SECS);
    let answer = jamm.query(CONSUMER, text, now).map_err(|e| e.to_string())?;
    let plan = Predicate::parse(text).map_err(|e| e.to_string())?.compile();
    let spec = plan.aggregate().ok_or("probe query has no aggregate")?;
    let mut fold = Aggregator::new(spec.clone());
    for e in &events {
        fold.push(e);
    }
    let as_of = events.last().map_or(0, |e| e.timestamp.as_micros());
    Ok(answer.aggregates != fold.rows(as_of))
}

/// Run the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let seed = args.seed;
    let (jamm, setup_s, setups) = common::timed_setups(|| setup(seed))?;
    let jamm = &jamm;
    report.diag(format!(
        "archive (in memory): {} events in {} segments",
        jamm.archive.len(),
        jamm.archive.segment_catalogs().len()
    ));
    let now = Timestamp::from_secs(NOW_SECS);
    for i in 0..WARM_QUERIES {
        let (_, text) = query(seed, u64::MAX - i);
        jamm.query(CONSUMER, &text, now)
            .map_err(|e| format!("warm-up query {text}: {e}"))?;
    }

    let n = QUERIES_PER_SECOND * args.seconds;
    let trace_from = if args.trace { n / 2 } else { u64::MAX };
    let mut tracer = Tracer::new(false);
    let mut latency_ms = Vec::with_capacity(n as usize);
    let mut by_class: Vec<(Class, f64)> = Vec::with_capacity(n as usize);
    let mut errors = 0u64;
    let (mut traced_rows, mut traced_queries) = (0u64, 0u64);
    let stats = jamm.archive.stats();
    let (mut scanned0, mut pruned0) = (0, 0);
    let mut cpu = common::CpuSlices::default();
    let window = common::Window::begin();
    for i in 0..n {
        if i.is_multiple_of(MIX.len() as u64) {
            cpu.mark(i);
        }
        let (class, text) = query(seed, i);
        if i == trace_from {
            tracer.set_enabled(true);
            (scanned0, pruned0) = (stats.segments_scanned(), stats.segments_pruned());
        }
        let start = Instant::now();
        let answer = if tracer.enabled() {
            let root = tracer.begin("bench.query", i);
            let a = traced_query(jamm, &text, now, &mut tracer, i);
            tracer.end(root);
            a
        } else {
            jamm.query(CONSUMER, &text, now)
        };
        let ms = start.elapsed().as_secs_f64() * 1e3;
        latency_ms.push(ms);
        by_class.push((class, ms));
        match answer {
            Ok(a) if i >= trace_from => {
                traced_rows += a.history.len() as u64;
                traced_queries += 1;
            }
            Ok(_) => {}
            Err(_) => errors += 1,
        }
    }
    cpu.mark(n);
    let wall_s = window.end(&mut report);
    let peak_rss = crate::sys::peak_rss_mb();

    let q_tail = tail_quantile(n as usize);
    let p25 = quantile(&mut latency_ms.clone(), 0.25);
    let p50 = quantile(&mut latency_ms.clone(), 0.5);
    let tail = quantile(&mut latency_ms.clone(), q_tail);
    // Queries per second of the mix, from each class's median weighted by
    // its share: every class counts, and a query slowed by the machine's
    // neighbours does not.
    let mut mix_ms = 0.0;
    for class in [
        Class::Window,
        Class::ValScan,
        Class::TopK,
        Class::Level,
        Class::View,
    ] {
        let mut ms: Vec<f64> = by_class
            .iter()
            .filter(|(c, _)| *c == class)
            .map(|&(_, m)| m)
            .collect();
        let class_p50 = quantile(&mut ms, 0.5);
        mix_ms += class_p50 * ms.len() as f64 / n as f64;
        report.diag(format!(
            "class {class:?}: {} queries, p50 {class_p50:.3} ms",
            ms.len()
        ));
    }
    let qps = 1e3 / mix_ms;
    report.diag(format!(
        "queries per second over the window's wall time: {:.3}",
        n as f64 / wall_s
    ));
    let (cpu_us, cpu_mean) = cpu.us_per_op();
    report.e2e("setup_s", setup_s);
    report.e2e("latency_p25_ms", p25);
    report.e2e("cpu_us_per_op", cpu_us);
    report.e2e("peak_rss_mb", peak_rss);
    report.named(format!("setup_s (median of {setups})"), setup_s, "s");
    report.named("query_p25_ms", p25, "ms");
    report.named("query_p50_ms", p50, "ms");
    report.named(format!("query_{}_ms", quantile_label(q_tail)), tail, "ms");
    report.named("queries_per_s", qps, "1/s");
    report.named("cpu_us_per_query (p25 of 20-query slices)", cpu_us, "us");
    report.named("cpu_us_per_query (whole window)", cpu_mean, "us");
    report.named("peak_rss_mb", peak_rss, "MiB");
    report.diag(format!(
        "closed loop: 1 client, {n} queries after {WARM_QUERIES} warm-up queries, nothing published while timed"
    ));
    report.attempted = n;
    report.failed = errors;

    if args.trace {
        let ledger = Ledger::of(tracer.spans());
        let per_query = |name: &str, scale: f64| {
            ledger.row(name).self_ns as f64 / scale / traced_queries.max(1) as f64
        };
        let per_call = |name: &str, scale: f64| {
            let row = ledger.row(name);
            row.self_ns as f64 / scale / row.calls.max(1) as f64
        };
        report.layer("core.parse_us", per_query("core.parse", 1e3));
        report.layer("gateway.live_ms", per_query("gateway.live", 1e6));
        report.layer("gateway.summaries_ms", per_query("gateway.summaries", 1e6));
        report.layer("gateway.view_read_us", per_query("gateway.view_read", 1e3));
        report.layer("archive.scan_ms", per_call("archive.scan", 1e6));
        report.layer("core.fold_ms", per_call("core.fold", 1e6));
        report.layer(
            "archive.rows_per_query",
            traced_rows as f64 / traced_queries.max(1) as f64,
        );
        let scanned = stats.segments_scanned() - scanned0;
        let pruned = stats.segments_pruned() - pruned0;
        report.layer(
            "archive.pruned_ratio",
            pruned as f64 / (pruned + scanned).max(1) as f64,
        );
        let (untraced, traced) = latency_ms.split_at(trace_from as usize);
        let us = |v: &[f64]| v.iter().map(|m| m * 1e3).collect::<Vec<_>>();
        common::ledger_metrics(&mut report, ledger, &us(untraced), &us(traced), n);
    }

    // Correctness, outside the timed window: a seeded check set answered
    // by the facade, by the traced re-assembly, and by the row oracle.
    let mut checks: Vec<(u64, Class, String)> = Vec::new();
    for class in [
        Class::Window,
        Class::ValScan,
        Class::TopK,
        Class::Level,
        Class::View,
    ] {
        if let Some(i) = (0..n).find(|&i| query(seed, i).0 == class) {
            checks.push((i, class, query(seed, i).1));
        }
    }
    for j in 0.. {
        if checks.len() >= CHECK_QUERIES {
            break;
        }
        let i = mix(seed, 0xc4ec, j) % n;
        let (class, text) = query(seed, i);
        checks.push((i, class, text));
    }
    let check_start = Instant::now();
    let expected = brute_force(seed, &checks);
    let (mut agree, mut oracle_ok) = (0, 0);
    let mut first_failure = None;
    let mut off = Tracer::new(false);
    for ((i, _, text), want) in checks.iter().zip(&expected) {
        let facade = jamm.query(CONSUMER, text, now);
        let rebuilt = traced_query(jamm, text, now, &mut off, *i);
        if facade == rebuilt {
            agree += 1;
        } else if first_failure.is_none() {
            first_failure = Some(format!("re-assembly differs on {text}"));
        }
        match facade
            .as_ref()
            .map_err(|e| e.to_string())
            .and_then(|a| compare(a, want, now))
        {
            Ok(()) => oracle_ok += 1,
            Err(e) => {
                first_failure.get_or_insert_with(|| format!("{text}: {e}"));
            }
        }
    }
    report.diag(format!(
        "checks took {:.1} s",
        check_start.elapsed().as_secs_f64()
    ));
    let classes = |c: Class| checks.iter().filter(|(_, k, _)| *k == c).count();
    report.check(
        "traced re-assembly equals the facade's answers",
        agree == checks.len(),
        format!("{agree}/{} agree", checks.len()),
    );
    report.check(
        "answers equal the brute-force Plan::eval oracle",
        oracle_ok == checks.len(),
        format!(
            "{oracle_ok}/{} match (window {}, val-scan {}, top-k {}, level {}, view {}){}",
            checks.len(),
            classes(Class::Window),
            classes(Class::ValScan),
            classes(Class::TopK),
            classes(Class::Level),
            classes(Class::View),
            first_failure.map_or_else(String::new, |f| format!("; first failure: {f}"))
        ),
    );
    report.diag(match view_groupby_probe() {
        Ok(true) => "defect probe: a view-served (groupby=host) answer still differs from the \
                     scan fold (the view groups by host and type)"
            .to_string(),
        Ok(false) => {
            "defect probe: view-served (groupby=host) answers now equal the scan fold".to_string()
        }
        Err(e) => format!("defect probe could not run: {e}"),
    });
    report.check(
        "no query failed",
        errors == 0,
        format!("{errors} of {n} queries returned an error"),
    );
    Ok(report)
}
