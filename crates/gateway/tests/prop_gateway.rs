//! Property-based tests of the event gateway: delivery is always a subset of
//! what was published, filters never invent events, drop accounting is
//! exact under any queue bound, and summary statistics agree with a direct
//! computation.

use jamm_core::check::{forall, Gen};
use jamm_gateway::summary::{ShardedSummaryEngine, SummaryEngine, SummaryWindow};
use jamm_gateway::{EventFilter, EventGateway, FlatFanout, GatewayConfig, OverflowPolicy};
use jamm_ulm::{Event, Level, Timestamp};

const TYPES: [&str; 3] = ["CPU_TOTAL", "VMSTAT_FREE_MEMORY", "NETSTAT_RETRANS"];
const HOSTS: [&str; 3] = ["h1", "h2", "h3"];
const LEVELS: [Level; 3] = [Level::Usage, Level::Warning, Level::Error];

fn arb_event(g: &mut Gen) -> Event {
    let t = g.u64(120);
    Event::builder("sensor", g.choice(&HOSTS))
        .level(g.choice(&LEVELS))
        .event_type(g.choice(&TYPES))
        .timestamp(Timestamp::from_secs(10_000 + t))
        .value(g.f64_in(0.0, 100.0))
        .build()
}

fn arb_filters(g: &mut Gen) -> Vec<EventFilter> {
    (0..g.usize_in(0, 2))
        .map(|_| match g.usize_in(0, 7) {
            0 => EventFilter::All,
            1 => EventFilter::EventTypes(vec!["CPU_TOTAL".into()]),
            2 => EventFilter::Hosts(vec!["h1".into(), "h2".into()]),
            3 => EventFilter::MinLevel(Level::Warning),
            4 => EventFilter::OnChange,
            5 => EventFilter::Above(g.f64_in(0.0, 100.0)),
            6 => EventFilter::Below(g.f64_in(0.0, 100.0)),
            _ => EventFilter::RelativeChange(g.f64_in(0.05, 0.9)),
        })
        .collect()
}

/// Whatever the filters, a subscriber receives a subset of the published
/// events, each of which satisfies every stateless predicate it asked
/// for, and the gateway's counters add up.
#[test]
fn delivery_is_a_filtered_subset() {
    forall("filtered subset", 48, |g| {
        let events: Vec<Event> = (0..g.usize_in(1, 150)).map(|_| arb_event(g)).collect();
        let filters = arb_filters(g);
        let gw = EventGateway::new(GatewayConfig::open("gw"));
        let sub = gw
            .subscribe()
            .stream()
            .filters(filters.clone())
            .as_consumer("c")
            .open()
            .unwrap();
        for e in &events {
            gw.publish(e);
        }
        let delivered: Vec<jamm_ulm::SharedEvent> = sub.events.try_iter().collect();
        assert!(delivered.len() <= events.len());
        for d in &delivered {
            assert!(events.contains(&**d), "gateway must not invent events");
            for f in &filters {
                match f {
                    EventFilter::EventTypes(tys) => assert!(tys.contains(&d.event_type)),
                    EventFilter::Hosts(hs) => assert!(hs.contains(&d.host)),
                    EventFilter::Above(t) => assert!(d.value().unwrap() > *t),
                    EventFilter::Below(t) => assert!(d.value().unwrap() < *t),
                    EventFilter::MinLevel(_) => {
                        assert!(matches!(d.level, Level::Warning | Level::Error))
                    }
                    _ => {}
                }
            }
        }
        let stats_out = gw
            .stats()
            .events_out
            .load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(stats_out as usize, delivered.len());
        let stats_in = gw
            .stats()
            .events_in
            .load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(stats_in as usize, events.len());
        assert_eq!(sub.delivered() as usize, delivered.len());
        assert_eq!(sub.dropped(), 0, "queue never overflowed in this run");
    });
}

/// Under any queue bound and either overflow policy, queued + dropped ==
/// delivered, and the queue never exceeds its bound.
#[test]
fn drop_accounting_is_exact_under_any_bound() {
    forall("drop accounting", 48, |g| {
        let events: Vec<Event> = (0..g.usize_in(1, 200)).map(|_| arb_event(g)).collect();
        let capacity = g.usize_in(1, 32);
        let policy = if g.bool(0.5) {
            OverflowPolicy::DropOldest
        } else {
            OverflowPolicy::DropNewest
        };
        let gw = EventGateway::new(GatewayConfig::open("gw"));
        let sub = gw
            .subscribe()
            .as_consumer("slow")
            .capacity(capacity)
            .on_overflow(policy)
            .open()
            .unwrap();
        for e in &events {
            gw.publish(e);
        }
        let queued = sub.events.try_iter().count();
        assert!(queued <= capacity, "queue bound respected");
        match policy {
            // DropOldest admits every event, then evicts.
            OverflowPolicy::DropOldest => {
                assert_eq!(sub.delivered() as usize, events.len());
                assert_eq!(queued + sub.dropped() as usize, events.len());
            }
            // DropNewest rejects at the door.
            OverflowPolicy::DropNewest => {
                assert_eq!(sub.delivered() as usize, queued);
                assert_eq!(queued + sub.dropped() as usize, events.len());
            }
        }
        let report = gw.delivery_report();
        assert_eq!(report[0].dropped, sub.dropped());
        assert_eq!(report[0].delivered, sub.delivered());
    });
}

/// Query mode always returns the most recently published event for the
/// (host, type) pair, if any was published.
#[test]
fn query_returns_the_latest() {
    forall("query latest", 48, |g| {
        let events: Vec<Event> = (0..g.usize_in(1, 100)).map(|_| arb_event(g)).collect();
        let gw = EventGateway::new(GatewayConfig::open("gw"));
        for e in &events {
            gw.publish(e);
        }
        for host in HOSTS {
            for ty in TYPES {
                let expected = events
                    .iter()
                    .rfind(|e| e.host == host && e.event_type == ty);
                let got = gw.query("c", host, ty).unwrap();
                match expected {
                    // Publication order wins among equal timestamps, so the
                    // returned event must be the last published with a
                    // timestamp >= every other candidate's.
                    Some(_) => {
                        let got = got.expect("published events are queryable");
                        let max_ts = events
                            .iter()
                            .filter(|e| e.host == host && e.event_type == ty)
                            .map(|e| e.timestamp)
                            .max()
                            .unwrap();
                        assert!(got.timestamp <= max_ts);
                        assert_eq!(got.host, host);
                        assert_eq!(got.event_type, ty);
                    }
                    None => assert!(got.is_none()),
                }
            }
        }
    });
}

/// The summary engine's mean always equals the arithmetic mean of the
/// readings inside the window, and min <= mean <= max.
#[test]
fn summary_mean_matches_direct_computation() {
    forall("summary mean", 48, |g| {
        let values: Vec<f64> = (0..g.usize_in(1, 60))
            .map(|_| g.f64_in(0.0, 100.0))
            .collect();
        let mut engine = SummaryEngine::new();
        let base = 50_000u64;
        for (i, v) in values.iter().enumerate() {
            let e = Event::builder("s", "h")
                .level(Level::Usage)
                .event_type("CPU_TOTAL")
                .timestamp(Timestamp::from_secs(base + i as u64))
                .value(*v)
                .build();
            engine.record(&e);
        }
        let now = Timestamp::from_secs(base + values.len() as u64);
        let s = engine
            .summary("h", "CPU_TOTAL", SummaryWindow::OneHour, now)
            .expect("readings inside the window");
        let mean: f64 = values.iter().sum::<f64>() / values.len() as f64;
        assert!((s.mean - mean).abs() < 1e-6);
        assert!(s.min <= s.mean + 1e-9 && s.mean <= s.max + 1e-9);
        assert_eq!(s.count, values.len());
    });
}

/// The sharded router — under any shard count, any filter mix (typed and
/// wildcard), any queue bound, either overflow policy, and both the
/// per-event and batched publish paths — delivers exactly the same event
/// sequences, with the same per-subscription counters, as the original
/// flat-list fan-out.
#[test]
fn sharded_routing_is_equivalent_to_the_flat_list() {
    forall("sharded == flat", 64, |g| {
        let events: Vec<Event> = (0..g.usize_in(1, 160)).map(|_| arb_event(g)).collect();
        let shards = g.choice(&[1usize, 2, 4, 7, 16]);
        let n_subs = g.usize_in(1, 6);
        let specs: Vec<(Vec<EventFilter>, usize, OverflowPolicy)> = (0..n_subs)
            .map(|_| {
                let mut filters = arb_filters(g);
                // Bias toward typed subscriptions so the by-type buckets
                // (not just the wildcard list) are exercised.
                if g.bool(0.5) {
                    let mut tys: Vec<String> = (0..g.usize_in(1, 2))
                        .map(|_| g.choice(&TYPES).to_string())
                        .collect();
                    tys.dedup();
                    filters.push(EventFilter::EventTypes(tys));
                }
                let capacity = g.usize_in(1, 64);
                let policy = if g.bool(0.5) {
                    OverflowPolicy::DropOldest
                } else {
                    OverflowPolicy::DropNewest
                };
                (filters, capacity, policy)
            })
            .collect();

        let flat = FlatFanout::new();
        let flat_subs: Vec<_> = specs
            .iter()
            .map(|(f, cap, pol)| flat.subscribe(f.clone(), *cap, *pol))
            .collect();
        let gw = EventGateway::new(GatewayConfig::open("gw").with_shards(shards));
        let gw_subs: Vec<_> = specs
            .iter()
            .map(|(f, cap, pol)| {
                gw.subscribe()
                    .filters(f.iter().cloned())
                    .capacity(*cap)
                    .on_overflow(*pol)
                    .as_consumer("c")
                    .open()
                    .unwrap()
            })
            .collect();

        // Feed both engines the same stream, the gateway via a random mix
        // of per-event and batched publishes.
        let mut i = 0;
        while i < events.len() {
            if g.bool(0.5) {
                gw.publish(&events[i]);
                i += 1;
            } else {
                let run = g.usize_in(1, 12).min(events.len() - i);
                gw.publish_batch(&events[i..i + run]);
                i += run;
            }
        }
        for e in &events {
            flat.publish(&std::sync::Arc::new(e.clone()));
        }

        for (a, b) in flat_subs.iter().zip(gw_subs.iter()) {
            let left: Vec<jamm_ulm::SharedEvent> = a.events.try_iter().collect();
            let right: Vec<jamm_ulm::SharedEvent> = b.events.try_iter().collect();
            assert_eq!(left, right, "same delivered sequence either way");
            assert_eq!(a.delivered(), b.delivered());
            assert_eq!(a.dropped(), b.dropped());
            assert_eq!(a.bytes(), b.bytes());
        }
        // The per-shard rows decompose the gateway totals exactly.
        let report = gw.shard_report();
        assert_eq!(report.len(), shards);
        assert_eq!(
            report.iter().map(|s| s.events_in).sum::<u64>() as usize,
            events.len()
        );
        let delivered: u64 = gw_subs.iter().map(|s| s.delivered()).sum();
        assert_eq!(report.iter().map(|s| s.delivered).sum::<u64>(), delivered);
    });
}

/// The sharded summary engine computes exactly what one flat engine fed
/// the same readings computes, for any shard count and interleaving.
#[test]
fn sharded_summaries_match_the_flat_engine() {
    forall("sharded summaries", 48, |g| {
        let events: Vec<Event> = (0..g.usize_in(1, 120)).map(|_| arb_event(g)).collect();
        let sharded = ShardedSummaryEngine::new(g.choice(&[1usize, 3, 8]));
        let mut flat = SummaryEngine::new();
        for e in &events {
            sharded.record(e);
            flat.record(e);
        }
        assert_eq!(sharded.series_count(), flat.series_count());
        let now = Timestamp::from_secs(10_000 + 121);
        assert_eq!(
            sharded.summary_events(&SummaryWindow::all(), now, "gw"),
            flat.summary_events(&SummaryWindow::all(), now, "gw"),
            "identical summary events, identical order"
        );
    });
}

/// A random read query: optional host and type pins (one or two of each,
/// sometimes a host no event carries) plus an optional extra leaf.
fn arb_read_query(g: &mut Gen) -> String {
    let mut parts: Vec<String> = Vec::new();
    let pins = |g: &mut Gen, key: &str, names: &[&str]| -> String {
        let a = g.choice(names);
        if g.bool(0.5) {
            format!("({key}={a})")
        } else {
            format!("(|({key}={a})({key}={}))", g.choice(names))
        }
    };
    if g.bool(0.6) {
        parts.push(pins(g, "host", &["h1", "h2", "h3", "nowhere"]));
    }
    if g.bool(0.6) {
        parts.push(pins(g, "type", &TYPES));
    }
    match g.usize_in(0, 5) {
        0 => parts.push("(level>=warning)".into()),
        1 => parts.push("(val>50)".into()),
        2 => parts.push("(onchange)".into()),
        3 => parts.push("(!(host=h2))".into()),
        _ => {}
    }
    format!("(&{})", parts.concat())
}

/// Fact pushdown in the gateway's read path changes no answer: for random
/// queries, `query_matching` equals a fresh plan evaluated over every
/// cached event, and `summaries_matching` equals every summary filtered by
/// the facts' host and type pins.  Consumers without the Query or Summary
/// right are still denied either way.
#[test]
fn read_path_pushdown_equals_evaluate_everything() {
    use jamm_auth::acl::{AccessControlList, Action, Principal};
    use jamm_core::query::Predicate;
    use jamm_gateway::GatewayError;

    forall("gateway pushdown ≡ evaluate everything", 64, |g| {
        let mut acl = AccessControlList::deny_by_default();
        for (who, rights) in [
            ("reader", vec![Action::Query, Action::Summary]),
            ("querier", vec![Action::Query]),
            ("summarist", vec![Action::Summary]),
        ] {
            acl.grant(Principal::User(who.into()), "gateway:gw", rights);
        }
        let gw = EventGateway::new(GatewayConfig::with_acl("gw", acl));
        for _ in 0..g.usize_in(0, 60) {
            gw.publish(&arb_event(g));
        }
        let now = Timestamp::from_secs(10_130);
        let text = arb_read_query(g);
        let plan = Predicate::parse(&text).unwrap().compile();

        let got: Vec<Event> = gw
            .query_matching("reader", &plan)
            .unwrap()
            .iter()
            .map(|e| (**e).clone())
            .collect();
        let oracle = Predicate::parse(&text).unwrap().compile();
        let mut want: Vec<Event> = Vec::new();
        for h in HOSTS {
            for t in TYPES {
                if let Some(e) = gw.query("reader", h, t).unwrap() {
                    if oracle.eval(&*e) {
                        want.push((*e).clone());
                    }
                }
            }
        }
        want.sort_by(|a, b| (&a.host, &a.event_type).cmp(&(&b.host, &b.event_type)));
        assert_eq!(got, want, "live cache for {text}");

        let facts = plan.facts();
        let got = gw.summaries_matching("reader", facts, now).unwrap();
        let want: Vec<Event> = gw
            .summaries("reader", now)
            .unwrap()
            .into_iter()
            .filter(|s| {
                let base = s.event_type.rsplit_once("_AVG_").expect("summary type").0;
                facts
                    .hosts
                    .as_ref()
                    .is_none_or(|hs| hs.iter().any(|h| h.as_str() == s.host))
                    && facts
                        .types
                        .as_ref()
                        .is_none_or(|ts| ts.iter().any(|t| t.as_str() == base))
            })
            .collect();
        assert_eq!(got, want, "summaries for {text}");

        let denied = |r: Result<_, GatewayError>| matches!(r, Err(GatewayError::AccessDenied(_)));
        assert!(denied(
            gw.summaries_matching("querier", facts, now).map(|_| ())
        ));
        assert!(denied(gw.query_matching("summarist", &plan).map(|_| ())));
        assert!(denied(gw.query_matching("stranger", &plan).map(|_| ())));
        assert!(denied(
            gw.summaries_matching("stranger", facts, now).map(|_| ())
        ));
    });
}
