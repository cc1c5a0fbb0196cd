//! Property tests for the unified query plane: the one compiled
//! [`jamm_core::query::Plan`] evaluator must be behaviorally identical to
//! the three matchers it replaced — the gateway's `FilterChain`, the
//! storage engine's `TsdbQuery::matches`, and the directory's recursive
//! `Filter::matches` — and catalog pruning must never drop a matching
//! event (a pruned scan equals a scan with pruning defeated).

use jamm::jamm_archive::{ArchiveQuery, EventArchive};
use jamm::jamm_core::check::{forall, Gen};
use jamm::jamm_core::query::Predicate;
use jamm::jamm_directory::{Dn, Entry, Filter};
use jamm::jamm_gateway::{EventFilter, FilterChain};
use jamm::jamm_tsdb::{Segment, TsdbOptions};
use jamm_ulm::{Event, Level, Timestamp, Value};
use std::collections::HashMap;

const HOSTS: [&str; 4] = ["dpss1.lbl.gov", "mems.cairn.net", "portnoy.lbl.gov", "h4"];
const TYPES: [&str; 4] = ["CPU_TOTAL", "TCPD_RETRANSMITS", "MEM_FREE", "PROC_DIED"];
const LEVELS: [Level; 4] = [Level::Usage, Level::Info, Level::Warning, Level::Error];

fn random_event(g: &mut Gen) -> Event {
    let mut b = Event::builder("sensor", g.choice(&HOSTS))
        .level(g.choice(&LEVELS))
        .event_type(g.choice(&TYPES))
        .timestamp(Timestamp::from_micros(g.u64(60) * 500_000));
    if g.bool(0.8) {
        // A small value domain makes repeats (on-change suppression) and
        // threshold crossings common.
        b = b.value((g.u64(8) as f64) * 10.0);
    }
    b.build()
}

fn random_filter(g: &mut Gen) -> EventFilter {
    match g.u64(9) {
        0 => EventFilter::All,
        1 => {
            let n = g.usize_in(0, 3);
            EventFilter::EventTypes((0..n).map(|_| g.choice(&TYPES).to_string()).collect())
        }
        2 => {
            let n = g.usize_in(1, 3);
            EventFilter::Hosts((0..n).map(|_| g.choice(&HOSTS).to_string()).collect())
        }
        3 => EventFilter::MinLevel(g.choice(&LEVELS)),
        4 => EventFilter::OnChange,
        5 => EventFilter::Above(g.u64(8) as f64 * 10.0),
        6 => EventFilter::Below(g.u64(8) as f64 * 10.0),
        7 => EventFilter::Crosses(g.u64(8) as f64 * 10.0 + 5.0),
        _ => EventFilter::RelativeChange(g.f64_in(0.05, 0.9)),
    }
}

/// The pre-query-plane `FilterChain` matcher, verbatim: a conjunction over
/// a `(host, type)`-keyed previous-reading memory, updated after every
/// event that carries a value (pass or fail) when any filter is stateful.
struct LegacyChain {
    filters: Vec<EventFilter>,
    last_value: HashMap<(String, String), f64>,
}

impl LegacyChain {
    fn new(filters: Vec<EventFilter>) -> Self {
        LegacyChain {
            filters,
            last_value: HashMap::new(),
        }
    }

    fn accept(&mut self, event: &Event) -> bool {
        fn severity(l: Level) -> u8 {
            l.severity()
        }
        let key = (event.host.clone(), event.event_type.clone());
        let value = event.value();
        let prev = self.last_value.get(&key).copied();
        let mut pass = true;
        for f in &self.filters {
            let ok = match f {
                EventFilter::All => true,
                EventFilter::EventTypes(types) => types.contains(&event.event_type),
                EventFilter::Hosts(hosts) => hosts.contains(&event.host),
                EventFilter::MinLevel(min) => severity(event.level) >= severity(*min),
                EventFilter::OnChange => match (value, prev) {
                    (Some(v), Some(p)) => v != p,
                    (Some(_), None) => true,
                    (None, _) => true,
                },
                EventFilter::Above(t) => value.is_some_and(|v| v > *t),
                EventFilter::Below(t) => value.is_some_and(|v| v < *t),
                EventFilter::Crosses(t) => match (value, prev) {
                    (Some(v), Some(p)) => (p <= *t && v > *t) || (p >= *t && v < *t),
                    (Some(v), None) => v > *t,
                    (None, _) => false,
                },
                EventFilter::RelativeChange(frac) => match (value, prev) {
                    (Some(v), Some(p)) if p.abs() > f64::EPSILON => ((v - p) / p).abs() > *frac,
                    (Some(_), _) => true,
                    (None, _) => false,
                },
            };
            if !ok {
                pass = false;
                break;
            }
        }
        if let Some(v) = value {
            let stateful = self.filters.iter().any(|f| {
                matches!(
                    f,
                    EventFilter::OnChange
                        | EventFilter::Crosses(_)
                        | EventFilter::RelativeChange(_)
                )
            });
            if stateful {
                self.last_value.insert(key, v);
            }
        }
        pass
    }
}

/// The compiled plan behind `FilterChain` accepts exactly the events the
/// legacy stateful matcher accepted, over long random streams.
#[test]
fn plan_eval_matches_legacy_filter_chain() {
    forall("plan ≡ legacy FilterChain", 96, |g| {
        let filters: Vec<EventFilter> = (0..g.usize_in(0, 4)).map(|_| random_filter(g)).collect();
        let chain = FilterChain::new(filters.clone());
        let mut legacy = LegacyChain::new(filters.clone());
        for _ in 0..g.usize_in(10, 60) {
            let e = random_event(g);
            assert_eq!(
                chain.accept(&e),
                legacy.accept(&e),
                "filters {filters:?} disagree on {e:?}"
            );
        }
    });
}

/// The pre-query-plane `TsdbQuery::matches` semantics, as the oracle for
/// the classic host/type/range query shape.
fn legacy_tsdb_matches(
    from: Option<Timestamp>,
    to: Option<Timestamp>,
    host: &Option<String>,
    ty: &Option<String>,
    e: &Event,
) -> bool {
    if let Some(from) = from {
        if e.timestamp < from {
            return false;
        }
    }
    if let Some(to) = to {
        if e.timestamp >= to {
            return false;
        }
    }
    if let Some(host) = host {
        if &e.host != host {
            return false;
        }
    }
    if let Some(ty) = ty {
        if &e.event_type != ty {
            return false;
        }
    }
    true
}

#[test]
fn plan_eval_matches_legacy_tsdb_query() {
    forall("plan ≡ legacy TsdbQuery", 96, |g| {
        let from = g
            .bool(0.6)
            .then(|| Timestamp::from_micros(g.u64(60) * 500_000));
        let to = g
            .bool(0.6)
            .then(|| Timestamp::from_micros(g.u64(60) * 500_000 + 1));
        let host = g.bool(0.5).then(|| g.choice(&HOSTS).to_string());
        let ty = g.bool(0.5).then(|| g.choice(&TYPES).to_string());
        let mut q = jamm::jamm_tsdb::TsdbQuery::all();
        q.from = from;
        q.to = to;
        q.host = host.clone();
        q.event_type = ty.clone();
        let plan = q.to_plan();
        for _ in 0..20 {
            let e = random_event(g);
            assert_eq!(
                plan.eval(&e),
                legacy_tsdb_matches(from, to, &host, &ty, &e),
                "{q:?} disagrees on {e:?}"
            );
        }
    });
}

/// The pre-query-plane recursive directory matcher, as the oracle for
/// parsed LDAP-subset filters.
#[derive(Debug)]
enum LegacyFilter {
    Equals(String, String),
    Present(String),
    Substring(String, Vec<String>),
    And(Vec<LegacyFilter>),
    Or(Vec<LegacyFilter>),
    Not(Box<LegacyFilter>),
}

impl LegacyFilter {
    fn matches(&self, entry: &Entry) -> bool {
        fn substring_match(value: &str, parts: &[String]) -> bool {
            jamm::jamm_core::query::substring_match(value, parts)
        }
        match self {
            LegacyFilter::Equals(attr, value) => entry.has_value(attr, value),
            LegacyFilter::Present(attr) => entry.has(attr),
            LegacyFilter::Substring(attr, parts) => entry
                .get_all(attr)
                .iter()
                .any(|v| substring_match(v, parts)),
            LegacyFilter::And(fs) => fs.iter().all(|f| f.matches(entry)),
            LegacyFilter::Or(fs) => fs.iter().any(|f| f.matches(entry)),
            LegacyFilter::Not(f) => !f.matches(entry),
        }
    }

    fn text(&self) -> String {
        match self {
            LegacyFilter::Equals(a, v) => format!("({a}={v})"),
            LegacyFilter::Present(a) => format!("({a}=*)"),
            LegacyFilter::Substring(a, parts) => format!("({a}={})", parts.join("*")),
            LegacyFilter::And(fs) => format!(
                "(&{})",
                fs.iter().map(LegacyFilter::text).collect::<String>()
            ),
            LegacyFilter::Or(fs) => format!(
                "(|{})",
                fs.iter().map(LegacyFilter::text).collect::<String>()
            ),
            LegacyFilter::Not(f) => format!("(!{})", f.text()),
        }
    }
}

const ATTRS: [&str; 4] = ["objectclass", "status", "gateway", "frequency"];
const VALUES: [&str; 4] = ["sensor", "running", "stopped", "gw1"];

fn random_legacy_filter(g: &mut Gen, depth: usize) -> LegacyFilter {
    // `host=` / `type=` equality became exact-match under the unified
    // grammar (documented change), so the equivalence oracle draws from
    // the generic attributes where semantics are unchanged.
    let leaf = depth == 0 || g.bool(0.5);
    if leaf {
        match g.u64(3) {
            0 => LegacyFilter::Equals(g.choice(&ATTRS).into(), g.choice(&VALUES).into()),
            1 => LegacyFilter::Present(g.choice(&ATTRS).into()),
            _ => {
                let n = g.usize_in(2, 3);
                LegacyFilter::Substring(
                    g.choice(&ATTRS).into(),
                    (0..n)
                        .map(|_| {
                            let len = g.usize_in(0, 3);
                            g.string_from("abcdefgrstuvwxyz", len)
                        })
                        .collect(),
                )
            }
        }
    } else {
        match g.u64(3) {
            0 => LegacyFilter::And(
                (0..g.usize_in(0, 3))
                    .map(|_| random_legacy_filter(g, depth - 1))
                    .collect(),
            ),
            1 => LegacyFilter::Or(
                (0..g.usize_in(0, 3))
                    .map(|_| random_legacy_filter(g, depth - 1))
                    .collect(),
            ),
            _ => LegacyFilter::Not(Box::new(random_legacy_filter(g, depth - 1))),
        }
    }
}

fn random_entry(g: &mut Gen) -> Entry {
    let mut e = Entry::new(Dn::parse("x=y,o=grid").unwrap());
    for _ in 0..g.usize_in(0, 5) {
        e.add(g.choice(&ATTRS), g.choice(&VALUES));
    }
    if g.bool(0.5) {
        let len = g.usize_in(1, 8);
        e.add("status", g.string_from("abcdefgrstuvwxyz", len));
    }
    e
}

#[test]
fn plan_eval_matches_legacy_directory_filter() {
    forall("plan ≡ legacy directory Filter", 128, |g| {
        let legacy = random_legacy_filter(g, 3);
        let parsed = Filter::parse(&legacy.text())
            .unwrap_or_else(|e| panic!("oracle text {:?} must parse: {e}", legacy.text()));
        for _ in 0..10 {
            let entry = random_entry(g);
            assert_eq!(
                parsed.matches(&entry),
                legacy.matches(&entry),
                "filter {} disagrees on {entry:?}",
                legacy.text()
            );
        }
    });
}

/// Catalog pruning must never drop a matching event: for random archives
/// (many small sealed segments) and random queries, the pruned scan is
/// identical to brute-force filtering the full contents — and the pruning
/// counters account for every segment.
#[test]
fn pruned_scan_equals_full_scan() {
    forall("pruned scan ≡ full scan", 48, |g| {
        let archive = EventArchive::in_memory_with(TsdbOptions {
            memtable_max_events: g.usize_in(4, 12),
            small_segment_events: 8,
            sync_wal: false,
        });
        let n = g.usize_in(30, 120);
        let mut all: Vec<Event> = Vec::new();
        for _ in 0..n {
            let e = random_event(g);
            archive.store(e.clone());
            all.push(e);
        }
        // Time-sort the oracle the way scans yield (ties by insertion).
        let mut all_sorted = all.clone();
        all_sorted.sort_by_key(|e| e.timestamp);

        let segments = archive.tsdb().segment_count() as u64;

        let queries = [
            "(&)",
            "(host=dpss1.lbl.gov)",
            "(type=CPU_TOTAL)",
            "(&(host=mems.cairn.net)(type=MEM_FREE))",
            "(level>=warning)",
            "(&(time>=5000000)(time<20000000))",
            "(&(host=portnoy.lbl.gov)(level>=error)(time>=1000000))",
            "(|(type=PROC_DIED)(type=TCPD_RETRANSMITS))",
            "(val>=40)",
        ];
        let text = g.choice(&queries);
        let pred = Predicate::parse(text).unwrap();

        let scanned_before = archive.stats().segments_scanned();
        let pruned_before = archive.stats().segments_pruned();
        let got: Vec<Event> = archive.scan_plan(&pred.compile()).collect();
        let scanned = archive.stats().segments_scanned() - scanned_before;
        let pruned = archive.stats().segments_pruned() - pruned_before;
        assert_eq!(
            scanned + pruned,
            segments,
            "every segment is either scanned or pruned"
        );

        let oracle = pred.compile();
        let want: Vec<Event> = all_sorted
            .iter()
            .filter(|e| oracle.eval(*e))
            .cloned()
            .collect();
        // Timestamp ties can reorder between oracle sort and scan seq
        // order; compare as multisets keyed by full event identity.
        let key = |e: &Event| format!("{:?}", e);
        let mut got_keys: Vec<String> = got.iter().map(key).collect();
        let mut want_keys: Vec<String> = want.iter().map(key).collect();
        got_keys.sort();
        want_keys.sort();
        assert_eq!(
            got_keys, want_keys,
            "query {text} dropped or invented events"
        );
    });
}

/// The columnar scan path (JSG3 segments batch-filtered through
/// `Plan::eval_batch` / `Facts::eval_batch`) is behaviorally identical to
/// the row-oriented oracle — a fresh plan fed every event in merge order —
/// including *stateful* plans, whose per-series memory must see the same
/// stream either way.  Timestamps are strictly increasing so merge order
/// is the insertion order and stateful equivalence is exact, and the
/// archive is randomly sealed/compacted mid-stream so events land in
/// memtables, fresh segments, and compacted segments alike.
#[test]
fn columnar_scan_matches_row_oracle_for_stateful_plans() {
    forall("columnar scan ≡ stateful row oracle", 48, |g| {
        let archive = EventArchive::in_memory_with(TsdbOptions {
            memtable_max_events: g.usize_in(4, 12),
            small_segment_events: g.usize_in(6, 16),
            sync_wal: false,
        });
        let n = g.usize_in(40, 150);
        let mut all: Vec<Event> = Vec::new();
        let mut ts = 0u64;
        for _ in 0..n {
            ts += 1 + g.u64(400_000);
            let mut b = Event::builder("sensor", g.choice(&HOSTS))
                .level(g.choice(&LEVELS))
                .event_type(g.choice(&TYPES))
                .timestamp(Timestamp::from_micros(ts));
            if g.bool(0.8) {
                b = b.value((g.u64(8) as f64) * 10.0);
            }
            let e = b.build();
            archive.store(e.clone());
            all.push(e);
            if g.bool(0.05) {
                archive.seal();
            }
            if g.bool(0.03) {
                archive.compact();
            }
        }

        // Stateful leaves key their memory by `(host, type)` series, so
        // conjoining them only with host/type/val leaves keeps the oracle
        // exact: rows the scan's pushdown facts exclude belong to foreign
        // series and can never perturb the queried series' memory.
        let queries = [
            "(onchange)",
            "(&(type=CPU_TOTAL)(onchange))",
            "(&(host=dpss1.lbl.gov)(crosses=35))",
            "(&(type=MEM_FREE)(relchange=0.2))",
            "(&(host=mems.cairn.net)(type=CPU_TOTAL)(crosses=45))",
            "(&(type=TCPD_RETRANSMITS)(val>=40)(onchange))",
            "(&(type=CPU_TOTAL)(host=h4))",
            "(&(level>=warning)(val>=40))",
            "(|(type=PROC_DIED)(host=portnoy.lbl.gov))",
        ];
        let text = g.choice(&queries);
        let pred = Predicate::parse(text).unwrap();

        let got: Vec<Event> = archive.scan_plan(&pred.compile()).collect();
        let oracle = pred.compile(); // fresh per-series memory
        let want: Vec<Event> = all.iter().filter(|e| oracle.eval(*e)).cloned().collect();
        let key = |e: &Event| format!("{e:?}");
        assert_eq!(
            got.iter().map(key).collect::<Vec<_>>(),
            want.iter().map(key).collect::<Vec<_>>(),
            "query {text} diverged from the row oracle"
        );
    });
}

/// Re-encode a loaded segment in the row-major `JSG2` file form older
/// builds wrote (same id, sequence range and catalog; fresh dictionary), so
/// a store directory can hold both generations side by side.
fn to_jsg2(seg: Segment) -> Vec<u8> {
    use jamm::jamm_tsdb::codec::{fnv64, put_ivarint, put_str, put_uvarint};
    let seg = std::sync::Arc::new(seg);
    let c = seg.catalog();
    let mut dict: Vec<String> = Vec::new();
    let mut index: HashMap<String, u64> = HashMap::new();
    let mut ix = |s: &str, dict: &mut Vec<String>| -> u64 {
        *index.entry(s.to_string()).or_insert_with(|| {
            dict.push(s.to_string());
            dict.len() as u64 - 1
        })
    };
    let mut data = Vec::new();
    let (mut prev_ts, mut prev_delta, mut prev_seq) = (0u64, 0u64, 0u64);
    let mut cursor = seg.cursor();
    let mut i = 0usize;
    while let Some(item) = cursor.next_event() {
        let (seq, e) = item.unwrap();
        let ts = e.timestamp.as_micros();
        let delta = ts.wrapping_sub(prev_ts);
        match i {
            0 => put_uvarint(&mut data, ts),
            1 => put_uvarint(&mut data, delta),
            _ => put_ivarint(&mut data, delta.wrapping_sub(prev_delta) as i64),
        }
        if i > 0 {
            prev_delta = delta;
        }
        prev_ts = ts;
        put_ivarint(&mut data, seq.wrapping_sub(prev_seq) as i64);
        prev_seq = seq;
        data.push(jamm_ulm::binary::level_code(e.level));
        for s in [&e.host, &e.program, &e.event_type] {
            put_uvarint(&mut data, ix(s, &mut dict));
        }
        put_uvarint(&mut data, e.fields.len() as u64);
        for (k, v) in &e.fields {
            put_uvarint(&mut data, ix(k, &mut dict));
            match v {
                Value::UInt(u) => {
                    data.push(0);
                    put_uvarint(&mut data, *u);
                }
                Value::Int(n) => {
                    data.push(1);
                    put_ivarint(&mut data, *n);
                }
                Value::Float(f) => {
                    data.push(2);
                    data.extend_from_slice(&f.to_le_bytes());
                }
                Value::Bool(b) => {
                    data.push(3);
                    data.push(*b as u8);
                }
                Value::Str(s) => {
                    data.push(4);
                    put_uvarint(&mut data, ix(s, &mut dict));
                }
            }
        }
        i += 1;
    }
    let mut body = Vec::new();
    for v in [
        c.id,
        seg.min_seq(),
        seg.max_seq(),
        c.event_count as u64,
        c.min_ts.as_micros(),
        c.max_ts.as_micros(),
    ] {
        put_uvarint(&mut body, v);
    }
    body.push(c.max_level);
    for map in [&c.hosts, &c.event_types] {
        put_uvarint(&mut body, map.len() as u64);
        for (k, n) in map {
            put_str(&mut body, k);
            put_uvarint(&mut body, *n as u64);
        }
    }
    put_uvarint(&mut body, c.series.len() as u64);
    for ((h, t), n) in &c.series {
        put_str(&mut body, h);
        put_str(&mut body, t);
        put_uvarint(&mut body, *n as u64);
    }
    put_uvarint(&mut body, dict.len() as u64);
    for s in &dict {
        put_str(&mut body, s);
    }
    put_uvarint(&mut body, data.len() as u64);
    body.extend_from_slice(&data);
    let mut out = b"JSG2".to_vec();
    out.extend_from_slice(&body);
    out.extend_from_slice(&fnv64(&body).to_le_bytes());
    out
}

/// Fleet-style readings: every step a shuffled subset of the (host, type)
/// series reports at one timestamp, so a series' rows are never contiguous
/// and words mix hosts and types.  Fields exercise the sparse columns:
/// several keys, a repeated key, string/int/bool payloads, float and
/// non-float `VAL`s.
fn fleet_stream(g: &mut Gen, steps: u64) -> Vec<Event> {
    let mut out = Vec::new();
    for step in 0..steps {
        let mut series: Vec<(usize, usize)> = (0..HOSTS.len())
            .flat_map(|h| (0..TYPES.len()).map(move |t| (h, t)))
            .collect();
        series.retain(|_| g.bool(0.8));
        for i in (1..series.len()).rev() {
            let j = g.usize_in(0, i);
            series.swap(i, j);
        }
        for (h, t) in series {
            let mut b = Event::builder("sensor", HOSTS[h])
                .level(g.choice(&LEVELS))
                .event_type(TYPES[t])
                .timestamp(Timestamp::from_micros(1_000_000 + step * 250_000))
                .field("SENSOR", "synth");
            match g.u64(10) {
                0 => b = b.field("VAL", Value::Int(g.u64(8) as i64 * 10)),
                1 => {}
                _ => b = b.value((g.u64(8) as f64) * 10.0),
            }
            if g.bool(0.3) {
                b = b.field("PEER", g.choice(&HOSTS));
            }
            if g.bool(0.2) {
                b = b.field("COUNT", g.u64(1000)).field("COUNT", g.bool(0.5));
            }
            out.push(b.build());
        }
    }
    out
}

/// Directory-pruned scans (per-word time/level/host/type pruning inside
/// JSG3 segments, lazily opened merge sources) return exactly what a
/// fresh plan returns fed every stored event in `(timestamp, sequence)`
/// order — stateful plans and limits included — over stores mixing
/// memtable rows, fresh and compacted JSG3 segments and JSG2 segments.
#[test]
fn directory_pruned_scan_equals_row_oracle_on_mixed_stores() {
    use jamm::jamm_tsdb::test_util::TempDir;
    forall("directory-pruned scan ≡ row oracle", 48, |g| {
        let dir = TempDir::new("prop-dir-scan");
        let opts = TsdbOptions {
            memtable_max_events: g.usize_in(40, 200),
            small_segment_events: g.usize_in(50, 300),
            sync_wal: false,
        };
        let steps = g.u64(20) + 10;
        let events = fleet_stream(g, steps);
        let split = g.usize_in(0, events.len());
        {
            let archive = EventArchive::open_with(dir.path(), opts.clone()).unwrap();
            for e in &events[..split] {
                archive.store(e.clone());
                if g.bool(0.02) {
                    archive.seal();
                }
                if g.bool(0.01) {
                    archive.compact();
                }
            }
            archive.seal();
        }
        // Downgrade a random subset of the segment files to JSG2.
        for entry in std::fs::read_dir(dir.path()).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "jseg") && g.bool(0.5) {
                let seg = Segment::read_from_file(&path).unwrap();
                std::fs::write(&path, to_jsg2(seg)).unwrap();
            }
        }
        let archive = EventArchive::open_with(dir.path(), opts).unwrap();
        for e in &events[split..] {
            archive.store(e.clone());
            if g.bool(0.02) {
                archive.seal();
            }
        }

        // Stateful leaves are conjoined only with host/type/val leaves:
        // facts exclude whole foreign series, never rows of the queried
        // series, so their per-series memory sees the oracle's stream.
        let t = |step: u64| 1_000_000 + step * 250_000;
        let (a, b) = (g.u64(30), g.u64(30));
        let queries = [
            "(&)".to_string(),
            "(host=dpss1.lbl.gov)".to_string(),
            "(&(host=mems.cairn.net)(type=MEM_FREE))".to_string(),
            "(|(host=h4)(host=portnoy.lbl.gov))".to_string(),
            "(type=TCPD_RETRANSMITS)".to_string(),
            "(level>=error)".to_string(),
            format!("(&(time>={})(time<{}))", t(a.min(b)), t(a.max(b))),
            format!("(&(host=h4)(level>=warning)(time>={}))", t(a)),
            "(&(type=CPU_TOTAL)(val>=40))".to_string(),
            "(&(host=dpss1.lbl.gov)(peer=*.lbl.gov))".to_string(),
            "(&(type=PROC_DIED)(count=*))".to_string(),
            "(&(type=MEM_FREE)(onchange))".to_string(),
            "(&(host=h4)(type=CPU_TOTAL)(crosses=35))".to_string(),
            "(&(host=portnoy.lbl.gov)(relchange=0.2))".to_string(),
        ];
        let mut text = g.choice(&queries);
        let stateful = Predicate::parse(&text).unwrap().compile().is_stateful();
        if !stateful && g.bool(0.7) {
            // A time window cutting through segments and words.
            text = format!("(&{text}(time>={})(time<{}))", t(a.min(b)), t(a.max(b) + 1));
        }
        if g.bool(0.3) {
            let k = g.usize_in(1, 40);
            text = format!("(&{text}(limit={k}))");
        }
        let pred = Predicate::parse(&text).unwrap();
        let got: Vec<Event> = archive.scan_plan(&pred.compile()).collect();

        let mut merged = events.clone();
        merged.sort_by_key(|e| e.timestamp); // stable: ties keep sequence order
        let oracle = pred.compile();
        let mut want: Vec<Event> = merged.into_iter().filter(|e| oracle.eval(e)).collect();
        if let Some(k) = oracle.limit() {
            want.truncate(k);
        }
        assert_eq!(got, want, "query {text} diverged from the row oracle");
    });
}

/// `Plan::eval_batch` over a hand-built column batch agrees with per-row
/// `Plan::eval`: exactly when the plan reports `batch_definite`, and as a
/// conservative superset otherwise (stateful or attribute leaves) — and
/// the definiteness flag it returns is precisely `batch_definite()`.
#[test]
fn eval_batch_agrees_with_row_eval() {
    use jamm::jamm_core::query::{BatchScratch, ColumnBatch, Selection};

    forall("eval_batch ≡ row eval", 96, |g| {
        let n = g.usize_in(1, 200);
        let events: Vec<Event> = (0..n).map(|_| random_event(g)).collect();

        // Columnarize: dictionary-encode hosts/types, severity-rank the
        // levels, split VAL into a dense column plus a presence bitmap —
        // the same shape JSG3 segments decode into.
        let mut dict: Vec<String> = Vec::new();
        let id = |dict: &mut Vec<String>, s: &str| -> u32 {
            match dict.iter().position(|d| d == s) {
                Some(i) => i as u32,
                None => {
                    dict.push(s.to_string());
                    (dict.len() - 1) as u32
                }
            }
        };
        let mut ts_micros = Vec::new();
        let mut host_ids = Vec::new();
        let mut type_ids = Vec::new();
        let mut levels = Vec::new();
        let mut values = Vec::new();
        let mut val_present = vec![0u64; n.div_ceil(64)];
        for (i, e) in events.iter().enumerate() {
            ts_micros.push(e.timestamp.as_micros());
            host_ids.push(id(&mut dict, &e.host));
            type_ids.push(id(&mut dict, &e.event_type));
            levels.push(e.level.severity());
            match e.value() {
                Some(v) => {
                    values.push(v);
                    val_present[i / 64] |= 1u64 << (i % 64);
                }
                None => values.push(0.0),
            }
        }
        let batch = ColumnBatch {
            ts_micros: &ts_micros,
            host_ids: &host_ids,
            type_ids: &type_ids,
            levels: &levels,
            values: &values,
            val_present: &val_present,
            dict: &dict,
        };

        let queries = [
            "(&)",
            "(host=dpss1.lbl.gov)",
            "(|(type=CPU_TOTAL)(type=MEM_FREE))",
            "(level>=warning)",
            "(&(time>=5000000)(time<20000000))",
            "(val>=40)",
            "(!(val<30))",
            "(&(host=mems.cairn.net)(|(level>=error)(val>=70)))",
            "(onchange)",
            "(&(type=CPU_TOTAL)(crosses=45))",
            "(status=run*)",
            "(&(host=h4)(relchange=0.25))",
        ];
        let text = g.choice(&queries);
        let plan = Predicate::parse(text).unwrap().compile();

        let mut sel = Selection::new();
        let mut scratch = BatchScratch::new();
        let definite = plan.eval_batch(&batch, &mut sel, &mut scratch);
        assert_eq!(
            definite,
            plan.batch_definite(),
            "definiteness flag disagrees with batch_definite() for {text}"
        );
        assert_eq!(sel.len(), n);

        // The row oracle walks rows in batch order, so stateful memory
        // sees the same stream a scan of this batch would feed it.
        let oracle = Predicate::parse(text).unwrap().compile();
        for (i, e) in events.iter().enumerate() {
            let row = oracle.eval(e);
            if definite {
                assert_eq!(
                    sel.contains(i),
                    row,
                    "definite batch disagrees with row eval at {i} for {text}: {e:?}"
                );
            } else if row {
                assert!(
                    sel.contains(i),
                    "superset batch dropped matching row {i} for {text}: {e:?}"
                );
            }
        }
    });
}

/// Limit pushdown returns exactly the first `k` of the unlimited scan.
#[test]
fn limit_pushdown_is_a_prefix_of_the_full_result() {
    forall("limit ≡ prefix", 32, |g| {
        let archive = EventArchive::in_memory_with(TsdbOptions {
            memtable_max_events: 8,
            small_segment_events: 8,
            sync_wal: false,
        });
        for _ in 0..g.usize_in(20, 60) {
            archive.store(random_event(g));
        }
        let full: Vec<Event> = archive.query(&ArchiveQuery::all());
        let k = g.usize_in(1, full.len());
        let limited: Vec<Event> = archive.query(&ArchiveQuery::all().limit(k));
        assert_eq!(limited.as_slice(), &full[..k]);
        let by_text: Vec<Event> = archive.query_str(&format!("(limit={k})")).unwrap();
        assert_eq!(by_text.as_slice(), &full[..k]);
    });
}

/// Field-carrying events keep matching attribute leaves through the
/// unified grammar (string values in place, numeric by ULM rendering).
#[test]
fn attribute_leaves_match_event_fields() {
    let e = Event::builder("netstat", "h1")
        .level(Level::Usage)
        .event_type("TCPD_RETRANSMITS")
        .timestamp(Timestamp::from_secs(1))
        .value(7.0)
        .field("PEER", Value::Str("mems.cairn.net".into()))
        .build();
    let hit = Predicate::parse("(peer=mems.cairn.net)").unwrap().compile();
    assert!(hit.eval(&e));
    let miss = Predicate::parse("(peer=elsewhere)").unwrap().compile();
    assert!(!miss.eval(&e));
    let glob = Predicate::parse("(peer=*.cairn.net)").unwrap().compile();
    assert!(glob.eval(&e));
    let present = Predicate::parse("(peer=*)").unwrap().compile();
    assert!(present.eval(&e));
}
