//! `live_fleet`: the paper's main path end to end, open loop.
//!
//! 4000 sensor managers on the standard host configuration read a seeded
//! synthetic `StatsSource`.  Every 10 ms tick the next 1 % of managers are
//! ticked at the tick's due time into a buffering sink, and their samples
//! (≈185) are published with one `publish_shared_batch` — per-sensor
//! batches made the edge pump's greedy batching race the publisher and
//! the latency bimodal between runs.  The deployment has one gateway, a
//! network edge, an archiver, 8 collectors (one per paper filter kind)
//! and a continuous query.  After each publish the main thread polls the
//! collectors and the archiver; a second bench thread blocks on
//! `EdgeClient::events()` and stamps receipt times.  This is the only
//! workload that exercises `manager`, `rmi`, `reactor`, `ulm` and tsdb
//! writes.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use jamm::jamm_core::flow::{EventSink, SinkError};
use jamm::jamm_core::query::{Plan, Predicate};
use jamm::jamm_core::sync::Mutex;
use jamm::jamm_gateway::EventFilter;
use jamm::jamm_manager::manager::NoPortActivity;
use jamm::jamm_manager::{ManagerConfig, SensorManager};
use jamm::jamm_rmi::{EdgeClient, EdgeClientConfig};
use jamm::jamm_sensors::{HostView, IfView, StatsSource};
use jamm::jamm_ulm::{keys, Event, Level, Timestamp};
use jamm::{JammBuilder, JammSystem, SharedEvent};

use crate::common::{self, mix, unit};
use crate::report::Report;
use crate::stats::{median, quantile, quantile_label, tail_quantile};
use crate::trace::{Ledger, Tracer};
use crate::Args;

const MANAGERS: usize = 4_000;
/// Managers ticked per 10 ms tick: 1 %, so each manager ticks once a second.
const SLOTS: usize = 100;
const TICK: Duration = Duration::from_millis(10);
const TICK_MICROS: u64 = 10_000;
/// Ticks per CPU-time slice (2 s).
const CPU_SLICE_TICKS: u64 = 200;
/// The first second of ticks warms every cache and starts every sensor;
/// its figures are discarded.
const WARM_TICKS: u64 = 100;
const GW: &str = "gw.fleet.grid:8765";
/// Simulated time of tick 0: 2000-03-30 00:00:00 UTC.
const BASE_MICROS: u64 = 954_374_400 * 1_000_000;
/// One event in this many (by content hash) is compared field for field.
const SAMPLE_ONE_IN: u64 = 32;

fn host_name(m: usize) -> String {
    format!("node{m:04}.fleet.grid")
}

/// Seeded synthetic host statistics.  Every reading is a hash of (seed,
/// host, simulated second), so a second pass regenerates the same stream.
struct FleetSource {
    seed: u64,
    hosts: HashMap<String, u64>,
    second: Cell<u64>,
}

impl FleetSource {
    fn new(seed: u64) -> FleetSource {
        FleetSource {
            seed,
            hosts: (0..MANAGERS).map(|m| (host_name(m), m as u64)).collect(),
            second: Cell::new(0),
        }
    }

    fn draw(&self, host: u64, second: u64, key: u64) -> u64 {
        mix(self.seed, host, second * 16 + key)
    }
}

impl StatsSource for FleetSource {
    fn host_stats(&self, host: &str) -> Option<HostView> {
        let h = *self.hosts.get(host)?;
        let s = self.second.get();
        // The retransmission counter advances unless a set bit is followed
        // by a clear one (3 seconds in 4); the socket count changes 2 in 3.
        let bit = |s: u64| self.draw(h, s, 3) & 1;
        Some(HostView {
            cpu_user_pct: 60.0 * unit(self.draw(h, s, 0)),
            cpu_sys_pct: 40.0 * unit(self.draw(h, s, 1)),
            mem_free_kb: (1 << 20) + self.draw(h, s, 2) % (1 << 20),
            tcp_retransmits: s + bit(s),
            rx_bytes: s * 1_000_000,
            tx_bytes: s * 500_000,
            active_sockets: (self.draw(h, s, 4) % 3) as u32,
        })
    }

    fn device_interfaces(&self, _device: &str) -> Vec<IfView> {
        Vec::new()
    }

    fn process_alive(&self, host: &str, _process: &str) -> Option<bool> {
        let h = *self.hosts.get(host)?;
        Some(!self.draw(h, self.second.get(), 5).is_multiple_of(50))
    }
}

/// The sink the managers tick into: one tick's samples become one batch.
#[derive(Default)]
struct Buffer(Mutex<Vec<SharedEvent>>);

impl EventSink<SharedEvent> for Buffer {
    fn accept(&self, event: &SharedEvent) -> Result<usize, SinkError> {
        self.0.lock().push(Arc::clone(event));
        Ok(1)
    }

    fn accept_batch(&self, events: &[SharedEvent]) -> Result<usize, SinkError> {
        self.0.lock().extend(events.iter().cloned());
        Ok(events.len())
    }
}

/// One collector per paper filter kind (§2.2).
fn collector_filters(seed: u64) -> Vec<(&'static str, Vec<EventFilter>)> {
    let hosts = (0..40)
        .map(|i| host_name((mix(seed, 7, i) % MANAGERS as u64) as usize))
        .collect();
    vec![
        (
            "c-type",
            vec![EventFilter::EventTypes(vec![keys::cpu::TOTAL.into()])],
        ),
        (
            "c-type-above",
            vec![
                EventFilter::EventTypes(vec![keys::cpu::USER.into()]),
                EventFilter::Above(50.0),
            ],
        ),
        ("c-onchange", vec![EventFilter::OnChange]),
        ("c-crosses", vec![EventFilter::Crosses(50.0)]),
        ("c-hosts", vec![EventFilter::Hosts(hosts)]),
        ("c-minlevel", vec![EventFilter::MinLevel(Level::Warning)]),
        ("c-relchange", vec![EventFilter::RelativeChange(0.5)]),
        (
            "c-type-below",
            vec![
                EventFilter::EventTypes(vec![keys::cpu::SYS.into()]),
                EventFilter::Below(5.0),
            ],
        ),
    ]
}

/// The row oracle of a collector: its filters compiled exactly as a
/// subscription compiles them.
fn oracle_plan(filters: &[EventFilter]) -> Plan {
    Predicate::And(filters.iter().map(EventFilter::to_predicate).collect()).compile()
}

type SampleKey = (u64, String, String);

fn sample_key(seed: u64, event: &Event) -> Option<SampleKey> {
    let name = event
        .host
        .bytes()
        .chain(event.event_type.bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
    let ts = event.timestamp.as_micros();
    mix(seed, name, ts)
        .is_multiple_of(SAMPLE_ONE_IN)
        .then(|| (ts, event.host.clone(), event.event_type.clone()))
}

/// Tick index of an event from its timestamp (events are stamped with
/// their tick's due time).
fn tick_of(event: &Event) -> u64 {
    event.timestamp.as_micros().saturating_sub(BASE_MICROS) / TICK_MICROS
}

fn managers(directory_base: &jamm::jamm_directory::Dn) -> Vec<SensorManager> {
    (0..MANAGERS)
        .map(|m| {
            let config = ManagerConfig::standard_host(host_name(m), GW, &["gridftpd"]);
            SensorManager::new(&config, directory_base.clone())
        })
        .collect()
}

/// Tick the managers due at tick `k` into `sink`.
fn tick_managers(
    k: u64,
    managers: &mut [SensorManager],
    source: &FleetSource,
    sink: &Buffer,
    directory: Option<&Arc<jamm::jamm_directory::DirectoryServer>>,
    tracer: &mut Tracer,
) {
    source.second.set(k / SLOTS as u64);
    let now = Timestamp::from_micros(BASE_MICROS + k * TICK_MICROS);
    for m in ((k as usize) % SLOTS..MANAGERS).step_by(SLOTS) {
        let span = tracer.begin("manager.tick", k);
        managers[m].tick(now, source, &NoPortActivity, sink, directory);
        tracer.end(span);
    }
}

struct Fleet {
    // Declared first so it stops before the edge it reads from.
    client: EdgeClient,
    jamm: JammSystem,
    managers: Vec<SensorManager>,
    source: FleetSource,
}

fn setup(seed: u64) -> Result<Fleet, String> {
    let filters = collector_filters(seed);
    let mut builder = JammBuilder::new()
        .directory("ldap://dir.fleet.grid", "o=grid")
        .gateway(GW)
        .network_edge(true)
        .archiver("archiver", "cn=archive,o=grid");
    for (name, _) in &filters {
        builder = builder.collector(*name);
    }
    let mut jamm = builder.build().map_err(|e| format!("build: {e}"))?;
    for (i, (name, f)) in filters.iter().enumerate() {
        if !jamm.collectors[i].subscribe_gateway(&jamm.registry, GW, f.clone()) {
            return Err(format!("collector {name} could not subscribe"));
        }
    }
    if jamm.connect_archiver(Vec::new()) != 1 {
        return Err("archiver could not subscribe".to_string());
    }
    jamm.register_continuous_query("hot_cpu", "(&(type=CPU_TOTAL)(val>50))")
        .map_err(|e| format!("continuous query: {e}"))?;
    let managers = managers(&jamm.suffix);
    let addr = jamm.edge_addr(GW).ok_or("deployment has no edge")?;
    let client = EdgeClient::connect(addr, EdgeClientConfig::default())
        .map_err(|e| format!("edge client: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(10);
    while jamm.edges[0].subscribers() < 1 {
        if Instant::now() > deadline {
            return Err("edge client did not connect within 10 s".to_string());
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    Ok(Fleet {
        client,
        jamm,
        managers,
        source: FleetSource::new(seed),
    })
}

/// What the receiving bench thread saw.
#[derive(Default)]
struct Received {
    count: u64,
    /// Latency (ms) of every event of a timed tick.
    latency: Vec<f64>,
    last_window_rx: Option<Instant>,
    sample: BTreeMap<SampleKey, Event>,
}

fn receive(
    client: &EdgeClient,
    t0: Instant,
    seed: u64,
    window: std::ops::Range<u64>,
    published: &AtomicU64,
    done: &AtomicBool,
) -> Received {
    let mut rx = Received::default();
    let mut idle_since = Instant::now();
    loop {
        match client.events().recv_timeout(Duration::from_millis(20)) {
            Ok(event) => {
                let now = Instant::now();
                idle_since = now;
                rx.count += 1;
                let k = tick_of(&event);
                if window.contains(&k) {
                    let due = t0 + TICK * k as u32;
                    rx.latency
                        .push(now.saturating_duration_since(due).as_secs_f64() * 1e3);
                    rx.last_window_rx = Some(now);
                }
                if let Some(key) = sample_key(seed, &event) {
                    rx.sample.insert(key, event);
                }
            }
            Err(_) if done.load(Ordering::Acquire) => {
                // Nothing more is coming once everything published has
                // arrived, or after 5 s of silence (a loss the checks
                // report).
                if rx.count >= published.load(Ordering::Acquire)
                    || idle_since.elapsed() > Duration::from_secs(5)
                {
                    return rx;
                }
            }
            Err(_) => {}
        }
    }
}

/// Counter readings at one instant.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    gw_in: u64,
    gw_out: u64,
    gw_dropped: u64,
    edge_batches: u64,
    edge_events: u64,
    edge_bytes: u64,
    client_dropped: u64,
    client_decode_errors: u64,
    dispatch_ns: u64,
    poll_wait_ns: u64,
    socket_dropped: u64,
    seals: u64,
    appended: u64,
}

fn counters(jamm: &JammSystem, client: &EdgeClient) -> Counters {
    let gw = jamm.gateways[0].stats();
    let edge = jamm.edges[0].stats();
    let cs = client.stats();
    let (dispatch_ns, poll_wait_ns) = jamm.reactor.as_ref().map_or((0, 0), |r| {
        (r.loop_stats().dispatch_ns, r.loop_stats().poll_wait_ns)
    });
    let tsdb = jamm.archive.stats();
    Counters {
        gw_in: gw.events_in.load(Ordering::Relaxed),
        gw_out: gw.events_out.load(Ordering::Relaxed),
        gw_dropped: gw.events_dropped.load(Ordering::Relaxed),
        edge_batches: edge.batches,
        edge_events: edge.events,
        edge_bytes: edge.encoded_bytes,
        client_dropped: cs.dropped,
        client_decode_errors: cs.decode_errors,
        dispatch_ns,
        poll_wait_ns,
        socket_dropped: jamm.edges[0]
            .socket_stats()
            .iter()
            .map(|r| r.stats.dropped_frames)
            .sum(),
        seals: tsdb.sealed_segments(),
        appended: tsdb.appended(),
    }
}

/// The published stream regenerated from the seed without a deployment:
/// per-collector oracle counts, the field-for-field sample, and the total.
fn regenerate(
    seed: u64,
    ticks: u64,
    filters: &[(&str, Vec<EventFilter>)],
) -> (Vec<u64>, BTreeMap<SampleKey, Event>, u64) {
    let source = FleetSource::new(seed);
    let base = jamm::jamm_directory::Dn::parse("o=grid").expect("static DN parses");
    let mut managers = managers(&base);
    let plans: Vec<Plan> = filters.iter().map(|(_, f)| oracle_plan(f)).collect();
    let mut counts = vec![0u64; plans.len()];
    let mut sample = BTreeMap::new();
    let mut total = 0u64;
    let sink = Buffer::default();
    let mut off = Tracer::new(false);
    for k in 0..ticks {
        tick_managers(k, &mut managers, &source, &sink, None, &mut off);
        for event in std::mem::take(&mut *sink.0.lock()) {
            total += 1;
            for (plan, count) in plans.iter().zip(counts.iter_mut()) {
                *count += u64::from(plan.eval(&*event));
            }
            if let Some(key) = sample_key(seed, &event) {
                sample.insert(key, (*event).clone());
            }
        }
    }
    (counts, sample, total)
}

/// Run the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let seed = args.seed;
    let (fleet, setup_s, setups) = common::timed_setups(|| setup(seed))?;
    let Fleet {
        client,
        mut jamm,
        mut managers,
        source,
    } = fleet;
    report.diag("archive: in memory (memtable, seals and compaction; no WAL or segment files)");
    let window_ticks = SLOTS as u64 * args.seconds;
    let total_ticks = WARM_TICKS + window_ticks;
    // A traced run traces only the second half of the window; the first
    // half is the untraced reference for the tracing overhead.
    let trace_from = if args.trace {
        WARM_TICKS + window_ticks / 2
    } else {
        u64::MAX
    };
    let mut tracer = Tracer::new(false);
    let sink = Buffer::default();
    let published = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let mut batch: Vec<SharedEvent> = Vec::new();
    let mut lateness_ms = Vec::with_capacity(window_ticks as usize);
    let mut durable_ms = Vec::with_capacity(window_ticks as usize);
    let mut busy_us = Vec::with_capacity(window_ticks as usize);
    let (mut window_events, mut traced_events, mut traced_drained, mut traced_stored) =
        (0u64, 0u64, 0u64, 0u64);
    let mut cpu = common::CpuSlices::default();
    let mut before = Counters::default();
    let mut window = None;
    let mut window_wall_s = None;
    let t0 = Instant::now() + Duration::from_millis(5);
    let received = std::thread::scope(|s| {
        let receiver = s.spawn(|| {
            receive(
                &client,
                t0,
                seed,
                WARM_TICKS..total_ticks,
                &published,
                &done,
            )
        });
        for k in 0..total_ticks {
            let due = t0 + TICK * k as u32;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            if k == WARM_TICKS {
                before = counters(&jamm, &client);
                window = Some(common::Window::begin());
            }
            if k >= WARM_TICKS && (k - WARM_TICKS).is_multiple_of(CPU_SLICE_TICKS) {
                cpu.mark(window_events);
            }
            if k == trace_from {
                tracer.set_enabled(true);
            }
            let start = Instant::now();
            let root = tracer.begin("bench.tick", k);
            tick_managers(
                k,
                &mut managers,
                &source,
                &sink,
                Some(&jamm.directory),
                &mut tracer,
            );
            std::mem::swap(&mut *sink.0.lock(), &mut batch);
            let n = batch.len() as u64;
            let span = tracer.begin("gateway.publish", k);
            jamm.gateways[0].publish_shared_batch(&batch);
            tracer.end(span);
            published.fetch_add(n, Ordering::Release);
            batch.clear();
            let mut drained = 0;
            for collector in &mut jamm.collectors {
                let span = tracer.begin("consumers.collector_poll", k);
                drained += collector.poll();
                tracer.end(span);
            }
            let span = tracer.begin("consumers.archiver_poll", k);
            let stored = jamm.archiver.as_mut().map_or(0, |a| a.poll());
            tracer.end(span);
            let end = Instant::now();
            tracer.end(root);
            if k >= WARM_TICKS {
                window_events += n;
                lateness_ms.push(start.saturating_duration_since(due).as_secs_f64() * 1e3);
                durable_ms.push(end.saturating_duration_since(due).as_secs_f64() * 1e3);
                busy_us.push((end - start).as_secs_f64() * 1e6);
                if k >= trace_from {
                    traced_events += n;
                    traced_drained += drained as u64;
                    traced_stored += stored as u64;
                }
            }
        }
        cpu.mark(window_events);
        window_wall_s = window.take().map(|w| w.end(&mut report));
        done.store(true, Ordering::Release);
        receiver.join().expect("receiver thread panicked")
    });
    let wall_s = window_wall_s.ok_or("window never started")?;
    let peak_rss = crate::sys::peak_rss_mb();
    // Anything the archiver still holds is retried once more before the
    // archive is counted.
    let leftover = jamm.archiver.as_mut().map_or(0, |a| a.poll());
    let after = counters(&jamm, &client);
    let total_published = published.load(Ordering::Acquire);

    // End-to-end metrics of the whole window.
    let mut lat = received.latency;
    let q_tail = tail_quantile(window_ticks as usize);
    let p25 = quantile(&mut lat, 0.25);
    let p50 = quantile(&mut lat, 0.5);
    let tail = quantile(&mut lat, q_tail);
    let durable_p50 = median(&mut durable_ms.clone());
    let window_start = t0 + TICK * WARM_TICKS as u32;
    let rx_span = received
        .last_window_rx
        .map_or(wall_s, |t| (t - window_start).as_secs_f64());
    let throughput = lat.len() as f64 / rx_span;
    let (cpu_us, cpu_mean) = cpu.us_per_op();
    report.e2e("setup_s", setup_s);
    report.e2e("latency_p25_ms", p25);
    report.e2e("cpu_us_per_op", cpu_us);
    report.e2e("peak_rss_mb", peak_rss);
    report.named(format!("setup_s (median of {setups})"), setup_s, "s");
    report.named("deliver_p25_ms", p25, "ms");
    report.named("deliver_p50_ms", p50, "ms");
    report.named(format!("deliver_{}_ms", quantile_label(q_tail)), tail, "ms");
    report.named("durable_p50_ms", durable_p50, "ms");
    report.named("cpu_us_per_event (p25 of 2 s slices)", cpu_us, "us");
    report.named("cpu_us_per_event (whole window)", cpu_mean, "us");
    report.named("delivered_events_per_s", throughput, "1/s");
    report.named("peak_rss_mb", peak_rss, "MiB");
    report.diag(format!(
        "open loop: {} managers, {window_ticks} timed ticks of 10 ms after {WARM_TICKS} warm-up ticks, \
         {window_events} events ({:.1} per tick); latency samples {} events, tail rule counts ticks",
        MANAGERS,
        window_events as f64 / window_ticks as f64,
        lat.len()
    ));
    report.diag(format!(
        "generator lateness behind schedule: p99 {:.3} ms, max {:.3} ms",
        quantile(&mut lateness_ms.clone(), 0.99),
        lateness_ms.iter().copied().fold(0.0, f64::max)
    ));

    // Failure accounting over the window.
    let d = |a: u64, b: u64| a.saturating_sub(b);
    let archive_missing = d(window_events, d(after.appended, before.appended));
    report.attempted = window_events;
    report.failed = d(after.gw_dropped, before.gw_dropped)
        + d(after.socket_dropped, before.socket_dropped)
        + d(after.client_dropped, before.client_dropped)
        + d(after.client_decode_errors, before.client_decode_errors)
        + archive_missing;

    // Per-layer metrics (the traced half).
    if args.trace {
        let ledger = Ledger::of(tracer.spans());
        let per = |ns: u64, n: u64| ns as f64 / 1e3 / n.max(1) as f64;
        report.layer(
            "manager.tick_us_per_event",
            per(ledger.row("manager.tick").self_ns, traced_events),
        );
        report.layer(
            "gateway.publish_us_per_event",
            per(ledger.row("gateway.publish").self_ns, traced_events),
        );
        report.layer(
            "consumers.collector_poll_us_per_event",
            per(
                ledger.row("consumers.collector_poll").self_ns,
                traced_drained,
            ),
        );
        report.layer(
            "consumers.archiver_poll_us_per_event",
            per(ledger.row("consumers.archiver_poll").self_ns, traced_stored),
        );
        let skip = (trace_from - WARM_TICKS) as usize;
        report.layer(
            "consumers.durable_p50_ms",
            median(&mut durable_ms[skip..].to_vec()),
        );
        let frames = d(after.edge_batches, before.edge_batches);
        let edge_events = d(after.edge_events, before.edge_events);
        let dispatch = d(after.dispatch_ns, before.dispatch_ns);
        let wait = d(after.poll_wait_ns, before.poll_wait_ns);
        report.layer(
            "gateway.deliveries_per_event",
            d(after.gw_out, before.gw_out) as f64 / d(after.gw_in, before.gw_in).max(1) as f64,
        );
        report.layer(
            "gateway.drops",
            d(after.gw_dropped, before.gw_dropped) as f64,
        );
        report.layer("tsdb.seals", d(after.seals, before.seals) as f64);
        report.layer("tsdb.appended", d(after.appended, before.appended) as f64);
        report.layer(
            "rmi.events_per_frame",
            edge_events as f64 / frames.max(1) as f64,
        );
        report.layer(
            "rmi.bytes_per_event",
            d(after.edge_bytes, before.edge_bytes) as f64 / edge_events.max(1) as f64,
        );
        report.layer(
            "rmi.client_drops",
            d(after.client_dropped, before.client_dropped) as f64,
        );
        report.layer(
            "rmi.decode_errors",
            d(after.client_decode_errors, before.client_decode_errors) as f64,
        );
        report.layer("reactor.dispatch_us_per_frame", per(dispatch, frames));
        report.layer(
            "reactor.saturation",
            dispatch as f64 / (dispatch + wait).max(1) as f64,
        );
        report.layer(
            "reactor.dropped_frames",
            d(after.socket_dropped, before.socket_dropped) as f64,
        );
        let (untraced, traced) = busy_us.split_at((trace_from - WARM_TICKS) as usize);
        common::ledger_metrics(&mut report, ledger, untraced, traced, window_events);
        let tsdb = jamm.archive.stats();
        report.diag(format!(
            "tsdb histograms (whole run): append p50 {} us, seal p50 {} us over {} seals",
            tsdb.append_us().snapshot().p50(),
            tsdb.seal_us().snapshot().p50(),
            tsdb.sealed_segments()
        ));
        report.diag(format!(
            "gateway route_us histogram (whole run): p50 {} us",
            jamm.gateways[0].stats().route_us.snapshot().p50()
        ));
    }

    // Correctness, outside the timed window.
    let cs = client.stats();
    report.check(
        "edge client received every published event",
        cs.received == total_published
            && received.count == total_published
            && cs.decode_errors == 0
            && cs.dropped == 0,
        format!(
            "published {total_published}, client decoded {}, bench took {}, decode errors {}, drops {}",
            cs.received, received.count, cs.decode_errors, cs.dropped
        ),
    );
    let appended = jamm.archive.stats().appended();
    report.check(
        "archive holds every published event",
        appended == total_published,
        format!("published {total_published}, archived {appended} ({leftover} on the final poll)"),
    );
    let filters = collector_filters(seed);
    let (oracle, expected_sample, regenerated) = regenerate(seed, total_ticks, &filters);
    report.check(
        "regenerated stream has the published length",
        regenerated == total_published,
        format!("regenerated {regenerated}, published {total_published}"),
    );
    for ((name, _), (collector, want)) in filters
        .iter()
        .zip(jamm.collectors.iter().zip(oracle.iter()))
    {
        let got = collector.events().len() as u64;
        report.check(
            format!("collector {name} matches the row oracle"),
            got == *want,
            format!("collected {got}, oracle {want}"),
        );
    }
    let same = received.sample == expected_sample;
    report.check(
        "sampled events match field for field",
        same && !expected_sample.is_empty(),
        format!(
            "{} received samples, {} regenerated",
            received.sample.len(),
            expected_sample.len()
        ),
    );
    drop(client);
    jamm.shutdown_edges();
    Ok(report)
}
