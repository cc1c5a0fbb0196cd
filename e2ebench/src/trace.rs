//! Bench-side spans around each call into a layer, kept in memory and
//! summarised into a per-layer ledger when the run ends.
//!
//! A span records its name, start, end, parent span and request id (the
//! tick or query index).  A span's self time is its duration minus the
//! part of its interval that its children cover; the ledger sums self
//! time per span name, so the ledger rows of one request add up to that
//! request's root span.  With tracing off every call is a branch.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, e.g. `gateway.publish`; root spans are `bench.*`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// The tick or query this span belongs to.
    pub req: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::begin`]; pass it to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
#[must_use = "end the span"]
pub struct SpanId(Option<usize>);

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; with `enabled == false` nothing is recorded.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start recording (used to trace only the second half of a window).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Open a span nested in the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: &'static str, req: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let idx = self.spans.len();
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Close a span opened by [`Tracer::begin`] (spans close in LIFO order).
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
        debug_assert_eq!(self.open.last(), Some(&idx), "spans close in LIFO order");
        self.open.pop();
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns() - covered.min(s.dur_ns())
        })
        .collect()
}

/// One ledger row: a span name's call count and summed self time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LedgerRow {
    /// Spans with this name.
    pub calls: u64,
    /// Their summed self time, ns.
    pub self_ns: u64,
}

/// Per-name ledger plus the summed duration of the root spans (the
/// traced wall time the rows add up to).
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Rows keyed by span name.
    pub rows: BTreeMap<&'static str, LedgerRow>,
    /// Summed duration of root spans, ns.
    pub root_ns: u64,
    /// Number of root spans (requests).
    pub roots: u64,
}

impl Ledger {
    /// Build the ledger of `spans`.
    pub fn of(spans: &[Span]) -> Ledger {
        let mut ledger = Ledger::default();
        for (s, own) in spans.iter().zip(self_times(spans)) {
            let row = ledger.rows.entry(s.name).or_default();
            row.calls += 1;
            row.self_ns += own;
            if s.parent.is_none() {
                ledger.root_ns += s.dur_ns();
                ledger.roots += 1;
            }
        }
        ledger
    }

    /// Summed self time of every row.
    pub fn total_self_ns(&self) -> u64 {
        self.rows.values().map(|r| r.self_ns).sum()
    }

    /// Summed self time of the rows of one layer.
    pub fn layer_ns(&self, layer: &str) -> u64 {
        self.rows
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, r)| r.self_ns)
            .sum()
    }

    /// A row by name (zero when the name never occurred).
    pub fn row(&self, name: &str) -> LedgerRow {
        self.rows.get(name).cloned().unwrap_or_default()
    }

    /// Share of the traced wall time that layer rows (everything except
    /// the bench's own root-span glue) account for.
    pub fn coverage(&self) -> f64 {
        if self.root_ns == 0 {
            return 0.0;
        }
        (self.total_self_ns() - self.layer_ns("bench")) as f64 / self.root_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("bench.tick", 0, 100, None),
            span("gateway.publish", 10, 30, Some(0)),
            // Overlapping children (possible for spans recorded on two
            // threads) are counted once.
            span("consumers.poll", 25, 50, Some(0)),
            span("tsdb.append", 40, 45, Some(2)),
            // A child that outlives its parent is clipped.
            span("rmi.flush", 90, 120, Some(0)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![100 - (50 - 10) - (100 - 90), 20, 20, 5, 30]);
    }

    #[test]
    fn ledger_rows_sum_to_the_root_spans() {
        let mut t = Tracer::new(true);
        for req in 0..3 {
            let root = t.begin("bench.tick", req);
            let a = t.begin("gateway.publish", req);
            let b = t.begin("core.eval", req);
            std::hint::black_box((0..1000).sum::<u64>());
            t.end(b);
            t.end(a);
            let c = t.begin("consumers.poll", req);
            t.end(c);
            t.end(root);
        }
        let ledger = Ledger::of(t.spans());
        assert_eq!(ledger.roots, 3);
        assert_eq!(ledger.total_self_ns(), ledger.root_ns);
        assert_eq!(ledger.row("gateway.publish").calls, 3);
        assert_eq!(ledger.row("missing").calls, 0);
        let layers: u64 = ["bench", "gateway", "core", "consumers"]
            .iter()
            .map(|l| ledger.layer_ns(l))
            .sum();
        assert_eq!(layers, ledger.root_ns);
        let cov = ledger.coverage();
        assert!((0.0..=1.0).contains(&cov));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("bench.tick", 0);
        t.end(id);
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        let id = t.begin("bench.tick", 1);
        t.end(id);
        assert_eq!(t.spans().len(), 1);
    }
}
