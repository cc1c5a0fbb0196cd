//! Immutable sorted segments and their compressed on-disk format.
//!
//! A segment is a batch of events sorted by `(timestamp, sequence)`, frozen
//! when the memtable seals.  The encoding is built for monitoring streams:
//!
//! * **delta-of-delta timestamps** — sensors emit at near-regular periods,
//!   so the second difference of consecutive timestamps is usually 0 or
//!   tiny, and a zigzag varint makes it one byte;
//! * **varint values** — counters and sizes are unsigned varints, signed
//!   readings are zigzag varints, only genuine floats pay eight bytes;
//! * **a per-segment string dictionary** — hosts, programs, event types,
//!   field keys and repeated string values are stored once and referenced
//!   by varint index.
//!
//! Each segment carries a [`SegmentCatalog`] (min/max timestamp, host and
//! event-type sets, per-series counts) that the store consults to *prune*
//! segments from a range scan without touching their data, and decoding is
//! cursor-based so a scan streams events out of the compressed buffer one
//! at a time instead of materializing the segment.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};

use jamm_core::intern::Sym;
use jamm_core::query::{BatchScratch, ColumnBatch, Facts, Plan, Selection};
use jamm_ulm::{binary, Event, Timestamp, Value};

use crate::codec::{
    fnv64, get_bytes, get_ivarint, get_str, get_uvarint, put_ivarint, put_str, put_uvarint,
};
use crate::{Result, TsdbError};

/// Magic bytes opening a segment file.  `JSG3` lays the event stream out
/// as per-field *columns* (see [`Segment`]); the previous row-major
/// generations stay readable: `JSG2` added the catalog's maximum severity
/// rank (level-floor pruning) and `JSG1` predates even that
/// ([`Segment::from_bytes`] treats those as containing every level, so
/// they are never level-pruned).  A `JSG`-prefixed magic this build does
/// not know is reported as an unsupported *version* rather than
/// corruption, so downgrading past a future format fails loudly and
/// clearly.
pub const SEGMENT_MAGIC: &[u8; 4] = b"JSG3";

/// Previous-generation row-major magic (still readable).
pub const SEGMENT_MAGIC_V2: &[u8; 4] = b"JSG2";

/// First-generation magic: identical to `JSG2` minus the catalog's
/// `max_level` byte (still readable).
pub const SEGMENT_MAGIC_V1: &[u8; 4] = b"JSG1";

/// File extension of segment files inside a store directory.
pub const SEGMENT_EXT: &str = "jseg";

const TAG_UINT: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_BOOL: u8 = 3;
const TAG_STR: u8 = 4;

/// What a segment contains, without reading its data: the pruning index
/// for range scans and the unit of the archiver's per-segment directory
/// publication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentCatalog {
    /// Segment identifier (unique within a store, monotonically assigned).
    pub id: u64,
    /// Number of events in the segment.
    pub event_count: usize,
    /// Smallest event timestamp.
    pub min_ts: Timestamp,
    /// Largest event timestamp.
    pub max_ts: Timestamp,
    /// Hosts present, with per-host event counts.
    pub hosts: BTreeMap<String, usize>,
    /// Event types present, with per-type event counts.
    pub event_types: BTreeMap<String, usize>,
    /// Per-series `(host, event type)` event counts.
    pub series: BTreeMap<(String, String), usize>,
    /// Highest severity rank present (see `jamm_ulm::Level::severity`),
    /// so a `level>=` query can skip segments of routine readings.
    pub max_level: u8,
}

impl SegmentCatalog {
    /// True when a query's pushdown [`Facts`] could be satisfied by events
    /// in this segment; the store skips (prunes) segments for which this
    /// is false without decoding any data.  The tiers, cheapest first:
    ///
    /// 1. **time** — the segment's `[min_ts, max_ts]` window misses the
    ///    query's half-open range;
    /// 2. **level** — the query's severity floor exceeds every event's;
    /// 3. **host / type sets** — none of the required hosts (or event
    ///    types) occurs in the segment;
    /// 4. **per-series counts** — hosts *and* types are both constrained
    ///    but no required `(host, type)` series exists here (a segment can
    ///    contain `h1` and `CPU_TOTAL` without containing `h1`'s
    ///    `CPU_TOTAL` readings).
    pub fn overlaps(&self, facts: &Facts) -> bool {
        if let Some(from) = facts.from_micros {
            if self.max_ts.as_micros() < from {
                return false;
            }
        }
        if let Some(to) = facts.to_micros {
            if self.min_ts.as_micros() >= to {
                return false;
            }
        }
        if let Some(floor) = facts.level_floor {
            if self.max_level < floor {
                return false;
            }
        }
        if let Some(hosts) = &facts.hosts {
            if !hosts.iter().any(|h| self.hosts.contains_key(h.as_str())) {
                return false;
            }
        }
        if let Some(types) = &facts.types {
            if !types
                .iter()
                .any(|t| self.event_types.contains_key(t.as_str()))
            {
                return false;
            }
        }
        if let (Some(hosts), Some(types)) = (&facts.hosts, &facts.types) {
            // One keyed lookup per required (host, type) pair, through a
            // reused key buffer.
            let mut key = (String::new(), String::new());
            let series_hit = hosts.iter().any(|h| {
                types.iter().any(|t| {
                    key.0.clear();
                    key.0.push_str(h.as_str());
                    key.1.clear();
                    key.1.push_str(t.as_str());
                    self.series.contains_key(&key)
                })
            });
            if !series_hit {
                return false;
            }
        }
        true
    }
}

/// An immutable sorted run of compressed events.
///
/// Newly built segments are **columnar** (`JSG3`): each event field lives
/// in its own region — delta-of-delta timestamps, sequence deltas, level
/// codes, host/program/type dictionary indices, a typed `f64` column for
/// the conventional `VAL` reading (with presence bitmap), per-row field
/// counts and key lists, and *sparse per-key columns* holding the
/// remaining field payloads grouped by key.  A plan scan decodes the fixed
/// columns a batch at a time, runs the vectorized
/// [`jamm_core::query::Plan::eval_batch`] over them, and only
/// *materializes* full [`Event`]s for rows that survive the filter (late
/// materialization) — skipped rows pay varint skips, never a `String`.
#[derive(Debug)]
pub struct Segment {
    catalog: SegmentCatalog,
    /// Smallest sequence number in the segment.  Together with `max_seq`
    /// this identifies the segment's generation: live segments have
    /// pairwise-disjoint sequence ranges, so an overlap found at open
    /// marks a crash leftover to reconcile.
    min_seq: u64,
    /// Largest sequence number in the segment (restart continues after it).
    max_seq: u64,
    /// String dictionary referenced by the data stream.
    dict: Vec<String>,
    /// The compressed event stream, row-major (legacy) or columnar.
    repr: Repr,
}

/// The two on-disk generations of a segment's event stream.
#[derive(Debug)]
enum Repr {
    /// `JSG1`/`JSG2` row-major stream: events concatenated field-by-field.
    /// Read-compat only — new segments are never built in this shape.
    Rows(Vec<u8>),
    /// `JSG3` per-field columns.
    Cols(Box<ColData>),
}

/// The encoded column regions of a `JSG3` segment.
#[derive(Debug, Default)]
struct ColData {
    /// Timestamps: first row uvarint, second row uvarint delta, then
    /// zigzag delta-of-delta varints.
    ts: Vec<u8>,
    /// Sequence numbers as zigzag deltas.
    seqs: Vec<u8>,
    /// One `binary::level_code` byte per row.
    levels: Vec<u8>,
    /// Host dictionary indices, uvarint per row.
    host_ix: Vec<u8>,
    /// Program dictionary indices, uvarint per row.
    prog_ix: Vec<u8>,
    /// Event-type dictionary indices, uvarint per row.
    type_ix: Vec<u8>,
    /// Bit `r%8` of byte `r/8` set when row `r` has a numeric `VAL`
    /// reading (i.e. `Event::value()` is `Some`).
    val_present: Vec<u8>,
    /// Subset of `val_present`: rows whose *first* `VAL` field is a
    /// `Value::Float` — those fields are omitted from the sparse columns
    /// and reconstructed from the typed `vals` column on materialization.
    val_float: Vec<u8>,
    /// Packed little-endian `f64`, one per `val_present` row, in row order.
    vals: Vec<u8>,
    /// Per-row field count, uvarint per row.
    nfields: Vec<u8>,
    /// Per-row key list: field-key dictionary indices in field order,
    /// row-major (`sum(nfields)` uvarints) — this is what preserves exact
    /// field order and duplicate keys across the columnar split.
    keys: Vec<u8>,
    /// Sparse per-key value columns: `uvarint n_keys`, then per key
    /// `uvarint key_ix, uvarint n_entries, uvarint byte_len, entries…`
    /// where each entry is `tag + payload` in row order (same encoding as
    /// the row-major generations).
    sparse: Vec<u8>,
    /// The row directory: in memory only, never written (see
    /// [`RowDirectory`]).  `None` only when a region outgrows `u32`
    /// positions; such a segment scans through its row cursor.
    dir: Option<RowDirectory>,
}

impl ColData {
    fn total_bytes(&self) -> usize {
        self.ts.len()
            + self.seqs.len()
            + self.levels.len()
            + self.host_ix.len()
            + self.prog_ix.len()
            + self.type_ix.len()
            + self.val_present.len()
            + self.val_float.len()
            + self.vals.len()
            + self.nfields.len()
            + self.keys.len()
            + self.sparse.len()
    }
}

/// Test a row bit in a `val_present`/`val_float` style bitmap.
fn bitmap_get(bits: &[u8], row: usize) -> bool {
    bits.get(row / 8)
        .is_some_and(|b| b & (1u8 << (row % 8)) != 0)
}

/// The 64 bits of word `w` of a byte bitmap (row `64w + i` is bit `i`),
/// zero past the bitmap's end.
fn bitmap_word(bits: &[u8], w: usize) -> u64 {
    let mut out = [0u8; 8];
    let start = (w * 8).min(bits.len());
    let end = (start + 8).min(bits.len());
    out[..end - start].copy_from_slice(&bits[start..end]);
    u64::from_le_bytes(out)
}

// ---------------------------------------------------------------------------
// Row directory
// ---------------------------------------------------------------------------

/// Rows per directory word: the unit a scan prunes, seeks to and walks.
const WORD_ROWS: usize = 64;

/// Delta-decoding state carried from one row to the next: the previous
/// row's timestamp, timestamp delta and sequence number.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Predictor {
    prev_ts: u64,
    prev_delta: u64,
    prev_seq: u64,
}

impl Predictor {
    /// Decode row `r`'s timestamp: the first row is a plain uvarint, the
    /// second a uvarint delta, the rest zigzag delta-of-deltas.
    fn ts(&mut self, data: &[u8], pos: &mut usize, r: usize) -> Result<u64> {
        let ts = match r {
            0 => get_uvarint(data, pos)?,
            1 => {
                let delta = get_uvarint(data, pos)?;
                self.prev_delta = delta;
                self.prev_ts.wrapping_add(delta)
            }
            _ => {
                let dod = get_ivarint(data, pos)?;
                let delta = self.prev_delta.wrapping_add(dod as u64);
                self.prev_delta = delta;
                self.prev_ts.wrapping_add(delta)
            }
        };
        self.prev_ts = ts;
        Ok(ts)
    }

    /// Decode the next sequence number (zigzag delta).
    fn seq(&mut self, data: &[u8], pos: &mut usize) -> Result<u64> {
        let seq = self.prev_seq.wrapping_add(get_ivarint(data, pos)? as u64);
        self.prev_seq = seq;
        Ok(seq)
    }
}

/// Where the column cursors stand at the first row of one directory word,
/// and the predictor state there: a scan seeks to a word without decoding
/// any row before it.  Sparse-column positions sit beside it in
/// [`RowDirectory::sparse`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Checkpoint {
    ts: u32,
    seqs: u32,
    host: u32,
    prog: u32,
    ty: u32,
    vals: u32,
    nf: u32,
    keys: u32,
    pred: Predictor,
    /// Timestamp of the word's first row.
    first_ts: u64,
}

/// The row directory of a columnar segment: what lets a scan touch only
/// the 64-row words that can hold a match.
///
/// * one [`Checkpoint`] per word (every column cursor, each sparse key's
///   position, the predictor state, the first timestamp) and the word's
///   highest severity rank;
/// * *postings*: for each dictionary id, the words whose host or event-type
///   column holds it, as varint gaps.  One list serves both columns: an id
///   that is a host in one row and a type in another gets the union, which
///   is still a sound superset for pruning.
///
/// Recorded while [`Segment::build`] encodes and rebuilt by one decoding
/// pass in [`Segment::from_bytes`]; it is derived data, so it is never
/// written and the file format does not change.
#[derive(Debug, Default, PartialEq, Eq)]
struct RowDirectory {
    words: Vec<Checkpoint>,
    max_level: Vec<u8>,
    /// Sparse keys in the sparse region (and in [`ColsPos::sparse`]).
    n_sparse: usize,
    /// Sparse cursor positions, `n_sparse` per word.
    sparse: Vec<u32>,
    /// `post[post_off[id]..post_off[id + 1]]` is dictionary id `id`'s
    /// posting list.
    post_off: Vec<u32>,
    post: Vec<u8>,
}

impl RowDirectory {
    /// Heap bytes held (the memory bound the directory is sized against).
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<Checkpoint>()
            + self.max_level.capacity()
            + self.sparse.capacity() * 4
            + self.post_off.capacity() * 4
            + self.post.capacity()
    }

    fn sparse_at(&self, w: usize) -> &[u32] {
        &self.sparse[w * self.n_sparse..(w + 1) * self.n_sparse]
    }

    /// OR dictionary id `id`'s posting list into the word bitmap `bits`.
    fn or_posting(&self, id: usize, bits: &mut [u64]) {
        let (Some(start), Some(end)) = (self.post_off.get(id), self.post_off.get(id + 1)) else {
            return;
        };
        let list = &self.post[*start as usize..*end as usize];
        let (mut pos, mut w) = (0usize, 0u64);
        while pos < list.len() {
            let Ok(gap) = get_uvarint(list, &mut pos) else {
                return;
            };
            w = w.saturating_add(gap);
            if let Some(word) = bits.get_mut(w as usize / 64) {
                *word |= 1u64 << (w % 64);
            }
        }
    }

    /// The words that can hold a row the facts admit, as a bitmap over the
    /// segment's words: the catalog's four pruning tiers (time, level,
    /// host, type) applied per word.
    fn candidates(&self, dict: &[String], max_ts: u64, facts: &Facts) -> Vec<u64> {
        let n = self.words.len();
        let mut bits = vec![0u64; n.div_ceil(64)];
        // Rows are time-sorted, so word `w` holds timestamps within
        // `[first_ts(w), first_ts(w + 1)]` and the time tier is a range.
        let hi = facts
            .to_micros
            .map_or(n, |to| self.words.partition_point(|c| c.first_ts < to));
        let lo = match facts.from_micros {
            None => 0,
            Some(_) if n == 0 => 0,
            Some(from) if max_ts < from => n,
            Some(from) => self.words[1..].partition_point(|c| c.first_ts < from),
        };
        for w in lo..hi {
            if facts
                .level_floor
                .is_none_or(|floor| self.max_level[w] >= floor)
            {
                bits[w / 64] |= 1u64 << (w % 64);
            }
        }
        for syms in [&facts.hosts, &facts.types].into_iter().flatten() {
            let names: Vec<&str> = syms.iter().map(|s| s.as_str()).collect();
            let mut mask = vec![0u64; bits.len()];
            for (id, entry) in dict.iter().enumerate() {
                if names.contains(&entry.as_str()) {
                    self.or_posting(id, &mut mask);
                }
            }
            for (b, m) in bits.iter_mut().zip(&mask) {
                *b &= *m;
            }
        }
        bits
    }
}

/// One sparse key column while [`Segment::build`] encodes.
#[derive(Debug, Default)]
struct SparseBuild {
    count: u64,
    data: Vec<u8>,
    /// The first word whose checkpoint comes after the key's first entry.
    first_word: usize,
    /// `data.len()` at each checkpoint from `first_word` on.
    marks: Vec<usize>,
}

/// Records a [`RowDirectory`] row by row, for the encoder and for the
/// load-time rebuild alike.
#[derive(Debug, Default)]
struct DirBuilder {
    dir: RowDirectory,
    /// `(dictionary id, word)` of each id's first row in a word, in word
    /// order: the postings before they are grouped by id.
    sightings: Vec<(u32, u32)>,
    /// Per dictionary id, one past the last word it was sighted in
    /// (0 = not yet).
    last_seen: Vec<u32>,
    /// Set when a column position does not fit a `u32`.
    overflow: bool,
}

impl DirBuilder {
    /// Open a new word.  `at` holds the fixed-column positions in
    /// [`Checkpoint`] field order.
    fn checkpoint(&mut self, at: [usize; 8], pred: Predictor, first_ts: u64) {
        let mut p = [0u32; 8];
        for (out, pos) in p.iter_mut().zip(at) {
            *out = u32::try_from(pos).unwrap_or_else(|_| {
                self.overflow = true;
                0
            });
        }
        let [ts, seqs, host, prog, ty, vals, nf, keys] = p;
        self.dir.words.push(Checkpoint {
            ts,
            seqs,
            host,
            prog,
            ty,
            vals,
            nf,
            keys,
            pred,
            first_ts,
        });
        self.dir.max_level.push(0);
    }

    /// Append one sparse cursor position (`n_sparse` per word, in order).
    fn sparse_pos(&mut self, pos: usize) {
        let pos = u32::try_from(pos).unwrap_or_else(|_| {
            self.overflow = true;
            0
        });
        self.dir.sparse.push(pos);
    }

    /// Record one row of the current word.
    fn row(&mut self, host_ix: u64, ty_ix: u64, severity: u8) {
        let open = self.dir.words.len() as u32;
        let top = self.dir.max_level.last_mut().expect("a word is open");
        *top = (*top).max(severity);
        for id in [host_ix as usize, ty_ix as usize] {
            if self.last_seen.len() <= id {
                self.last_seen.resize(id + 1, 0);
            }
            if self.last_seen[id] != open {
                self.last_seen[id] = open;
                self.sightings.push((id as u32, open - 1));
            }
        }
    }

    /// Group the sightings by id (a counting sort keeps each id's words
    /// in order) and gap-encode them over a dictionary of `dict_len` ids.
    /// Every sighted id is below `dict_len`.
    fn finish(mut self, dict_len: usize) -> Option<RowDirectory> {
        let mut start = vec![0usize; dict_len + 1];
        for &(id, _) in &self.sightings {
            start[id as usize + 1] += 1;
        }
        for id in 0..dict_len {
            start[id + 1] += start[id];
        }
        let mut next = start.clone();
        let mut words = vec![0u32; self.sightings.len()];
        for &(id, w) in &self.sightings {
            words[next[id as usize]] = w;
            next[id as usize] += 1;
        }
        self.dir.post_off.reserve_exact(dict_len + 1);
        for id in 0..dict_len {
            self.dir.post_off.push(self.dir.post.len() as u32);
            let mut prev = 0u32;
            for &w in &words[start[id]..start[id + 1]] {
                put_uvarint(&mut self.dir.post, u64::from(w - prev));
                prev = w;
            }
        }
        self.dir.post_off.push(self.dir.post.len() as u32);
        if self.overflow || u32::try_from(self.dir.post.len()).is_err() {
            return None;
        }
        self.dir.words.shrink_to_fit();
        self.dir.max_level.shrink_to_fit();
        self.dir.sparse.shrink_to_fit();
        self.dir.post.shrink_to_fit();
        Some(self.dir)
    }
}

/// Rebuild a loaded columnar segment's row directory in one decoding pass
/// (the same positions [`Segment::build`] recorded while encoding).
fn rebuild_directory(cols: &ColData, dict: &[String], rows: usize) -> Result<Option<RowDirectory>> {
    let mut cp = ColsPos::init(cols)?;
    let mut pred = Predictor::default();
    let mut dir = DirBuilder::default();
    dir.dir.n_sparse = cp.sparse.len();
    for r in 0..rows {
        let (at, before) = (cp.fixed(), pred);
        let ts = pred.ts(&cols.ts, &mut cp.ts, r)?;
        if r % WORD_ROWS == 0 {
            dir.checkpoint(at, before, ts);
            for cur in &cp.sparse {
                dir.sparse_pos(cur.pos);
            }
        }
        pred.seq(&cols.seqs, &mut cp.seqs)?;
        let code = *cols
            .levels
            .get(r)
            .ok_or(TsdbError::Corrupt("truncated level column"))?;
        let severity = binary::level_from_code(code)
            .map_err(|_| TsdbError::Corrupt("bad level code"))?
            .severity();
        let host_ix = get_uvarint(&cols.host_ix, &mut cp.host)?;
        get_uvarint(&cols.prog_ix, &mut cp.prog)?;
        let ty_ix = get_uvarint(&cols.type_ix, &mut cp.ty)?;
        // Posting lists are indexed by dictionary id: bound ids read from
        // the file before they size anything.
        if host_ix.max(ty_ix) >= dict.len() as u64 {
            return Err(TsdbError::Corrupt("dictionary index out of range"));
        }
        dir.row(host_ix, ty_ix, severity);
        if bitmap_get(&cols.val_present, r) {
            get_bytes::<8>(&cols.vals, &mut cp.vals)?;
        }
        walk_fields(
            dict,
            cols,
            &mut cp,
            None,
            bitmap_get(&cols.val_float, r),
            None,
        )?;
    }
    Ok(dir.finish(dict.len()))
}

impl Segment {
    /// Freeze a batch of `(sequence, event)` pairs, **already sorted** by
    /// `(timestamp, sequence)`, into a segment.  Panics on an empty batch —
    /// the store never seals an empty memtable.
    ///
    /// Generic over `Borrow<Event>`: the seal path hands the memtable's
    /// shared (`Arc<Event>`) batch in without copying any event, while
    /// compaction and retention rewrites pass owned decoded events.
    pub fn build<B: std::borrow::Borrow<Event>>(id: u64, sorted: &[(u64, B)]) -> Segment {
        assert!(!sorted.is_empty(), "segments are never empty");
        // The string dictionary, built in one pass over the batch.  The
        // *identifier* strings (hosts, programs, event types, field keys)
        // repeat thousands of times and come from a bounded set, so their
        // index is keyed by interned `Sym` — each repeat lookup hashes a
        // u32 instead of a string.  String *values* are unbounded payload
        // data and must never reach the leaking interner (see
        // `jamm_core::intern`); they go through a borrowed-str index local
        // to this build.
        let mut dict: Vec<String> = Vec::new();
        let mut sym_index: HashMap<Sym, u64> = HashMap::new();
        let collect = |s: &str, dict: &mut Vec<String>, index: &mut HashMap<Sym, u64>| -> u64 {
            let sym = Sym::intern(s);
            *index.entry(sym).or_insert_with(|| {
                dict.push(s.to_string());
                dict.len() as u64 - 1
            })
        };
        let mut value_index: HashMap<&str, u64> = HashMap::new();
        let mut cols = ColData::default();
        let nrows = sorted.len();
        cols.val_present = vec![0u8; nrows.div_ceil(8)];
        cols.val_float = vec![0u8; nrows.div_ceil(8)];
        // Per-key sparse columns accumulate out of line and are stitched
        // into the `sparse` region after the row loop; BTreeMap keeps the
        // key directory in deterministic (dictionary-index) order.
        let mut sparse_cols: BTreeMap<u64, SparseBuild> = BTreeMap::new();
        let mut pred = Predictor::default();
        let mut dir = DirBuilder::default();
        let mut min_seq = u64::MAX;
        let mut max_seq = 0u64;
        let mut hosts: BTreeMap<String, usize> = BTreeMap::new();
        let mut event_types: BTreeMap<String, usize> = BTreeMap::new();
        let mut series: BTreeMap<(String, String), usize> = BTreeMap::new();
        let mut max_level = 0u8;
        for (r, (seq, e)) in sorted.iter().enumerate() {
            let e = e.borrow();
            let ts = e.timestamp.as_micros();
            if r % WORD_ROWS == 0 {
                dir.checkpoint(
                    [
                        cols.ts.len(),
                        cols.seqs.len(),
                        cols.host_ix.len(),
                        cols.prog_ix.len(),
                        cols.type_ix.len(),
                        cols.vals.len(),
                        cols.nfields.len(),
                        cols.keys.len(),
                    ],
                    pred,
                    ts,
                );
                for col in sparse_cols.values_mut() {
                    col.marks.push(col.data.len());
                }
            }
            match r {
                0 => put_uvarint(&mut cols.ts, ts),
                1 => {
                    let delta = ts.wrapping_sub(pred.prev_ts);
                    put_uvarint(&mut cols.ts, delta);
                    pred.prev_delta = delta;
                }
                _ => {
                    let delta = ts.wrapping_sub(pred.prev_ts);
                    put_ivarint(&mut cols.ts, delta.wrapping_sub(pred.prev_delta) as i64);
                    pred.prev_delta = delta;
                }
            }
            pred.prev_ts = ts;
            put_ivarint(&mut cols.seqs, seq.wrapping_sub(pred.prev_seq) as i64);
            pred.prev_seq = *seq;
            min_seq = min_seq.min(*seq);
            max_seq = max_seq.max(*seq);
            cols.levels.push(binary::level_code(e.level));
            let host_ix = collect(&e.host, &mut dict, &mut sym_index);
            put_uvarint(&mut cols.host_ix, host_ix);
            let prog_ix = collect(&e.program, &mut dict, &mut sym_index);
            put_uvarint(&mut cols.prog_ix, prog_ix);
            let ty_ix = collect(&e.event_type, &mut dict, &mut sym_index);
            put_uvarint(&mut cols.type_ix, ty_ix);
            dir.row(host_ix, ty_ix, e.level.severity());
            if let Some(v) = e.value() {
                cols.val_present[r / 8] |= 1u8 << (r % 8);
                cols.vals.extend_from_slice(&v.to_le_bytes());
            }
            put_uvarint(&mut cols.nfields, e.fields.len() as u64);
            let mut saw_val = false;
            for (k, v) in &e.fields {
                let key_ix = collect(k, &mut dict, &mut sym_index);
                put_uvarint(&mut cols.keys, key_ix);
                if !saw_val && k == jamm_ulm::keys::VALUE {
                    saw_val = true;
                    if matches!(v, Value::Float(_)) {
                        // The typed `vals` column already holds exactly this
                        // float (it is the first `VAL` field, which is what
                        // `Event::value()` reads); don't store it twice.
                        cols.val_float[r / 8] |= 1u8 << (r % 8);
                        continue;
                    }
                }
                let col = sparse_cols.entry(key_ix).or_insert_with(|| SparseBuild {
                    first_word: r / WORD_ROWS + 1,
                    ..SparseBuild::default()
                });
                col.count += 1;
                let data = &mut col.data;
                match v {
                    Value::UInt(u) => {
                        data.push(TAG_UINT);
                        put_uvarint(data, *u);
                    }
                    Value::Int(s) => {
                        data.push(TAG_INT);
                        put_ivarint(data, *s);
                    }
                    Value::Float(f) => {
                        data.push(TAG_FLOAT);
                        data.extend_from_slice(&f.to_le_bytes());
                    }
                    Value::Bool(b) => {
                        data.push(TAG_BOOL);
                        data.push(*b as u8);
                    }
                    Value::Str(s) => {
                        data.push(TAG_STR);
                        // Reuse an identifier's slot when the value is the
                        // same string (e.g. a PEER=host field) — `lookup`
                        // never inserts, so payload values still cannot
                        // reach the leaking interner.
                        let identifier_slot =
                            Sym::lookup(s).and_then(|sym| sym_index.get(&sym).copied());
                        let str_ix = identifier_slot.unwrap_or_else(|| {
                            *value_index.entry(s.as_str()).or_insert_with(|| {
                                dict.push(s.clone());
                                dict.len() as u64 - 1
                            })
                        });
                        put_uvarint(data, str_ix);
                    }
                }
            }
            *hosts.entry(e.host.clone()).or_insert(0) += 1;
            *event_types.entry(e.event_type.clone()).or_insert(0) += 1;
            *series
                .entry((e.host.clone(), e.event_type.clone()))
                .or_insert(0) += 1;
            max_level = max_level.max(e.level.severity());
        }
        put_uvarint(&mut cols.sparse, sparse_cols.len() as u64);
        let words = dir.dir.words.len();
        let n_sparse = sparse_cols.len();
        let mut sparse_pos = vec![0usize; words * n_sparse];
        for (slot, (key_ix, col)) in sparse_cols.iter().enumerate() {
            put_uvarint(&mut cols.sparse, *key_ix);
            put_uvarint(&mut cols.sparse, col.count);
            put_uvarint(&mut cols.sparse, col.data.len() as u64);
            // A key's column starts here; before the word after its first
            // entry, its cursor sits at that start.
            let base = cols.sparse.len();
            for w in 0..words {
                let rel = w.checked_sub(col.first_word).map_or(0, |i| col.marks[i]);
                sparse_pos[w * n_sparse + slot] = base + rel;
            }
            cols.sparse.extend_from_slice(&col.data);
        }
        dir.dir.n_sparse = n_sparse;
        for pos in sparse_pos {
            dir.sparse_pos(pos);
        }
        cols.dir = dir.finish(dict.len());

        Segment {
            catalog: SegmentCatalog {
                id,
                event_count: sorted.len(),
                min_ts: sorted.first().expect("non-empty").1.borrow().timestamp,
                max_ts: sorted.last().expect("non-empty").1.borrow().timestamp,
                hosts,
                event_types,
                series,
                max_level,
            },
            min_seq,
            max_seq,
            dict,
            repr: Repr::Cols(Box::new(cols)),
        }
    }

    /// The segment's pruning catalog.
    pub fn catalog(&self) -> &SegmentCatalog {
        &self.catalog
    }

    /// Segment identifier.
    pub fn id(&self) -> u64 {
        self.catalog.id
    }

    /// Number of events in the segment.
    pub fn len(&self) -> usize {
        self.catalog.event_count
    }

    /// Segments are never empty, so this is always false; present for API
    /// symmetry.
    pub fn is_empty(&self) -> bool {
        self.catalog.event_count == 0
    }

    /// Smallest sequence number stored in the segment.
    pub fn min_seq(&self) -> u64 {
        self.min_seq
    }

    /// Largest sequence number stored in the segment.
    pub fn max_seq(&self) -> u64 {
        self.max_seq
    }

    /// Size in bytes of the compressed event stream (excluding dictionary
    /// and catalog).
    pub fn data_bytes(&self) -> usize {
        match &self.repr {
            Repr::Rows(data) => data.len(),
            Repr::Cols(cols) => cols.total_bytes(),
        }
    }

    /// True when the segment stores per-field columns (`JSG3`) rather than
    /// a legacy row-major stream.
    #[cfg(test)]
    pub(crate) fn is_columnar(&self) -> bool {
        matches!(self.repr, Repr::Cols(_))
    }

    /// Serialize the segment to its file form: `JSG3` for columnar
    /// segments, `JSG2` for a loaded legacy row-major segment (so
    /// re-serializing an old segment never silently re-encodes it; only a
    /// rebuild through [`Segment::build`] — seal, compaction, retention —
    /// upgrades the layout).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(self.data_bytes() + 256);
        put_uvarint(&mut body, self.catalog.id);
        put_uvarint(&mut body, self.min_seq);
        put_uvarint(&mut body, self.max_seq);
        put_uvarint(&mut body, self.catalog.event_count as u64);
        put_uvarint(&mut body, self.catalog.min_ts.as_micros());
        put_uvarint(&mut body, self.catalog.max_ts.as_micros());
        body.push(self.catalog.max_level);
        put_uvarint(&mut body, self.catalog.hosts.len() as u64);
        for (h, n) in &self.catalog.hosts {
            put_str(&mut body, h);
            put_uvarint(&mut body, *n as u64);
        }
        put_uvarint(&mut body, self.catalog.event_types.len() as u64);
        for (t, n) in &self.catalog.event_types {
            put_str(&mut body, t);
            put_uvarint(&mut body, *n as u64);
        }
        put_uvarint(&mut body, self.catalog.series.len() as u64);
        for ((h, t), n) in &self.catalog.series {
            put_str(&mut body, h);
            put_str(&mut body, t);
            put_uvarint(&mut body, *n as u64);
        }
        put_uvarint(&mut body, self.dict.len() as u64);
        for s in &self.dict {
            put_str(&mut body, s);
        }
        let magic = match &self.repr {
            Repr::Rows(data) => {
                put_uvarint(&mut body, data.len() as u64);
                body.extend_from_slice(data);
                SEGMENT_MAGIC_V2
            }
            Repr::Cols(cols) => {
                for region in [
                    &cols.ts,
                    &cols.seqs,
                    &cols.levels,
                    &cols.host_ix,
                    &cols.prog_ix,
                    &cols.type_ix,
                    &cols.val_present,
                    &cols.val_float,
                    &cols.vals,
                    &cols.nfields,
                    &cols.keys,
                    &cols.sparse,
                ] {
                    put_uvarint(&mut body, region.len() as u64);
                    body.extend_from_slice(region);
                }
                SEGMENT_MAGIC
            }
        };

        let mut out = Vec::with_capacity(body.len() + 12);
        out.extend_from_slice(magic);
        out.extend_from_slice(&body);
        out.extend_from_slice(&fnv64(&body).to_le_bytes());
        out
    }

    /// Deserialize a segment from its file form, verifying magic and
    /// checksum.  `JSG1` files (written before the catalog carried a
    /// maximum severity rank) load with `max_level = u8::MAX`, so an old
    /// store stays readable and is simply never level-pruned.
    pub fn from_bytes(bytes: &[u8]) -> Result<Segment> {
        if bytes.len() < 12 {
            return Err(TsdbError::Corrupt("bad segment magic"));
        }
        let version = match &bytes[..4] {
            m if m == SEGMENT_MAGIC_V1 => 1u8,
            m if m == SEGMENT_MAGIC_V2 => 2,
            m if m == SEGMENT_MAGIC => 3,
            m if &m[..3] == b"JSG" => {
                // A future generation this build does not know: refuse with
                // a version error, not a corruption error, so operators see
                // "upgrade the reader" instead of "restore from backup".
                return Err(TsdbError::Corrupt(
                    "unsupported segment version (written by a newer build)",
                ));
            }
            _ => return Err(TsdbError::Corrupt("bad segment magic")),
        };
        let v1 = version == 1;
        let body = &bytes[4..bytes.len() - 8];
        let stored = u64::from_le_bytes(
            bytes[bytes.len() - 8..]
                .try_into()
                .expect("8 checksum bytes"),
        );
        if fnv64(body) != stored {
            return Err(TsdbError::Corrupt("segment checksum mismatch"));
        }
        let mut pos = 0usize;
        let id = get_uvarint(body, &mut pos)?;
        let min_seq = get_uvarint(body, &mut pos)?;
        let max_seq = get_uvarint(body, &mut pos)?;
        let event_count = get_uvarint(body, &mut pos)? as usize;
        let min_ts = Timestamp::from_micros(get_uvarint(body, &mut pos)?);
        let max_ts = Timestamp::from_micros(get_uvarint(body, &mut pos)?);
        let max_level = if v1 {
            // Unknown in the old format: assume every level is present so
            // level-floor pruning never skips a legacy segment.
            u8::MAX
        } else {
            let lvl = *body
                .get(pos)
                .ok_or(TsdbError::Corrupt("truncated max level"))?;
            pos += 1;
            lvl
        };
        let mut hosts = BTreeMap::new();
        for _ in 0..get_uvarint(body, &mut pos)? {
            let h = get_str(body, &mut pos)?;
            hosts.insert(h, get_uvarint(body, &mut pos)? as usize);
        }
        let mut event_types = BTreeMap::new();
        for _ in 0..get_uvarint(body, &mut pos)? {
            let t = get_str(body, &mut pos)?;
            event_types.insert(t, get_uvarint(body, &mut pos)? as usize);
        }
        let mut series = BTreeMap::new();
        for _ in 0..get_uvarint(body, &mut pos)? {
            let h = get_str(body, &mut pos)?;
            let t = get_str(body, &mut pos)?;
            series.insert((h, t), get_uvarint(body, &mut pos)? as usize);
        }
        let dict_len = get_uvarint(body, &mut pos)? as usize;
        let mut dict = Vec::with_capacity(dict_len.min(1 << 16));
        for _ in 0..dict_len {
            dict.push(get_str(body, &mut pos)?);
        }
        let repr = if version <= 2 {
            let data_len = get_uvarint(body, &mut pos)? as usize;
            if body.len() - pos != data_len {
                return Err(TsdbError::Corrupt("segment data length mismatch"));
            }
            Repr::Rows(body[pos..].to_vec())
        } else {
            let mut region = || -> Result<Vec<u8>> {
                let len = get_uvarint(body, &mut pos)? as usize;
                let end = pos
                    .checked_add(len)
                    .filter(|end| *end <= body.len())
                    .ok_or(TsdbError::Corrupt("truncated column region"))?;
                let bytes = body[pos..end].to_vec();
                pos = end;
                Ok(bytes)
            };
            let mut cols = ColData {
                ts: region()?,
                seqs: region()?,
                levels: region()?,
                host_ix: region()?,
                prog_ix: region()?,
                type_ix: region()?,
                val_present: region()?,
                val_float: region()?,
                vals: region()?,
                nfields: region()?,
                keys: region()?,
                sparse: region()?,
                dir: None,
            };
            if pos != body.len() {
                return Err(TsdbError::Corrupt("segment data length mismatch"));
            }
            cols.dir = rebuild_directory(&cols, &dict, event_count)?;
            Repr::Cols(Box::new(cols))
        };
        Ok(Segment {
            catalog: SegmentCatalog {
                id,
                event_count,
                min_ts,
                max_ts,
                hosts,
                event_types,
                series,
                max_level,
            },
            min_seq,
            max_seq,
            dict,
            repr,
        })
    }

    /// Write the segment to `dir` as `seg-<id>.jseg`, atomically (write to
    /// a temp name, fsync, rename) so a crash never leaves a half-written
    /// segment with a valid name.
    pub fn write_to_dir(&self, dir: &Path) -> Result<PathBuf> {
        let path = dir.join(Segment::file_name(self.catalog.id));
        let tmp = dir.join(format!("seg-{:08}.tmp", self.catalog.id));
        {
            use std::io::Write;
            let mut f = std::fs::File::create(&tmp).map_err(TsdbError::from)?;
            f.write_all(&self.to_bytes()).map_err(TsdbError::from)?;
            f.sync_all().map_err(TsdbError::from)?;
        }
        std::fs::rename(&tmp, &path).map_err(TsdbError::from)?;
        Ok(path)
    }

    /// Load a segment file.
    pub fn read_from_file(path: &Path) -> Result<Segment> {
        let bytes = std::fs::read(path).map_err(TsdbError::from)?;
        Segment::from_bytes(&bytes)
    }

    /// Canonical file name of a segment id.
    pub fn file_name(id: u64) -> String {
        format!("seg-{id:08}.{SEGMENT_EXT}")
    }

    /// A cursor decoding the segment's events one at a time.
    pub fn cursor(self: &std::sync::Arc<Self>) -> SegmentCursor {
        SegmentCursor {
            seg: std::sync::Arc::clone(self),
            state: CursorState::default(),
        }
    }

    /// A batched columnar scan over this segment, or `None` when the
    /// segment is a legacy row-major one or has no row directory (those
    /// scan through [`Segment::cursor`] instead).
    pub(crate) fn col_scan(self: &std::sync::Arc<Self>) -> Option<ColScan> {
        match &self.repr {
            Repr::Cols(cols) if cols.dir.is_some() => {
                Some(ColScan::new(std::sync::Arc::clone(self)))
            }
            _ => None,
        }
    }

    /// Build a segment in the legacy `JSG2` row-major shape — what PR 5-era
    /// code wrote.  Test-only: it exists so compatibility tests can
    /// produce genuine old-format fixtures (and exercise the row-major
    /// scan path) now that [`Segment::build`] always emits columns.
    #[cfg(test)]
    pub(crate) fn build_rows_legacy<B: std::borrow::Borrow<Event>>(
        id: u64,
        sorted: &[(u64, B)],
    ) -> Segment {
        let columnar = Segment::build(id, sorted);
        let mut data = Vec::new();
        let mut dict: Vec<String> = Vec::new();
        let mut sym_index: HashMap<Sym, u64> = HashMap::new();
        let collect = |s: &str, dict: &mut Vec<String>, index: &mut HashMap<Sym, u64>| -> u64 {
            let sym = Sym::intern(s);
            *index.entry(sym).or_insert_with(|| {
                dict.push(s.to_string());
                dict.len() as u64 - 1
            })
        };
        let mut value_index: HashMap<String, u64> = HashMap::new();
        let mut prev_ts = 0u64;
        let mut prev_delta = 0u64;
        let mut prev_seq = 0u64;
        for (i, (seq, e)) in sorted.iter().enumerate() {
            let e = e.borrow();
            let ts = e.timestamp.as_micros();
            match i {
                0 => put_uvarint(&mut data, ts),
                1 => {
                    let delta = ts.wrapping_sub(prev_ts);
                    put_uvarint(&mut data, delta);
                    prev_delta = delta;
                }
                _ => {
                    let delta = ts.wrapping_sub(prev_ts);
                    put_ivarint(&mut data, delta.wrapping_sub(prev_delta) as i64);
                    prev_delta = delta;
                }
            }
            prev_ts = ts;
            put_ivarint(&mut data, seq.wrapping_sub(prev_seq) as i64);
            prev_seq = *seq;
            data.push(binary::level_code(e.level));
            put_uvarint(&mut data, collect(&e.host, &mut dict, &mut sym_index));
            put_uvarint(&mut data, collect(&e.program, &mut dict, &mut sym_index));
            put_uvarint(&mut data, collect(&e.event_type, &mut dict, &mut sym_index));
            put_uvarint(&mut data, e.fields.len() as u64);
            for (k, v) in &e.fields {
                put_uvarint(&mut data, collect(k, &mut dict, &mut sym_index));
                match v {
                    Value::UInt(u) => {
                        data.push(TAG_UINT);
                        put_uvarint(&mut data, *u);
                    }
                    Value::Int(s) => {
                        data.push(TAG_INT);
                        put_ivarint(&mut data, *s);
                    }
                    Value::Float(f) => {
                        data.push(TAG_FLOAT);
                        data.extend_from_slice(&f.to_le_bytes());
                    }
                    Value::Bool(b) => {
                        data.push(TAG_BOOL);
                        data.push(*b as u8);
                    }
                    Value::Str(s) => {
                        data.push(TAG_STR);
                        let identifier_slot =
                            Sym::lookup(s).and_then(|sym| sym_index.get(&sym).copied());
                        let str_ix = identifier_slot.unwrap_or_else(|| {
                            *value_index.entry(s.clone()).or_insert_with(|| {
                                dict.push(s.clone());
                                dict.len() as u64 - 1
                            })
                        });
                        put_uvarint(&mut data, str_ix);
                    }
                }
            }
        }
        Segment {
            catalog: columnar.catalog,
            min_seq: columnar.min_seq,
            max_seq: columnar.max_seq,
            dict,
            repr: Repr::Rows(data),
        }
    }
}

/// Streaming decoder over one segment's compressed data.  Yields events in
/// `(timestamp, sequence)` order without materializing the segment, and
/// works over both the legacy row-major stream and the columnar layout.
#[derive(Debug)]
pub struct SegmentCursor {
    seg: std::sync::Arc<Segment>,
    state: CursorState,
}

/// Mutable decode position and delta-decoding state, split from the
/// segment handle so the hot decode loop borrows the two disjointly (no
/// per-event `Arc` clone).
#[derive(Debug, Default)]
struct CursorState {
    /// Row-major stream position (legacy repr only).
    pos: usize,
    decoded: usize,
    pred: Predictor,
    /// Columnar region positions, initialized on first decode of a
    /// columnar segment.
    cols: Option<Box<ColsPos>>,
}

/// Per-region decode positions for a columnar segment.
#[derive(Debug, Default)]
struct ColsPos {
    ts: usize,
    seqs: usize,
    host: usize,
    prog: usize,
    ty: usize,
    /// Byte offset into the packed `vals` column.
    vals: usize,
    nf: usize,
    keys: usize,
    /// Dictionary indices of the sparse keys, ascending, and each key's
    /// cursor into the sparse region (same order).
    sparse_keys: Vec<u64>,
    sparse: Vec<SparseCur>,
}

/// A cursor into one key's sparse value column.
#[derive(Debug, Clone, Copy)]
struct SparseCur {
    pos: usize,
    end: usize,
}

impl ColsPos {
    /// Parse the sparse-region key directory into per-key cursors.
    fn init(cols: &ColData) -> Result<ColsPos> {
        let data: &[u8] = &cols.sparse;
        let mut pos = 0usize;
        let n_keys = get_uvarint(data, &mut pos)? as usize;
        let mut keyed = Vec::with_capacity(n_keys.min(1 << 16));
        for _ in 0..n_keys {
            let key_ix = get_uvarint(data, &mut pos)?;
            let _n_entries = get_uvarint(data, &mut pos)?;
            let byte_len = get_uvarint(data, &mut pos)? as usize;
            let end = pos
                .checked_add(byte_len)
                .filter(|end| *end <= data.len())
                .ok_or(TsdbError::Corrupt("truncated sparse column"))?;
            keyed.push((key_ix, SparseCur { pos, end }));
            pos = end;
        }
        keyed.sort_by_key(|(key_ix, _)| *key_ix);
        Ok(ColsPos {
            sparse_keys: keyed.iter().map(|(key_ix, _)| *key_ix).collect(),
            sparse: keyed.into_iter().map(|(_, cur)| cur).collect(),
            ..ColsPos::default()
        })
    }

    /// The fixed-column positions, in [`Checkpoint`] field order.
    fn fixed(&self) -> [usize; 8] {
        [
            self.ts, self.seqs, self.host, self.prog, self.ty, self.vals, self.nf, self.keys,
        ]
    }

    /// Seek the columns a batch decodes to a word's first row.
    fn seek_fixed(&mut self, ck: &Checkpoint) {
        self.ts = ck.ts as usize;
        self.seqs = ck.seqs as usize;
        self.host = ck.host as usize;
        self.prog = ck.prog as usize;
        self.ty = ck.ty as usize;
        self.vals = ck.vals as usize;
    }

    /// Seek the key lists and sparse values to a word's first row.
    fn seek_fields(&mut self, ck: &Checkpoint, sparse: &[u32]) {
        self.nf = ck.nf as usize;
        self.keys = ck.keys as usize;
        for (cur, pos) in self.sparse.iter_mut().zip(sparse) {
            cur.pos = *pos as usize;
        }
    }

    /// The cursor of one sparse key's column.
    fn sparse_cur(&mut self, key_ix: u64) -> Result<&mut SparseCur> {
        match self.sparse_keys.binary_search(&key_ix) {
            Ok(i) => Ok(&mut self.sparse[i]),
            Err(_) => Err(TsdbError::Corrupt("missing sparse column")),
        }
    }
}

impl SegmentCursor {
    /// Decode the next event; `None` at the end of the segment.  Corrupt
    /// in-memory data is unreachable (segments are checksummed at load),
    /// so decode errors surface as `Some(Err)` only for defensive depth.
    pub fn next_event(&mut self) -> Option<Result<(u64, Event)>> {
        if self.state.decoded >= self.seg.len() {
            return None;
        }
        Some(match &self.seg.repr {
            Repr::Rows(_) => decode_event(&self.seg, &mut self.state),
            Repr::Cols(_) => decode_event_cols(&self.seg, &mut self.state),
        })
    }

    /// The segment this cursor reads.
    pub(crate) fn segment(&self) -> &std::sync::Arc<Segment> {
        &self.seg
    }
}

/// Decode one event from a legacy row-major stream, advancing the cursor
/// state only on success.
fn decode_event(seg: &Segment, st: &mut CursorState) -> Result<(u64, Event)> {
    let data: &[u8] = match &seg.repr {
        Repr::Rows(data) => data,
        Repr::Cols(_) => unreachable!("row decode on a columnar segment"),
    };
    let mut pos = st.pos;
    let mut pred = st.pred;
    let ts = pred.ts(data, &mut pos, st.decoded)?;
    let seq = pred.seq(data, &mut pos)?;
    let level = *data.get(pos).ok_or(TsdbError::Corrupt("truncated level"))?;
    pos += 1;
    let level = binary::level_from_code(level).map_err(|_| TsdbError::Corrupt("bad level code"))?;
    let host = dict_str(&seg.dict, data, &mut pos)?;
    let program = dict_str(&seg.dict, data, &mut pos)?;
    let event_type = dict_str(&seg.dict, data, &mut pos)?;
    let n_fields = get_uvarint(data, &mut pos)? as usize;
    let mut fields = Vec::with_capacity(n_fields);
    for _ in 0..n_fields {
        let key = dict_str(&seg.dict, data, &mut pos)?;
        let tag = *data.get(pos).ok_or(TsdbError::Corrupt("truncated tag"))?;
        pos += 1;
        let value = match tag {
            TAG_UINT => Value::UInt(get_uvarint(data, &mut pos)?),
            TAG_INT => Value::Int(get_ivarint(data, &mut pos)?),
            TAG_FLOAT => Value::Float(f64::from_le_bytes(get_bytes::<8>(data, &mut pos)?)),
            TAG_BOOL => {
                let b = *data.get(pos).ok_or(TsdbError::Corrupt("truncated bool"))?;
                pos += 1;
                Value::Bool(b != 0)
            }
            TAG_STR => Value::Str(dict_str(&seg.dict, data, &mut pos)?),
            _ => return Err(TsdbError::Corrupt("unknown value tag")),
        };
        fields.push((key, value));
    }
    st.pos = pos;
    st.pred = pred;
    st.decoded += 1;
    Ok((
        seq,
        Event {
            timestamp: Timestamp::from_micros(ts),
            host,
            program,
            level,
            event_type,
            fields,
        },
    ))
}

/// Decode one event from the columnar regions, advancing every column
/// position by one row.
fn decode_event_cols(seg: &Segment, st: &mut CursorState) -> Result<(u64, Event)> {
    let cols = match &seg.repr {
        Repr::Cols(cols) => cols,
        Repr::Rows(_) => unreachable!("column decode on a row-major segment"),
    };
    if st.cols.is_none() {
        st.cols = Some(Box::new(ColsPos::init(cols)?));
    }
    let r = st.decoded;
    let cp = st.cols.as_mut().expect("initialized above");
    let ts = st.pred.ts(&cols.ts, &mut cp.ts, r)?;
    let seq = st.pred.seq(&cols.seqs, &mut cp.seqs)?;
    let level = *cols
        .levels
        .get(r)
        .ok_or(TsdbError::Corrupt("truncated level column"))?;
    let level = binary::level_from_code(level).map_err(|_| TsdbError::Corrupt("bad level code"))?;
    let host = dict_str(&seg.dict, &cols.host_ix, &mut cp.host)?;
    let program = dict_str(&seg.dict, &cols.prog_ix, &mut cp.prog)?;
    let event_type = dict_str(&seg.dict, &cols.type_ix, &mut cp.ty)?;
    let val = if bitmap_get(&cols.val_present, r) {
        Some(f64::from_le_bytes(get_bytes::<8>(
            &cols.vals,
            &mut cp.vals,
        )?))
    } else {
        None
    };
    let mut fields = Vec::new();
    walk_fields(
        &seg.dict,
        cols,
        cp,
        val,
        bitmap_get(&cols.val_float, r),
        Some(&mut fields),
    )?;
    st.decoded += 1;
    Ok((
        seq,
        Event {
            timestamp: Timestamp::from_micros(ts),
            host,
            program,
            level,
            event_type,
            fields,
        },
    ))
}

/// Walk one row's key list and sparse values from the cursors in `cp`:
/// push its fields onto `out` when given, else skip them with position
/// arithmetic only (no dictionary string is cloned).  `val` is the row's
/// typed `VAL` reading, which stands in for its first `VAL` field when
/// `val_is_float`.
fn walk_fields(
    dict: &[String],
    cols: &ColData,
    cp: &mut ColsPos,
    val: Option<f64>,
    val_is_float: bool,
    mut out: Option<&mut Vec<(String, Value)>>,
) -> Result<()> {
    let n_fields = get_uvarint(&cols.nfields, &mut cp.nf)? as usize;
    if let Some(out) = out.as_deref_mut() {
        out.reserve_exact(n_fields);
    }
    let mut saw_val = false;
    for _ in 0..n_fields {
        let key_ix = get_uvarint(&cols.keys, &mut cp.keys)?;
        let key = dict
            .get(key_ix as usize)
            .ok_or(TsdbError::Corrupt("dictionary index out of range"))?;
        if !saw_val && key == jamm_ulm::keys::VALUE {
            saw_val = true;
            if val_is_float {
                if let Some(out) = out.as_deref_mut() {
                    let v = val.ok_or(TsdbError::Corrupt("float VAL bit without typed value"))?;
                    out.push((key.clone(), Value::Float(v)));
                }
                continue;
            }
        }
        let cur = cp.sparse_cur(key_ix)?;
        match out.as_deref_mut() {
            Some(out) => out.push((key.clone(), read_sparse_value(dict, &cols.sparse, cur)?)),
            None => skip_sparse_value(&cols.sparse, cur)?,
        }
    }
    Ok(())
}

/// Read one `tag + payload` entry from a sparse column.
fn read_sparse_value(dict: &[String], data: &[u8], cur: &mut SparseCur) -> Result<Value> {
    if cur.pos >= cur.end {
        return Err(TsdbError::Corrupt("sparse column exhausted"));
    }
    let tag = data[cur.pos];
    cur.pos += 1;
    let value = match tag {
        TAG_UINT => Value::UInt(get_uvarint(data, &mut cur.pos)?),
        TAG_INT => Value::Int(get_ivarint(data, &mut cur.pos)?),
        TAG_FLOAT => Value::Float(f64::from_le_bytes(get_bytes::<8>(data, &mut cur.pos)?)),
        TAG_BOOL => {
            let b = *data
                .get(cur.pos)
                .ok_or(TsdbError::Corrupt("truncated bool"))?;
            cur.pos += 1;
            Value::Bool(b != 0)
        }
        TAG_STR => Value::Str(dict_str(dict, data, &mut cur.pos)?),
        _ => return Err(TsdbError::Corrupt("unknown value tag")),
    };
    Ok(value)
}

/// Skip one `tag + payload` entry in a sparse column — the late-
/// materialization fast path for rows the filter rejected: no dictionary
/// lookup, no `String`, just position arithmetic.
fn skip_sparse_value(data: &[u8], cur: &mut SparseCur) -> Result<()> {
    if cur.pos >= cur.end {
        return Err(TsdbError::Corrupt("sparse column exhausted"));
    }
    let tag = data[cur.pos];
    cur.pos += 1;
    match tag {
        TAG_UINT | TAG_STR => {
            get_uvarint(data, &mut cur.pos)?;
        }
        TAG_INT => {
            get_ivarint(data, &mut cur.pos)?;
        }
        TAG_FLOAT => {
            get_bytes::<8>(data, &mut cur.pos)?;
        }
        TAG_BOOL => {
            if cur.pos >= data.len() {
                return Err(TsdbError::Corrupt("truncated bool"));
            }
            cur.pos += 1;
        }
        _ => return Err(TsdbError::Corrupt("unknown value tag")),
    }
    Ok(())
}

/// Resolve a dictionary reference from a data stream.
fn dict_str(dict: &[String], data: &[u8], pos: &mut usize) -> Result<String> {
    let idx = get_uvarint(data, pos)? as usize;
    dict.get(idx)
        .cloned()
        .ok_or(TsdbError::Corrupt("dictionary index out of range"))
}

// ---------------------------------------------------------------------------
// Batched columnar scan
// ---------------------------------------------------------------------------

/// How a [`ColScan`] filters each decoded batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColMode {
    /// The plan's batch evaluation is exact ([`Plan::batch_definite`]):
    /// selected rows *are* the matches, and the scan's merge loop skips
    /// the row-at-a-time re-check for rows from this source.
    Exact,
    /// The plan carries attribute leaves the columns can't decide: batch
    /// evaluation selects a superset, and survivors are re-checked
    /// row-wise after materialization.
    Superset,
    /// The plan is stateful: batch-select by the pushdown [`Facts`] only,
    /// so *every* facts-admissible row reaches the row evaluator in merge
    /// order and per-series memory sees exactly the stream the row-
    /// oriented scan would have fed it.
    FactsOnly,
}

/// Rows per [`ColScan`] decode batch: a whole number of directory words.
const COL_BATCH: usize = 1024;

/// A scan-optimized reader over one columnar segment.
///
/// On its first call it turns the plan's pushdown [`Facts`] into the
/// segment's *candidate words* through the row directory — the catalog's
/// time, level, host and type tiers applied per 64-row word.  It then
/// seeks straight to candidate words, decodes only their fixed columns a
/// batch at a time, evaluates the plan once per batch via
/// [`Plan::eval_batch`], and walks key lists and sparse values only in
/// words holding a selected row, materializing just the selected rows
/// (late materialization).  Rejected words cost nothing.
#[derive(Debug)]
pub struct ColScan {
    seg: std::sync::Arc<Segment>,
    /// Candidate words as a bitmap over the segment's words, computed from
    /// the plan's facts on the first batch.
    cands: Option<Vec<u64>>,
    /// The next word to consider.
    next_word: usize,
    /// Column cursors (opened on the first batch) and predictor state; the
    /// fixed columns stand at the first row of word `at_word`.
    pos: Option<Box<ColsPos>>,
    pred: Predictor,
    at_word: usize,
    /// Segment words decoded into the current batch, in order: batch row
    /// `i` is row `i % 64` of word `words[i / 64]`.
    words: Vec<usize>,
    /// Decoded fixed columns for the current batch (reused).
    ts: Vec<u64>,
    seqs: Vec<u64>,
    level_codes: Vec<u8>,
    levels_sev: Vec<u8>,
    hosts: Vec<u32>,
    progs: Vec<u32>,
    types: Vec<u32>,
    vals: Vec<f64>,
    present: Vec<u64>,
    floats: Vec<u64>,
    sel: Selection,
    scratch: BatchScratch,
    /// Materialized matches awaiting the merge loop.
    out: std::collections::VecDeque<(u64, Event)>,
    done: bool,
}

impl ColScan {
    fn new(seg: std::sync::Arc<Segment>) -> ColScan {
        ColScan {
            seg,
            cands: None,
            next_word: 0,
            pos: None,
            pred: Predictor::default(),
            at_word: 0,
            words: Vec::new(),
            ts: Vec::new(),
            seqs: Vec::new(),
            level_codes: Vec::new(),
            levels_sev: Vec::new(),
            hosts: Vec::new(),
            progs: Vec::new(),
            types: Vec::new(),
            vals: Vec::new(),
            present: Vec::new(),
            floats: Vec::new(),
            sel: Selection::new(),
            scratch: BatchScratch::new(),
            out: std::collections::VecDeque::new(),
            done: false,
        }
    }

    /// The next row surviving the batch filter, in `(timestamp, sequence)`
    /// order; `None` when no candidate word is left.
    pub fn next_match(&mut self, plan: &Plan, mode: ColMode) -> Option<Result<(u64, Event)>> {
        loop {
            if let Some(hit) = self.out.pop_front() {
                return Some(Ok(hit));
            }
            if self.done {
                return None;
            }
            if let Err(e) = self.fill_batch(plan, mode) {
                self.done = true;
                return Some(Err(e));
            }
        }
    }

    /// Decode the next batch of candidate words, filter it, and
    /// materialize the survivors into `out`; sets `done` when no candidate
    /// word is left.
    fn fill_batch(&mut self, plan: &Plan, mode: ColMode) -> Result<()> {
        let seg = &*self.seg;
        let cols = match &seg.repr {
            Repr::Cols(cols) => cols,
            Repr::Rows(_) => unreachable!("ColScan over a row-major segment"),
        };
        let dir = cols
            .dir
            .as_ref()
            .expect("ColScan is only opened over segments with a row directory");
        if self.pos.is_none() {
            self.pos = Some(Box::new(ColsPos::init(cols)?));
        }
        let cands = self.cands.get_or_insert_with(|| {
            dir.candidates(&seg.dict, seg.catalog.max_ts.as_micros(), plan.facts())
        });

        self.words.clear();
        let n_words = dir.words.len();
        let mut w = self.next_word;
        while w < n_words && self.words.len() < COL_BATCH / WORD_ROWS {
            let rest = cands[w / 64] >> (w % 64);
            if rest == 0 {
                w = (w / 64 + 1) * 64;
                continue;
            }
            w += rest.trailing_zeros() as usize;
            self.words.push(w);
            w += 1;
        }
        self.next_word = w;
        if self.words.is_empty() {
            self.done = true;
            return Ok(());
        }

        self.ts.clear();
        self.seqs.clear();
        self.level_codes.clear();
        self.levels_sev.clear();
        self.hosts.clear();
        self.progs.clear();
        self.types.clear();
        self.vals.clear();
        self.present.clear();
        self.floats.clear();
        let cp = self.pos.as_mut().expect("opened above");
        for &w in &self.words {
            if self.at_word != w {
                let ck = &dir.words[w];
                cp.seek_fixed(ck);
                self.pred = ck.pred;
            }
            let start = w * WORD_ROWS;
            for r in start..(start + WORD_ROWS).min(seg.len()) {
                self.ts.push(self.pred.ts(&cols.ts, &mut cp.ts, r)?);
                self.seqs.push(self.pred.seq(&cols.seqs, &mut cp.seqs)?);
                let code = *cols
                    .levels
                    .get(r)
                    .ok_or(TsdbError::Corrupt("truncated level column"))?;
                self.level_codes.push(code);
                let level = binary::level_from_code(code)
                    .map_err(|_| TsdbError::Corrupt("bad level code"))?;
                self.levels_sev.push(level.severity());
                self.hosts
                    .push(get_uvarint(&cols.host_ix, &mut cp.host)? as u32);
                self.progs
                    .push(get_uvarint(&cols.prog_ix, &mut cp.prog)? as u32);
                self.types
                    .push(get_uvarint(&cols.type_ix, &mut cp.ty)? as u32);
                self.vals.push(if bitmap_get(&cols.val_present, r) {
                    f64::from_le_bytes(get_bytes::<8>(&cols.vals, &mut cp.vals)?)
                } else {
                    0.0
                });
            }
            self.present.push(bitmap_word(&cols.val_present, w));
            self.floats.push(bitmap_word(&cols.val_float, w));
            self.at_word = w + 1;
        }

        let batch = ColumnBatch {
            ts_micros: &self.ts,
            host_ids: &self.hosts,
            type_ids: &self.types,
            levels: &self.levels_sev,
            values: &self.vals,
            val_present: &self.present,
            dict: &seg.dict,
        };
        match mode {
            ColMode::Exact | ColMode::Superset => {
                plan.eval_batch(&batch, &mut self.sel, &mut self.scratch);
            }
            ColMode::FactsOnly => {
                plan.facts()
                    .eval_batch(&batch, &mut self.sel, &mut self.scratch);
            }
        }

        // Late materialization: only words holding a selected row are
        // walked, from their checkpoint up to their last selected row
        // (key lists and sparse values are sequential within a word);
        // rejected rows on the way pay varint skips.
        let dict_at = |ix: u32| -> Result<String> {
            seg.dict
                .get(ix as usize)
                .cloned()
                .ok_or(TsdbError::Corrupt("dictionary index out of range"))
        };
        for (k, &mask) in self.sel.words().iter().enumerate() {
            if mask == 0 {
                continue;
            }
            let w = self.words[k];
            cp.seek_fields(&dir.words[w], dir.sparse_at(w));
            let last = 63 - mask.leading_zeros() as usize;
            for off in 0..=last {
                let i = k * WORD_ROWS + off;
                let bit = 1u64 << off;
                let val_is_float = self.floats[k] & bit != 0;
                if mask & bit == 0 {
                    walk_fields(&seg.dict, cols, cp, None, val_is_float, None)?;
                    continue;
                }
                let mut fields = Vec::new();
                let val = (self.present[k] & bit != 0).then_some(self.vals[i]);
                walk_fields(&seg.dict, cols, cp, val, val_is_float, Some(&mut fields))?;
                self.out.push_back((
                    self.seqs[i],
                    Event {
                        timestamp: Timestamp::from_micros(self.ts[i]),
                        host: dict_at(self.hosts[i])?,
                        program: dict_at(self.progs[i])?,
                        level: binary::level_from_code(self.level_codes[i])
                            .map_err(|_| TsdbError::Corrupt("bad level code"))?,
                        event_type: dict_at(self.types[i])?,
                        fields,
                    },
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jamm_ulm::Level;
    use std::sync::Arc;

    fn ev(host: &str, ty: &str, t_micros: u64, v: f64) -> Event {
        Event::builder("vmstat", host)
            .level(Level::Usage)
            .event_type(ty)
            .timestamp(Timestamp::from_micros(t_micros))
            .value(v)
            .field("COUNT", 42u64)
            .field("DELTA", -7i64)
            .field("UP", true)
            .field("PEER", "mems.cairn.net")
            .build()
    }

    fn sorted_batch(n: u64) -> Vec<(u64, Event)> {
        (0..n)
            .map(|i| {
                (
                    i + 1,
                    ev(
                        if i % 3 == 0 { "h1" } else { "h2" },
                        if i % 2 == 0 { "CPU_TOTAL" } else { "MEM_FREE" },
                        1_000_000 + i * 250_000, // regular 250ms period
                        i as f64,
                    ),
                )
            })
            .collect()
    }

    #[test]
    fn build_and_cursor_round_trip() {
        let batch = sorted_batch(200);
        let seg = Arc::new(Segment::build(9, &batch));
        assert_eq!(seg.len(), 200);
        assert_eq!(seg.min_seq(), 1);
        assert_eq!(seg.max_seq(), 200);
        let mut cur = seg.cursor();
        for (seq, e) in &batch {
            let (got_seq, got) = cur.next_event().unwrap().unwrap();
            assert_eq!(got_seq, *seq);
            assert_eq!(&got, e);
        }
        assert!(cur.next_event().is_none());
    }

    #[test]
    fn catalog_counts_and_bounds() {
        let batch = sorted_batch(30);
        let seg = Segment::build(1, &batch);
        let c = seg.catalog();
        assert_eq!(c.event_count, 30);
        assert_eq!(c.min_ts, Timestamp::from_micros(1_000_000));
        assert_eq!(c.max_ts, Timestamp::from_micros(1_000_000 + 29 * 250_000));
        assert_eq!(c.hosts.len(), 2);
        assert_eq!(c.event_types.len(), 2);
        assert_eq!(c.hosts.values().sum::<usize>(), 30);
        assert_eq!(c.series.values().sum::<usize>(), 30);
    }

    #[test]
    fn overlaps_prunes_time_host_and_type() {
        let seg = Segment::build(1, &sorted_batch(10));
        let c = seg.catalog().clone();
        let facts = |q: &crate::query::TsdbQuery| q.to_plan().facts().clone();
        use crate::query::TsdbQuery;
        assert!(c.overlaps(&facts(&TsdbQuery::default())));
        assert!(!c.overlaps(&facts(
            &TsdbQuery::default().between(Timestamp::from_secs(100), Timestamp::from_secs(200))
        )));
        assert!(!c.overlaps(&facts(
            &TsdbQuery::default().between(Timestamp::EPOCH, Timestamp::from_micros(1_000_000))
        )));
        assert!(!c.overlaps(&facts(&TsdbQuery::default().host("nowhere"))));
        assert!(c.overlaps(&facts(&TsdbQuery::default().host("h1"))));
        assert!(!c.overlaps(&facts(&TsdbQuery::default().event_type("DISK_IO"))));
    }

    #[test]
    fn overlaps_prunes_by_level_floor_and_series_counts() {
        use jamm_core::query::Predicate;
        let seg = Segment::build(1, &sorted_batch(10)); // all Usage events
        let c = seg.catalog().clone();
        assert_eq!(c.max_level, Level::Usage.severity());
        let warnings = Predicate::parse("(level>=warning)").unwrap().compile();
        assert!(!c.overlaps(warnings.facts()), "no warnings stored here");
        let usage = Predicate::parse("(level>=usage)").unwrap().compile();
        assert!(c.overlaps(usage.facts()));

        // h1 only ever emits CPU_TOTAL (i % 3 == 0 implies i % 2 == 0 is
        // not guaranteed — check the batch invariant first).
        assert!(c
            .series
            .contains_key(&("h1".to_string(), "CPU_TOTAL".to_string())));
        // The segment has host h2 and type CPU_TOTAL, but if a particular
        // (host, type) pairing is absent the series tier prunes it.
        let absent = c
            .hosts
            .keys()
            .flat_map(|h| c.event_types.keys().map(move |t| (h.clone(), t.clone())))
            .find(|pair| !c.series.contains_key(pair));
        if let Some((h, t)) = absent {
            let q = Predicate::parse(&format!("(&(host={h})(type={t}))"))
                .unwrap()
                .compile();
            assert!(!c.overlaps(q.facts()), "series tier must prune ({h}, {t})");
        }
        // A mixed-level batch records the max.
        let mut batch = sorted_batch(4);
        batch[2].1.level = Level::Error;
        let seg = Segment::build(2, &batch);
        assert_eq!(seg.catalog().max_level, Level::Error.severity());
        assert!(seg.catalog().overlaps(warnings.facts()));
    }

    #[test]
    fn series_tier_lookups_answer_like_the_linear_scan() {
        use jamm_core::query::Predicate;
        // h1 reports A and B, h2 only A: (h2, B) is a series-only miss.
        let batch = vec![
            (1, ev("h1", "A", 10, 0.0)),
            (2, ev("h1", "B", 20, 0.0)),
            (3, ev("h2", "A", 30, 0.0)),
        ];
        let c = Segment::build(1, &batch).catalog().clone();
        // The series tier as it was: a walk over every catalog series.
        let linear = |facts: &Facts| match (&facts.hosts, &facts.types) {
            (Some(hosts), Some(types)) => c.series.keys().any(|(h, t)| {
                hosts.iter().any(|hs| hs.as_str() == h) && types.iter().any(|ts| ts.as_str() == t)
            }),
            _ => true,
        };
        for (text, want) in [
            ("(&(host=h1)(type=A))", true),
            ("(&(host=h2)(type=B))", false),
            ("(&(host=h3)(type=A))", false),
            ("(&(host=h1)(type=C))", false),
            ("(&(|(host=h2)(host=h3))(|(type=B)(type=A)))", true),
            ("(&(|(host=h2)(host=h3))(type=B))", false),
            ("(host=h2)", true),
            ("(type=B)", true),
        ] {
            let plan = Predicate::parse(text).unwrap().compile();
            assert_eq!(c.overlaps(plan.facts()), want, "{text}");
            // Set tiers first: where they pass, the series tier decides.
            let sets_pass = plan
                .facts()
                .hosts
                .as_ref()
                .is_none_or(|hs| hs.iter().any(|h| c.hosts.contains_key(h.as_str())))
                && plan
                    .facts()
                    .types
                    .as_ref()
                    .is_none_or(|ts| ts.iter().any(|t| c.event_types.contains_key(t.as_str())));
            if sets_pass {
                assert_eq!(linear(plan.facts()), want, "{text}");
            }
        }
    }

    #[test]
    fn file_round_trip_and_checksum() {
        let seg = Segment::build(3, &sorted_batch(50));
        let bytes = seg.to_bytes();
        let back = Segment::from_bytes(&bytes).unwrap();
        assert_eq!(back.catalog(), seg.catalog());
        assert_eq!(back.min_seq(), seg.min_seq());
        assert_eq!(back.max_seq(), seg.max_seq());
        let mut a = Arc::new(seg).cursor();
        let mut b = Arc::new(back).cursor();
        while let Some(x) = a.next_event() {
            assert_eq!(x.unwrap(), b.next_event().unwrap().unwrap());
        }

        let mut corrupted = bytes.clone();
        let mid = corrupted.len() / 2;
        corrupted[mid] ^= 0xFF;
        assert!(matches!(
            Segment::from_bytes(&corrupted),
            Err(TsdbError::Corrupt(_))
        ));
        assert!(Segment::from_bytes(&bytes[..10]).is_err());
    }

    #[test]
    fn legacy_jsg1_segments_still_load_and_are_never_level_pruned() {
        use jamm_core::query::Predicate;
        // all Usage level; JSG2-shaped so stripping max_level yields JSG1
        let seg = Segment::build_rows_legacy(7, &sorted_batch(25));
        let bytes = seg.to_bytes();
        // Re-encode as the previous generation: JSG1 magic, no max_level
        // byte (it sits right after the sixth leading varint), fresh
        // checksum.
        let body = &bytes[4..bytes.len() - 8];
        let mut pos = 0usize;
        for _ in 0..6 {
            get_uvarint(body, &mut pos).unwrap(); // id..max_ts
        }
        let mut v1_body = body[..pos].to_vec();
        v1_body.extend_from_slice(&body[pos + 1..]); // skip max_level
        let mut v1 = Vec::with_capacity(v1_body.len() + 12);
        v1.extend_from_slice(SEGMENT_MAGIC_V1);
        v1.extend_from_slice(&v1_body);
        v1.extend_from_slice(&fnv64(&v1_body).to_le_bytes());

        let back = Segment::from_bytes(&v1).expect("JSG1 stays readable");
        assert_eq!(back.len(), seg.len());
        assert_eq!(back.catalog().hosts, seg.catalog().hosts);
        assert_eq!(back.catalog().max_level, u8::MAX, "unknown = all levels");
        // Unknown level data must never be pruned by a severity floor...
        let errors = Predicate::parse("(level>=error)").unwrap().compile();
        assert!(back.catalog().overlaps(errors.facts()));
        // ...and the events themselves still decode identically.
        let mut a = Arc::new(seg).cursor();
        let mut b = Arc::new(back).cursor();
        while let Some(x) = a.next_event() {
            assert_eq!(x.unwrap(), b.next_event().unwrap().unwrap());
        }
    }

    #[test]
    fn compression_beats_binary_frames_on_regular_streams() {
        let batch = sorted_batch(1_000);
        let seg = Segment::build(1, &batch);
        let frames: usize = batch.iter().map(|(_, e)| binary::encode(e).len()).sum();
        let compressed = seg.to_bytes().len();
        assert!(
            compressed * 3 < frames,
            "expected >3x compression, got {frames} -> {compressed}"
        );
    }

    #[test]
    fn irregular_timestamps_still_round_trip() {
        // Jittery, repeated and out-of-pattern timestamps (still sorted).
        let ts = [
            0u64,
            0,
            1,
            1_000_000,
            1_000_001,
            1_000_001,
            u32::MAX as u64 * 3,
        ];
        let batch: Vec<(u64, Event)> = ts
            .iter()
            .enumerate()
            .map(|(i, &t)| (i as u64 + 10, ev("h", "X", t, 0.0)))
            .collect();
        let seg = Arc::new(Segment::build(1, &batch));
        let mut cur = seg.cursor();
        for (seq, e) in &batch {
            let (got_seq, got) = cur.next_event().unwrap().unwrap();
            assert_eq!((got_seq, got.timestamp), (*seq, e.timestamp));
        }
    }

    #[test]
    fn write_and_read_dir() {
        let dir = crate::test_util::TempDir::new("segment-io");
        let seg = Segment::build(12, &sorted_batch(20));
        let path = seg.write_to_dir(dir.path()).unwrap();
        assert!(path.ends_with("seg-00000012.jseg"));
        let back = Segment::read_from_file(&path).unwrap();
        assert_eq!(back.catalog(), seg.catalog());
    }

    #[test]
    fn jsg2_fixture_written_by_pr5_era_code_still_opens_and_scans() {
        // `build_rows_legacy` reproduces the exact PR 5-era encoder, so
        // its bytes are a faithful JSG2 fixture: JSG2 magic, row-major
        // stream after the dictionary.
        let batch = sorted_batch(40);
        let legacy = Segment::build_rows_legacy(4, &batch);
        let bytes = legacy.to_bytes();
        assert_eq!(&bytes[..4], SEGMENT_MAGIC_V2);

        let back = Arc::new(Segment::from_bytes(&bytes).expect("JSG2 stays readable"));
        assert!(!back.is_columnar(), "legacy bytes load as row-major");
        assert_eq!(back.catalog(), legacy.catalog());
        // Events decode identically to the same batch built columnar.
        let modern = Arc::new(Segment::build(4, &batch));
        assert!(modern.is_columnar());
        let mut a = back.cursor();
        let mut b = modern.cursor();
        while let Some(x) = a.next_event() {
            assert_eq!(x.unwrap(), b.next_event().unwrap().unwrap());
        }
        assert!(b.next_event().is_none());
        // Round-trips through a file like any current segment.
        let dir = crate::test_util::TempDir::new("segment-jsg2");
        std::fs::write(dir.path().join(Segment::file_name(4)), &bytes).unwrap();
        let from_file = Segment::read_from_file(&dir.path().join(Segment::file_name(4))).unwrap();
        assert_eq!(from_file.catalog(), legacy.catalog());
        // Re-serializing a loaded legacy segment preserves its generation.
        assert_eq!(&from_file.to_bytes()[..4], SEGMENT_MAGIC_V2);
    }

    #[test]
    fn unknown_future_segment_version_errors_clearly() {
        let mut bytes = Segment::build(1, &sorted_batch(5)).to_bytes();
        assert_eq!(&bytes[..4], SEGMENT_MAGIC);
        bytes[3] = b'9'; // "JSG9": a generation this build does not know
        let err = Segment::from_bytes(&bytes).expect_err("future version");
        assert!(
            err.to_string().contains("unsupported segment version"),
            "got {err}"
        );
        // Non-JSG garbage is still plain corruption, not a version error.
        bytes[0] = b'X';
        let err = Segment::from_bytes(&bytes).expect_err("garbage");
        assert!(err.to_string().contains("bad segment magic"), "got {err}");
    }

    #[test]
    fn columnar_round_trip_covers_field_shapes() {
        // Duplicate keys, non-float VAL, float VAL, missing VAL, numeric
        // string VAL, NaN-free mixed payloads — the shapes the sparse
        // key columns and the typed-VAL reconstruction must preserve
        // exactly, in order.
        let mk = |t: u64, fields: Vec<(&str, Value)>| {
            let mut b = Event::builder("prog", "h")
                .event_type("T")
                .timestamp(Timestamp::from_micros(t));
            for (k, v) in fields {
                b = b.field(k, v);
            }
            b.build()
        };
        let batch: Vec<(u64, Event)> = vec![
            (
                1,
                mk(10, vec![("VAL", Value::Float(1.5)), ("N", Value::UInt(7))]),
            ),
            (
                2,
                mk(
                    20,
                    vec![("VAL", Value::UInt(9)), ("VAL", Value::Float(2.5))],
                ),
            ),
            (
                3,
                mk(
                    30,
                    vec![("A", Value::Str("x".into())), ("A", Value::Str("y".into()))],
                ),
            ),
            (
                4,
                mk(40, vec![("N", Value::Int(-3)), ("B", Value::Bool(true))]),
            ),
            (5, mk(50, vec![("VAL", Value::Str("4.25".into()))])),
            (6, mk(60, vec![])),
        ];
        let seg = Arc::new(Segment::build(1, &batch));
        // Sequential cursor reproduces every event bit-for-bit.
        let mut cur = seg.cursor();
        for (seq, e) in &batch {
            let (got_seq, got) = cur.next_event().unwrap().unwrap();
            assert_eq!((got_seq, &got), (*seq, e));
        }
        assert!(cur.next_event().is_none());
        // File round trip preserves the columnar generation.
        let back = Arc::new(Segment::from_bytes(&seg.to_bytes()).unwrap());
        assert!(back.is_columnar());
        let mut cur = back.cursor();
        for (seq, e) in &batch {
            let (got_seq, got) = cur.next_event().unwrap().unwrap();
            assert_eq!((got_seq, &got), (*seq, e));
        }
    }

    #[test]
    fn jsg3_bytes_written_by_build_are_unchanged() {
        // The row directory lives in memory only: the file form of a
        // freshly built segment must stay byte for byte what this
        // generation of the format has always written.
        let mut irregular = sorted_batch(700);
        irregular[3].1.level = Level::Error;
        irregular[130]
            .1
            .fields
            .push(("EXTRA".into(), Value::Str("x".into())));
        for (i, (_, e)) in irregular.iter_mut().enumerate() {
            e.timestamp = Timestamp::from_micros(5_000_000 + (i as u64 * 7919) % 1_000);
        }
        irregular.sort_by_key(|(seq, e)| (e.timestamp, *seq));
        for (batch, want) in [
            (sorted_batch(200), 4120217992527149459u64),
            (irregular, 8990974577409860484),
        ] {
            let bytes = Segment::build(5, &batch).to_bytes();
            assert_eq!(fnv64(&bytes), want, "{} rows", batch.len());
        }
    }

    #[test]
    fn col_scan_matches_cursor_under_every_mode() {
        use jamm_core::query::Predicate;
        let mut batch = sorted_batch(300);
        batch[7].1.level = Level::Error;
        let seg = Arc::new(Segment::build(1, &batch));
        for (text, want_mode) in [
            ("(&(host=h1)(type=CPU_TOTAL)(val>=30))", ColMode::Exact),
            ("(&(host=h1)(PEER=mems.cairn.net))", ColMode::Superset),
            ("(onchange)", ColMode::FactsOnly),
        ] {
            let plan = Predicate::parse(text).unwrap().compile();
            let mode = if plan.is_stateful() {
                ColMode::FactsOnly
            } else if plan.batch_definite() {
                ColMode::Exact
            } else {
                ColMode::Superset
            };
            assert_eq!(mode, want_mode, "{text}");
            // Oracle: row-at-a-time over the sequential cursor with a
            // fresh plan clone (fresh stateful memory).
            let oracle_plan = plan.clone();
            let mut cur = seg.cursor();
            let mut want = Vec::new();
            while let Some(item) = cur.next_event() {
                let (seq, e) = item.unwrap();
                if oracle_plan.facts().admits(&e) && oracle_plan.eval(&e) {
                    want.push((seq, e));
                }
            }
            // Columnar: batch filter + (except Exact) row re-check, the
            // same shape ScanIter runs.
            let mut scan = seg.col_scan().expect("columnar");
            let col_plan = plan.clone();
            let mut got = Vec::new();
            while let Some(item) = scan.next_match(&col_plan, mode) {
                let (seq, e) = item.unwrap();
                if mode == ColMode::Exact || col_plan.eval(&e) {
                    got.push((seq, e));
                }
            }
            assert_eq!(got, want, "{text}");
        }
    }

    fn dir_of(seg: &Segment) -> &RowDirectory {
        match &seg.repr {
            Repr::Cols(cols) => cols.dir.as_ref().expect("directory"),
            Repr::Rows(_) => panic!("row-major segment"),
        }
    }

    /// A fleet-shaped step: every (host, type) series reporting once, all
    /// at one timestamp, in publish order (host-major).
    fn fleet_step(hosts: usize, types: usize, step: u64) -> Vec<(u64, Event)> {
        let ts = Timestamp::from_secs(954_374_400 + step * 10);
        (0..hosts * types)
            .map(|i| {
                let e = Event::builder(
                    "synth",
                    format!("h{:03}.site{}.grid", i / types, (i / types) % 8),
                )
                .level(if i % 97 == 0 {
                    Level::Error
                } else {
                    Level::Usage
                })
                .event_type(format!("TYPE_{:02}", i % types))
                .timestamp(ts)
                .field(jamm_ulm::keys::SENSOR, "synth")
                .value((i % 100) as f64)
                .build();
                (step * 1_000_000 + i as u64, e)
            })
            .collect()
    }

    #[test]
    fn directory_rebuilt_at_load_equals_the_one_recorded_while_encoding() {
        // Sparse keys that first appear mid-segment, in a later word, and
        // not at all in some words; a partial last word; irregular time.
        let mut batch = sorted_batch(333);
        for (i, (_, e)) in batch.iter_mut().enumerate() {
            if i >= 150 && i % 5 == 0 {
                e.fields.push(("LATE".into(), Value::UInt(i as u64)));
            }
            if i % 70 == 3 {
                e.fields.insert(0, ("VAL".into(), Value::Int(-(i as i64))));
            }
            e.timestamp =
                Timestamp::from_micros(1_000 + (i as u64).pow(2) % 50_000 + i as u64 * 60_000);
        }
        batch.sort_by_key(|(seq, e)| (e.timestamp, *seq));
        for batch in [batch, sorted_batch(1), sorted_batch(64), sorted_batch(65)] {
            let seg = Segment::build(2, &batch);
            let back = Segment::from_bytes(&seg.to_bytes()).unwrap();
            assert_eq!(dir_of(&back), dir_of(&seg), "{} rows", batch.len());
            assert_eq!(dir_of(&seg).words.len(), batch.len().div_ceil(WORD_ROWS));
        }
    }

    #[test]
    fn directory_costs_at_most_two_bytes_per_row_on_the_fleet_shape() {
        let batch = fleet_step(256, 16, 7);
        let seg = Segment::build(1, &batch);
        let per_row = dir_of(&seg).heap_bytes() as f64 / seg.len() as f64;
        assert!(per_row <= 2.0, "{per_row:.3} bytes per row");
        // Each host's rows share one word; each type is in every word.
        let dir = dir_of(&seg);
        let words_of = |name: &str| {
            let id = seg.dict.iter().position(|d| d == name).unwrap();
            let mut bits = vec![0u64; dir.words.len().div_ceil(64)];
            dir.or_posting(id, &mut bits);
            bits.iter().map(|b| b.count_ones()).sum::<u32>()
        };
        assert_eq!(words_of("h005.site5.grid"), 1);
        assert_eq!(words_of("TYPE_03"), 64);
    }

    #[test]
    fn per_word_pruning_matches_the_cursor_oracle() {
        use jamm_core::query::Predicate;
        // Several fleet steps in one segment, then shuffled arrival order
        // within each timestamp so series are not contiguous.
        let mut batch: Vec<(u64, Event)> = (0..3).flat_map(|s| fleet_step(20, 7, s)).collect();
        let n = batch.len();
        for i in 0..n {
            let j = (i * 7919 + 13) % n;
            let (si, sj) = (batch[i].0, batch[j].0);
            batch[i].0 = sj;
            batch[j].0 = si;
        }
        batch.sort_by_key(|(seq, e)| (e.timestamp, *seq));
        let seg = Arc::new(Segment::build(1, &batch));
        let t1 = 954_374_410;
        for text in [
            "(&)".to_string(),
            "(&(host=h003.site3.grid)(type=TYPE_02))".to_string(),
            "(|(host=h001.site1.grid)(host=h017.site1.grid))".to_string(),
            "(type=TYPE_06)".to_string(),
            "(level>=error)".to_string(),
            format!("(&(time>={t1}s)(time<{}s))", t1 + 10),
            format!("(&(host=h004.site4.grid)(time>={t1}s))"),
            format!("(&(type=TYPE_01)(time<{t1}s)(val>=40))"),
            "(&(type=TYPE_05)(onchange))".to_string(),
            "(&(host=h002.site2.grid)(sensor=synth))".to_string(),
            "(host=nowhere)".to_string(),
            "(limit=5)".to_string(),
        ] {
            let plan = Predicate::parse(&text).unwrap().compile();
            let mode = if plan.is_stateful() {
                ColMode::FactsOnly
            } else if plan.batch_definite() {
                ColMode::Exact
            } else {
                ColMode::Superset
            };
            let oracle = plan.clone();
            let mut cur = seg.cursor();
            let mut want = Vec::new();
            while let Some(item) = cur.next_event() {
                let (seq, e) = item.unwrap();
                if oracle.eval(&e) {
                    want.push((seq, e));
                }
            }
            let mut scan = seg.col_scan().expect("columnar");
            let col_plan = plan.clone();
            let mut got = Vec::new();
            while let Some(item) = scan.next_match(&col_plan, mode) {
                let (seq, e) = item.unwrap();
                if mode == ColMode::Exact || col_plan.eval(&e) {
                    got.push((seq, e));
                }
            }
            assert_eq!(got, want, "{text}");
        }
    }
}
