//! Durable on-disk backing for the [`AlignmentStore`](super::AlignmentStore)
//! (DESIGN.md §16): an append-only novelty log plus periodically compacted
//! snapshots, so warm starts survive process restarts.
//!
//! The layer is std-only and deliberately small:
//!
//! - **Novelty log** (`novelty.log`) — every entry the store caches is
//!   appended as one length-prefixed frame whose payload, the document's
//!   v1 record (store key, fingerprints, extraction intermediates and
//!   outputs), is checksummed with the same FNV-1a the content
//!   fingerprints use. Appends are the only write on the hot path.
//! - **Snapshot** (`snapshot-<gen>.briq`) — a compaction of the resident
//!   entries into one file: each entry keeps its record, and the records
//!   are written verbatim, in key order, through a buffered writer into a
//!   temp file, which is fsynced and renamed into place; the log is then
//!   reset. Snapshots happen on graceful drain/exit and when the log
//!   outgrows both the current snapshot and the `compact_log_bytes`
//!   floor. The live set is thus rewritten only after at least as many
//!   bytes of new records (write amplification of ~2× at most), and
//!   recovery reads at most the snapshot plus a log no larger than it.
//! - **Manifest** (`MANIFEST`) — a tiny text file naming the format
//!   version, the model/config fingerprint, and the current snapshot
//!   generation. Any mismatch (foreign file, version bump, retrained
//!   model) marks the directory incompatible: its store files are
//!   rebuilt from scratch rather than trusted.
//! - **Recovery** — stream the snapshot's frames, then the log's, one
//!   record at a time: each payload is read into the buffer its entry
//!   keeps, checksummed, and decoded for its fingerprints and outputs
//!   only (the intermediates are stepped over, not built), and handed to
//!   the store, which takes it in through the insert path a live miss
//!   takes: a later record for a key replaces the earlier one at once,
//!   and a bounded store evicts as records arrive. A torn tail frame
//!   (short header, short payload, or checksum mismatch) truncates the
//!   file at the last valid frame boundary instead of failing:
//!   everything before the tear is served warm, everything after is
//!   recomputed cold.
//!
//! The codec is a bespoke binary encoding, not JSON: the store's
//! contract is *bit* identity, and `briq_json` degrades non-finite
//! floats to `null`. Every `f64` round-trips through `to_bits()`, every
//! string is length-prefixed UTF-8, every enum is a fixed `u8` tag, and
//! every map/set is a `BTree*` whose iteration order is deterministic —
//! so the outputs decode bit-identical to what was encoded, including
//! NaN/∞ values from the non-finite chaos family. Each on-disk type
//! declares its layout once — a `wire_struct!` field list, a
//! `wire_enum!` tag table, or a hand-written `Wire` impl where the layout
//! is not a plain list — and that one declaration drives encoding,
//! decoding and skipping.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::{self, File, OpenOptions};
use std::io::{BufReader, BufWriter, IntoInnerError, Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use briq_table::{Orientation, TableMention, TableMentionKind};
use briq_text::cues::{AggregationKind, ApproxIndicator};
use briq_text::quantity::QuantityMention;
use briq_text::token::{Token, TokenKind};
use briq_text::units::{Currency, Measure, Unit};

use super::{lock, DocEntry, Fingerprint, Miss};
use crate::context::{DocContext, MentionContext, TableContext};
use crate::error::{DegradedAction, Diagnostic, Diagnostics, Stage};
use crate::filtering::{Candidate, FilterStats};
use crate::mention::{Alignment, TextMention};
use crate::pipeline::{AlignOutput, Extracted};

/// On-disk format version. Bumped on any incompatible codec or layout
/// change; a manifest naming a different version marks the whole
/// directory incompatible and it is rebuilt from scratch.
pub const FORMAT_VERSION: u32 = 1;

/// File name of the append-only novelty log inside the store directory.
pub const LOG_FILE: &str = "novelty.log";

/// File name of the manifest inside the store directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// File name of the compacted snapshot for generation `gen` (`gen >= 1`).
pub fn snapshot_file(gen: u64) -> String {
    format!("snapshot-{gen}.briq")
}

/// Magic bytes opening every snapshot/log file.
const MAGIC: [u8; 4] = *b"BQST";

/// First line of the manifest.
const MANIFEST_MAGIC: &str = "briq-store";

/// Fixed binary file header: magic + format version + model fingerprint
/// + snapshot generation.
const HEADER_LEN: u64 = 4 + 4 + 8 + 8;

/// Per-frame header: payload length (u32) + FNV-1a checksum (u64).
const FRAME_HEADER_LEN: usize = 4 + 8;

/// Sanity cap on one frame's payload; anything larger is treated as a
/// corrupt length field (= torn tail).
const MAX_FRAME_BYTES: u32 = 1 << 30;

// ---------------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------------

/// Decode failure: the payload is structurally invalid (short read, bad
/// enum tag, non-UTF-8 string, trailing garbage). Recovery treats it
/// like a checksum mismatch — the frame and everything after it are
/// dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DecodeError(&'static str);

/// Cursor over one frame payload.
struct Dec<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError("overflow"))?;
        let s = self
            .b
            .get(self.pos..end)
            .ok_or(DecodeError("short payload"))?;
        self.pos = end;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    /// A container/string length. Bounded by the remaining payload (every
    /// element occupies at least one byte), so a corrupt length cannot
    /// trigger a huge allocation.
    fn len(&mut self) -> Result<usize, DecodeError> {
        let n = u32::from_le_bytes(self.array()?) as usize;
        if n > self.b.len() - self.pos {
            return Err(DecodeError("length exceeds payload"));
        }
        Ok(n)
    }
}

fn put_len(n: usize, out: &mut Vec<u8>) {
    debug_assert!(n <= u32::MAX as usize);
    out.extend_from_slice(&(n as u32).to_le_bytes());
}

/// One on-disk type: `put` appends its encoding, `get` reads one value
/// back, and `skip` steps over one without building it. Integers are
/// little-endian, lengths `u32`, `usize` widens to `u64`, and floats
/// travel as their IEEE-754 bit patterns.
trait Wire: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn get(d: &mut Dec<'_>) -> Result<Self, DecodeError>;
    /// Step over one encoded value, refusing exactly what `get` refuses,
    /// without allocating. The default decodes and drops the value, which
    /// allocates nothing for the types that use it: integers, floats,
    /// and tags. Strings, containers and structs step over their parts.
    fn skip(d: &mut Dec<'_>) -> Result<(), DecodeError> {
        Self::get(d).map(drop)
    }
}

/// Step over an encoded `Vec<T>`, returning its length.
fn skip_counted<T: Wire>(d: &mut Dec<'_>) -> Result<usize, DecodeError> {
    let n = d.len()?;
    for _ in 0..n {
        T::skip(d)?;
    }
    Ok(n)
}

/// Step over one field of a struct `S`; the projection only names the
/// field's type.
fn skip_field<S, T: Wire>(_field: impl Fn(&S) -> &T, d: &mut Dec<'_>) -> Result<(), DecodeError> {
    T::skip(d)
}

impl Wire for u8 {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn get(d: &mut Dec<'_>) -> Result<u8, DecodeError> {
        Ok(d.take(1)?[0])
    }
}

impl Wire for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn get(d: &mut Dec<'_>) -> Result<u64, DecodeError> {
        d.array().map(u64::from_le_bytes)
    }
}

impl Wire for usize {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
    fn get(d: &mut Dec<'_>) -> Result<usize, DecodeError> {
        usize::try_from(u64::get(d)?).map_err(|_| DecodeError("usize overflow"))
    }
}

impl Wire for f64 {
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }
    fn get(d: &mut Dec<'_>) -> Result<f64, DecodeError> {
        u64::get(d).map(f64::from_bits)
    }
}

impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        put_len(self.len(), out);
        out.extend_from_slice(self.as_bytes());
    }
    fn get(d: &mut Dec<'_>) -> Result<String, DecodeError> {
        let n = d.len()?;
        let s = std::str::from_utf8(d.take(n)?).map_err(|_| DecodeError("invalid utf-8"))?;
        Ok(s.to_string())
    }
    fn skip(d: &mut Dec<'_>) -> Result<(), DecodeError> {
        let n = d.len()?;
        std::str::from_utf8(d.take(n)?)
            .map(drop)
            .map_err(|_| DecodeError("invalid utf-8"))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(d: &mut Dec<'_>) -> Result<(A, B), DecodeError> {
        Ok((A::get(d)?, B::get(d)?))
    }
    fn skip(d: &mut Dec<'_>) -> Result<(), DecodeError> {
        A::skip(d)?;
        B::skip(d)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        put_len(self.len(), out);
        for x in self {
            x.put(out);
        }
    }
    fn get(d: &mut Dec<'_>) -> Result<Vec<T>, DecodeError> {
        let n = d.len()?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::get(d)?);
        }
        Ok(v)
    }
    fn skip(d: &mut Dec<'_>) -> Result<(), DecodeError> {
        skip_counted::<T>(d).map(drop)
    }
}

impl<T: Wire + Ord> Wire for BTreeSet<T> {
    fn put(&self, out: &mut Vec<u8>) {
        put_len(self.len(), out);
        for x in self {
            x.put(out);
        }
    }
    fn get(d: &mut Dec<'_>) -> Result<BTreeSet<T>, DecodeError> {
        let n = d.len()?;
        (0..n).map(|_| T::get(d)).collect()
    }
    fn skip(d: &mut Dec<'_>) -> Result<(), DecodeError> {
        skip_counted::<T>(d).map(drop)
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn put(&self, out: &mut Vec<u8>) {
        put_len(self.len(), out);
        for (k, v) in self {
            k.put(out);
            v.put(out);
        }
    }
    fn get(d: &mut Dec<'_>) -> Result<BTreeMap<K, V>, DecodeError> {
        let n = d.len()?;
        (0..n).map(|_| <(K, V)>::get(d)).collect()
    }
    fn skip(d: &mut Dec<'_>) -> Result<(), DecodeError> {
        skip_counted::<(K, V)>(d).map(drop)
    }
}

/// `Wire` for a struct: its fields in the listed order.
macro_rules! wire_struct {
    ($name:ident { $($field:ident),+ $(,)? }) => {
        impl Wire for $name {
            fn put(&self, out: &mut Vec<u8>) {
                $( self.$field.put(out); )+
            }
            fn get(d: &mut Dec<'_>) -> Result<$name, DecodeError> {
                Ok($name {
                    $( $field: Wire::get(d)?, )+
                })
            }
            fn skip(d: &mut Dec<'_>) -> Result<(), DecodeError> {
                $( skip_field(|s: &$name| &s.$field, d)?; )+
                Ok(())
            }
        }
    };
}

/// `Wire` for a fieldless enum: one `u8` tag per variant.
macro_rules! wire_enum {
    ($name:ident { $($variant:ident = $tag:literal),+ $(,)? }) => {
        impl Wire for $name {
            fn put(&self, out: &mut Vec<u8>) {
                out.push(match self {
                    $( $name::$variant => $tag, )+
                });
            }
            fn get(d: &mut Dec<'_>) -> Result<$name, DecodeError> {
                match u8::get(d)? {
                    $( $tag => Ok($name::$variant), )+
                    _ => Err(DecodeError(concat!("bad ", stringify!($name), " tag"))),
                }
            }
        }
    };
}

wire_enum! { TokenKind { Word = 0, Number = 1, Alphanumeric = 2, Punct = 3, Symbol = 4 } }
wire_enum! { Currency { Usd = 0, Eur = 1, Gbp = 2, Cad = 3, Inr = 4, Jpy = 5, Other = 6 } }
wire_enum! { Measure { Mpge = 0, GramsPerKm = 1, KWh = 2, Mg = 3, Km = 4, Count = 5 } }
wire_enum! { ApproxIndicator {
    Exact = 0, Approximate = 1, UpperBound = 2, LowerBound = 3, None = 4,
} }
wire_enum! { AggregationKind {
    Sum = 0, Difference = 1, Percentage = 2, ChangeRatio = 3, Average = 4, Max = 5, Min = 6,
} }
wire_enum! { Stage {
    Extraction = 0, VirtualCells = 1, Classification = 2, GraphConstruction = 3,
    Resolution = 4, Batch = 5,
} }
wire_enum! { DegradedAction { Skipped = 0, Truncated = 1, Fallback = 2, Cancelled = 3 } }

impl Wire for Unit {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Unit::Currency(c) => {
                out.push(0);
                c.put(out);
            }
            Unit::Percent => out.push(1),
            Unit::BasisPoints => out.push(2),
            Unit::Measure(m) => {
                out.push(3);
                m.put(out);
            }
            Unit::None => out.push(4),
        }
    }
    fn get(d: &mut Dec<'_>) -> Result<Unit, DecodeError> {
        Ok(match u8::get(d)? {
            0 => Unit::Currency(Currency::get(d)?),
            1 => Unit::Percent,
            2 => Unit::BasisPoints,
            3 => Unit::Measure(Measure::get(d)?),
            4 => Unit::None,
            _ => return Err(DecodeError("bad unit")),
        })
    }
}

impl Wire for TableMentionKind {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            TableMentionKind::SingleCell => out.push(0),
            TableMentionKind::Aggregate(a) => {
                out.push(1);
                a.put(out);
            }
        }
    }
    fn get(d: &mut Dec<'_>) -> Result<TableMentionKind, DecodeError> {
        match u8::get(d)? {
            0 => Ok(TableMentionKind::SingleCell),
            1 => Ok(TableMentionKind::Aggregate(AggregationKind::get(d)?)),
            _ => Err(DecodeError("bad table mention kind")),
        }
    }
}

impl Wire for Option<AggregationKind> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(a) => {
                out.push(1);
                a.put(out);
            }
        }
    }
    fn get(d: &mut Dec<'_>) -> Result<Option<AggregationKind>, DecodeError> {
        match u8::get(d)? {
            0 => Ok(None),
            1 => Ok(Some(AggregationKind::get(d)?)),
            _ => Err(DecodeError("bad option tag")),
        }
    }
}

/// One tag for all three forms: `None`, row, column.
impl Wire for Option<Orientation> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(Orientation::Row(i)) => {
                out.push(1);
                i.put(out);
            }
            Some(Orientation::Column(i)) => {
                out.push(2);
                i.put(out);
            }
        }
    }
    fn get(d: &mut Dec<'_>) -> Result<Option<Orientation>, DecodeError> {
        match u8::get(d)? {
            0 => Ok(None),
            1 => Ok(Some(Orientation::Row(usize::get(d)?))),
            2 => Ok(Some(Orientation::Column(usize::get(d)?))),
            _ => Err(DecodeError("bad orientation")),
        }
    }
}

wire_struct! { QuantityMention { raw, value, unnormalized, unit, precision, approx, start, end } }
wire_struct! { TextMention { id, quantity } }
wire_struct! { Token { text, start, end, kind } }
wire_struct! { MentionContext {
    local_weights, sentence_phrases, immediate_words, sentence_words, inferred_aggregation,
    token_index,
} }
wire_struct! { TableContext {
    row_words, col_words, table_words, row_phrases, col_phrases, table_phrases,
} }
wire_struct! { DocContext {
    tokens, paragraph_words, paragraph_word_list, paragraph_phrases, tables, mentions,
} }
wire_struct! { TableMention {
    table, kind, cells, value, unnormalized, raw, unit, precision, orientation,
} }
wire_struct! { Candidate { target, score } }
wire_struct! { FilterStats { total, kept } }
wire_struct! { Alignment { mention_start, mention_end, mention_raw, target, score } }
wire_struct! { Diagnostic { stage, scope, error, action } }
wire_struct! { Diagnostics { items } }

/// Encode the v1 record of a document the store missed: the store key,
/// the fingerprints `config_fp`, `text_fp` and `aggregate_fp`, then
/// `table_fps`, the text mentions, the text context (its table slot
/// empty), the table contexts, the targets, the extraction diagnostics,
/// one slot per mention (`fp`, kept candidates, filter delta), and the
/// alignments, diagnostics and filter totals. The slots only a retired
/// per-mention replay read — `aggregate_fp`, and each mention's `fp` and
/// filter delta — are written as `0` and empty.
pub(crate) fn encode_record(key: u64, miss: &Miss, mut x: Extracted, out: &AlignOutput) -> Vec<u8> {
    let tables = std::mem::take(&mut x.ctx.tables);
    let mut b = Vec::new();
    for fp in [key, miss.config_fp, miss.text_fp, 0] {
        fp.put(&mut b);
    }
    miss.table_fps.put(&mut b);
    x.mentions.put(&mut b);
    x.ctx.put(&mut b);
    tables.put(&mut b);
    x.targets.put(&mut b);
    x.diags.put(&mut b);
    put_len(out.candidates.len(), &mut b);
    for c in &out.candidates {
        0u64.put(&mut b);
        c.put(&mut b);
        FilterStats::default().put(&mut b);
    }
    out.alignments.put(&mut b);
    out.diagnostics.put(&mut b);
    out.stats.put(&mut b);
    b
}

/// Recover one record payload (the [`encode_record`] layout) as `(key,
/// entry)`. The fingerprints and outputs are decoded; the extraction
/// intermediates and the retired slots are stepped over by
/// [`Wire::skip`], which refuses exactly what decoding them refuses, and
/// only the mention and target counts are kept. The payload itself
/// becomes the entry's record; the store sizes the entry when it takes it
/// in. Strict: the payload must be consumed exactly; any slack or
/// structural error is a decode failure (treated as corruption by
/// recovery).
pub(crate) fn decode_record(payload: Vec<u8>) -> Result<(u64, DocEntry), DecodeError> {
    let mut d = Dec {
        b: &payload,
        pos: 0,
    };
    let key = u64::get(&mut d)?;
    let config_fp = u64::get(&mut d)?;
    let text_fp = u64::get(&mut d)?;
    u64::skip(&mut d)?;
    let table_fps = Vec::get(&mut d)?;
    let mentions = skip_counted::<TextMention>(&mut d)?;
    DocContext::skip(&mut d)?;
    Vec::<TableContext>::skip(&mut d)?;
    let targets = skip_counted::<TableMention>(&mut d)?;
    Diagnostics::skip(&mut d)?;
    let n = d.len()?;
    let mut candidates = Vec::with_capacity(n);
    for _ in 0..n {
        u64::skip(&mut d)?;
        candidates.push(Vec::get(&mut d)?);
        FilterStats::skip(&mut d)?;
    }
    let alignments = Vec::get(&mut d)?;
    let diagnostics = Diagnostics::get(&mut d)?;
    let stats = FilterStats::get(&mut d)?;
    if d.pos != payload.len() {
        return Err(DecodeError("trailing garbage"));
    }
    let entry = DocEntry {
        config_fp,
        text_fp,
        table_fps,
        mentions: mentions as u64,
        targets: targets as u64,
        out: AlignOutput {
            alignments,
            diagnostics,
            stats,
            candidates,
        },
        record: payload.into_boxed_slice(),
        approx_bytes: 0,
        last_used: 0,
    };
    Ok((key, entry))
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

fn checksum(payload: &[u8]) -> u64 {
    let mut fp = Fingerprint::new();
    fp.bytes(payload);
    fp.finish()
}

/// Write one frame to `w`: `len (u32 LE) | fnv1a(payload) (u64 LE) |
/// payload`. Returns the bytes written. A payload over the recovery
/// cap is refused, since recovery would read it as a torn tail.
fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<u64> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&n| n <= MAX_FRAME_BYTES)
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "record exceeds frame cap")
        })?;
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&checksum(payload).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    Ok((FRAME_HEADER_LEN + payload.len()) as u64)
}

fn file_header(model_fp: u64, gen: u64) -> Vec<u8> {
    let mut h = Vec::with_capacity(HEADER_LEN as usize);
    h.extend_from_slice(&MAGIC);
    h.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    h.extend_from_slice(&model_fp.to_le_bytes());
    h.extend_from_slice(&gen.to_le_bytes());
    h
}

/// Validate a file header against this process's identity. `Ok(gen)`
/// means the file was written by a compatible store; anything else is
/// incompatible (foreign magic, version bump, retrained model).
fn check_header(bytes: &[u8], model_fp: u64) -> Option<u64> {
    if bytes.len() < HEADER_LEN as usize || bytes[..4] != MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().ok()?);
    let fp = u64::from_le_bytes(bytes[8..16].try_into().ok()?);
    let gen = u64::from_le_bytes(bytes[16..24].try_into().ok()?);
    (version == FORMAT_VERSION && fp == model_fp).then_some(gen)
}

/// Open the store file at `path` and check its header against this
/// process's identity: a reader positioned after the header, the file's
/// generation, and its length. `None` if the file is missing, unreadable,
/// shorter than a header, or incompatible.
fn open_file(path: &Path, model_fp: u64) -> Option<(BufReader<File>, u64, u64)> {
    let file = File::open(path).ok()?;
    let len = file.metadata().ok()?.len();
    let mut r = BufReader::new(file);
    let mut header = [0u8; HEADER_LEN as usize];
    r.read_exact(&mut header).ok()?;
    let gen = check_header(&header, model_fp)?;
    Some((r, gen, len))
}

/// Stream the frames that follow a file's header from `r` into `sink`,
/// one record at a time, until the first invalid frame. Each payload is
/// read into a buffer of its own, checksummed, and handed to
/// [`decode_record`], whose entry keeps that buffer as its record. `len`
/// is the file's length, which bounds a frame's claimed size before any
/// buffer is allocated for it. Returns the byte offset of the end of the
/// last valid frame (= where a writer may safely resume appending), and
/// whether a tear was found.
fn replay_frames(r: &mut impl Read, len: u64, sink: &mut impl FnMut(u64, DocEntry)) -> (u64, bool) {
    let mut pos = HEADER_LEN;
    loop {
        if pos == len {
            return (pos, false);
        }
        let mut header = [0u8; FRAME_HEADER_LEN];
        if len - pos < FRAME_HEADER_LEN as u64 || r.read_exact(&mut header).is_err() {
            return (pos, true);
        }
        let size = u32::from_le_bytes(header[..4].try_into().unwrap_or([0; 4]));
        let sum = u64::from_le_bytes(header[4..].try_into().unwrap_or([0; 8]));
        let end = pos + FRAME_HEADER_LEN as u64 + u64::from(size);
        if size > MAX_FRAME_BYTES || end > len {
            return (pos, true);
        }
        let mut payload = vec![0u8; size as usize];
        if r.read_exact(&mut payload).is_err() || checksum(&payload) != sum {
            return (pos, true);
        }
        match decode_record(payload) {
            Ok((key, entry)) => sink(key, entry),
            Err(_) => return (pos, true),
        }
        pos = end;
    }
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

struct Manifest {
    model_fp: u64,
    snapshot_gen: u64,
}

enum ManifestState {
    Missing,
    Incompatible,
    Valid(Manifest),
}

fn read_manifest(dir: &Path) -> ManifestState {
    let text = match fs::read_to_string(dir.join(MANIFEST_FILE)) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return ManifestState::Missing,
        Err(_) => return ManifestState::Incompatible,
    };
    let mut lines = text.lines();
    if lines.next() != Some(MANIFEST_MAGIC) {
        return ManifestState::Incompatible;
    }
    let (mut version, mut model_fp, mut snapshot_gen) = (None, None, None);
    for line in lines {
        match line.split_once(' ') {
            Some(("format_version", v)) => version = v.parse::<u32>().ok(),
            Some(("model_fp", v)) => model_fp = u64::from_str_radix(v, 16).ok(),
            Some(("snapshot_gen", v)) => snapshot_gen = v.parse::<u64>().ok(),
            _ => {}
        }
    }
    match (version, model_fp, snapshot_gen) {
        (Some(v), Some(fp), Some(gen)) if v == FORMAT_VERSION => ManifestState::Valid(Manifest {
            model_fp: fp,
            snapshot_gen: gen,
        }),
        _ => ManifestState::Incompatible,
    }
}

fn manifest_text(model_fp: u64, snapshot_gen: u64) -> String {
    format!("{MANIFEST_MAGIC}\nformat_version {FORMAT_VERSION}\nmodel_fp {model_fp:016x}\nsnapshot_gen {snapshot_gen}\n")
}

// ---------------------------------------------------------------------------
// Atomic file helpers
// ---------------------------------------------------------------------------

/// Write `path` atomically: `body` writes the contents through a
/// buffered writer into a temp file in the same directory, which is
/// flushed, fsynced and renamed into place; then the directory is
/// fsynced so the rename itself is durable. Returns the bytes written.
fn write_atomic(
    dir: &Path,
    path: &Path,
    body: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> std::io::Result<u64> {
    let tmp = path.with_extension("tmp");
    let written = {
        let mut w = BufWriter::new(File::create(&tmp)?);
        body(&mut w)?;
        let mut f = w.into_inner().map_err(IntoInnerError::into_error)?;
        f.sync_all()?;
        f.stream_position()?
    };
    fs::rename(&tmp, path)?;
    sync_dir(dir);
    Ok(written)
}

/// Atomically point the manifest at snapshot generation `gen`.
fn write_manifest(dir: &Path, model_fp: u64, gen: u64) -> std::io::Result<u64> {
    write_atomic(dir, &dir.join(MANIFEST_FILE), |w| {
        w.write_all(manifest_text(model_fp, gen).as_bytes())
    })
}

/// Atomically replace the novelty log with a header-only one stamped
/// with generation `gen`. Returns its length.
fn write_fresh_log(dir: &Path, model_fp: u64, gen: u64) -> std::io::Result<u64> {
    write_atomic(dir, &dir.join(LOG_FILE), |w| {
        w.write_all(&file_header(model_fp, gen))
    })
}

/// Best-effort directory fsync (makes renames durable on Linux; a no-op
/// error elsewhere is acceptable — the files themselves are synced).
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Remove the files of `dir` whose names `doomed` selects.
fn remove_files(dir: &Path, doomed: impl Fn(&str) -> bool) {
    if let Ok(rd) = fs::read_dir(dir) {
        for entry in rd.flatten() {
            if doomed(&entry.file_name().to_string_lossy()) {
                let _ = fs::remove_file(entry.path());
            }
        }
    }
}

fn is_snapshot(name: &str) -> bool {
    name.starts_with("snapshot-") && name.ends_with(".briq")
}

/// Remove every file this layer owns (manifest, log, snapshots, temps).
/// Called when the directory's contents are incompatible and must be
/// rebuilt; foreign files that merely *live* in the directory are left
/// alone.
fn wipe_store_files(dir: &Path) {
    remove_files(dir, |name| {
        name == MANIFEST_FILE || name == LOG_FILE || is_snapshot(name) || name.ends_with(".tmp")
    });
}

// ---------------------------------------------------------------------------
// Persistence handle
// ---------------------------------------------------------------------------

/// How recovery left the store directory.
pub(crate) struct Recovered {
    /// True if a torn tail was truncated in the snapshot or log.
    pub truncated: bool,
    /// True if incompatible/foreign files were discarded and the
    /// directory rebuilt from scratch.
    pub rebuilt: bool,
}

#[derive(Debug)]
struct LogFile {
    file: File,
    bytes: u64,
}

/// The durable backing of one [`AlignmentStore`](super::AlignmentStore):
/// open log handle, snapshot generation, and byte accounting. All file
/// writes go through this handle; the in-memory entry map stays in the
/// store itself.
#[derive(Debug)]
pub(crate) struct Persistence {
    dir: PathBuf,
    model_fp: u64,
    compact_log_bytes: u64,
    log: Mutex<LogFile>,
    /// Serializes snapshot writers (the log mutex alone protects appends).
    snap: Mutex<()>,
    gen: AtomicU64,
    snapshot_bytes: AtomicU64,
    compactions: AtomicU64,
}

impl Persistence {
    /// Open (or create) a store directory and recover its contents,
    /// handing every valid record to `sink` as it is read: the snapshot's
    /// first, then the log's, so the caller keeps the last record per
    /// key. Never fails on *corrupt* data — torn tails truncate,
    /// incompatible files rebuild; only real I/O errors (permissions,
    /// full disk on the initial log create) surface as `Err`.
    pub(crate) fn open(
        dir: &Path,
        model_fp: u64,
        compact_log_bytes: u64,
        sink: &mut impl FnMut(u64, DocEntry),
    ) -> std::io::Result<(Persistence, Recovered)> {
        fs::create_dir_all(dir)?;
        let mut truncated = false;
        let mut rebuilt = false;

        // Manifest decides whether anything on disk can be trusted.
        let mut gen = match read_manifest(dir) {
            ManifestState::Valid(m) if m.model_fp == model_fp => m.snapshot_gen,
            ManifestState::Missing => {
                // A missing manifest with store files present means an
                // unknown writer left them; never trust unmanifested data.
                if dir.join(LOG_FILE).exists() {
                    rebuilt = true;
                    wipe_store_files(dir);
                }
                0
            }
            _ => {
                // Foreign magic, version bump, or model/config change.
                rebuilt = true;
                wipe_store_files(dir);
                0
            }
        };

        // Snapshot: replayed first, so the log wins per key. Nothing has
        // reached `sink` yet when its header is refused.
        if gen > 0 {
            match open_file(&dir.join(snapshot_file(gen)), model_fp) {
                Some((mut r, snap_gen, len)) if snap_gen == gen => {
                    truncated |= replay_frames(&mut r, len, sink).1;
                }
                _ => {
                    // Named by the manifest but unreadable or incompatible:
                    // nothing on disk can be trusted any more.
                    rebuilt = true;
                    wipe_store_files(dir);
                    gen = 0;
                }
            }
        }

        // Novelty log: replayed on top of the snapshot, then physically
        // truncated at the last valid frame so appends resume cleanly.
        let log_path = dir.join(LOG_FILE);
        let log_valid_len = match open_file(&log_path, model_fp) {
            Some((mut r, log_gen, len)) if log_gen == gen => {
                let (valid_len, torn) = replay_frames(&mut r, len, sink);
                truncated |= torn;
                Some(valid_len)
            }
            // No log, a log for another generation (crash between
            // manifest update and log reset), or an incompatible header:
            // its content is already in the snapshot or untrustworthy.
            _ => {
                let _ = fs::remove_file(&log_path);
                None
            }
        };

        // Open the log for append, creating it (with a header) if needed.
        let (file, bytes) = match log_valid_len {
            Some(valid) => {
                let f = OpenOptions::new().append(true).open(&log_path)?;
                f.set_len(valid)?;
                (f, valid)
            }
            None => {
                let bytes = write_fresh_log(dir, model_fp, gen)?;
                (OpenOptions::new().append(true).open(&log_path)?, bytes)
            }
        };

        // Always leave a valid manifest behind, so the next process can
        // trust (or reject) the directory without guessing.
        write_manifest(dir, model_fp, gen)?;
        cleanup_stale(dir, gen);

        let snapshot_bytes = match gen {
            0 => 0,
            _ => fs::metadata(dir.join(snapshot_file(gen))).map_or(0, |m| m.len()),
        };
        let p = Persistence {
            dir: dir.to_path_buf(),
            model_fp,
            compact_log_bytes,
            log: Mutex::new(LogFile { file, bytes }),
            snap: Mutex::new(()),
            gen: AtomicU64::new(gen),
            snapshot_bytes: AtomicU64::new(snapshot_bytes),
            compactions: AtomicU64::new(0),
        };
        Ok((p, Recovered { truncated, rebuilt }))
    }

    /// Append one encoded record payload to the novelty log.
    pub(crate) fn append(&self, payload: &[u8]) -> std::io::Result<()> {
        let mut log = lock(&self.log);
        log.bytes += write_frame(&mut log.file, payload)?;
        Ok(())
    }

    /// True when the log has outgrown both the current snapshot and the
    /// `compact_log_bytes` floor, so the store should write a snapshot.
    /// Rewriting the live set only after at least as many bytes of new
    /// records bounds compaction's write amplification at ~2×; the
    /// floor keeps a new or small store from compacting on every append.
    pub(crate) fn wants_compact(&self) -> bool {
        self.log_bytes() > self.compact_log_bytes.max(self.snapshot_bytes())
    }

    /// Write a compacted snapshot of `records` (the resident entries'
    /// kept records, key-ordered), atomically advance the manifest, and
    /// reset the log. Each record is framed verbatim through a buffered
    /// writer into the temp file, so no image of the snapshot is held in
    /// memory and nothing is re-encoded. The caller holds the entry-map
    /// lock, so `records` is a consistent view.
    pub(crate) fn write_snapshot(&self, records: &[&[u8]]) -> std::io::Result<()> {
        let _guard = lock(&self.snap);
        let old_gen = self.gen.load(Ordering::Relaxed);
        let next = old_gen + 1;

        // 1. Snapshot file: header, then one frame per entry in key order.
        let snap_path = self.dir.join(snapshot_file(next));
        let snapshot_bytes = write_atomic(&self.dir, &snap_path, |w| {
            w.write_all(&file_header(self.model_fp, next))?;
            for record in records {
                write_frame(w, record)?;
            }
            Ok(())
        })?;

        // 2. Manifest: after this rename, recovery reads the new snapshot.
        write_manifest(&self.dir, self.model_fp, next)?;

        // 3. Fresh log for the new generation, swapped under the log
        // lock so in-flight appends land either in the old log (whose
        // records the snapshot already covers) or the new one.
        {
            let mut log = lock(&self.log);
            let bytes = write_fresh_log(&self.dir, self.model_fp, next)?;
            log.file = OpenOptions::new()
                .append(true)
                .open(self.dir.join(LOG_FILE))?;
            log.bytes = bytes;
        }

        // 4. The old snapshot is now unreachable from the manifest.
        if old_gen > 0 {
            let _ = fs::remove_file(self.dir.join(snapshot_file(old_gen)));
        }
        self.gen.store(next, Ordering::Relaxed);
        self.snapshot_bytes.store(snapshot_bytes, Ordering::Relaxed);
        self.compactions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The store directory.
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current novelty-log size in bytes (header included).
    pub(crate) fn log_bytes(&self) -> u64 {
        lock(&self.log).bytes
    }

    /// Size in bytes of the current snapshot (0 before the first one).
    pub(crate) fn snapshot_bytes(&self) -> u64 {
        self.snapshot_bytes.load(Ordering::Relaxed)
    }

    /// Compactions (snapshot writes) performed by this process.
    pub(crate) fn compactions(&self) -> u64 {
        self.compactions.load(Ordering::Relaxed)
    }
}

/// Remove temp files and snapshots other than the current generation —
/// debris from crashes between protocol steps.
fn cleanup_stale(dir: &Path, gen: u64) {
    let keep = snapshot_file(gen);
    remove_files(dir, |name| {
        (is_snapshot(name) && name != keep) || name.ends_with(".tmp")
    });
}

#[cfg(test)]
mod tests {
    use super::super::{AlignmentStore, StoreOptions};
    use super::*;
    use crate::error::Budget;
    use crate::pipeline::{AlignOpts, AlignOutput, Briq, BriqConfig};
    use crate::store::tests::stored;
    use briq_table::{Document, Table};
    use proptest::prelude::*;
    use std::sync::atomic::AtomicUsize;

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    /// A unique scratch directory, removed on drop (or the file a test
    /// put at its path).
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("briq-persist-{tag}-{}-{n}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).expect("create temp dir");
            TempDir(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0).or_else(|_| fs::remove_file(&self.0));
        }
    }

    fn briq() -> Briq {
        Briq::untrained(BriqConfig::default())
    }

    fn persistent(briq: &Briq, dir: &Path) -> AlignmentStore {
        AlignmentStore::with_options(
            briq,
            &StoreOptions {
                dir: Some(dir.to_path_buf()),
                ..StoreOptions::default()
            },
        )
        .expect("open persistent store")
    }

    /// A durable store whose compaction floor is 1 byte, so the log
    /// compacts as soon as it outgrows the current snapshot.
    fn one_byte_floor(briq: &Briq, dir: &Path) -> AlignmentStore {
        AlignmentStore::with_options(
            briq,
            &StoreOptions {
                dir: Some(dir.to_path_buf()),
                compact_log_bytes: 1,
                ..StoreOptions::default()
            },
        )
        .expect("open store with a 1-byte compaction floor")
    }

    fn docs() -> Vec<Document> {
        vec![
            Document::new(
                0,
                "Overall, a total of 123 patients reported side effects. \
                 Depression was reported by 38 patients.",
                vec![Table::from_grid(
                    "",
                    vec![
                        vec!["side effects".into(), "patients".into()],
                        vec!["Rash".into(), "35".into()],
                        vec!["Depression".into(), "38".into()],
                    ],
                )],
            ),
            Document::new(
                1,
                "Revenue grew to $12.5 million in 2018, up from $9.1 million.",
                vec![Table::from_grid(
                    "Revenue",
                    vec![
                        vec!["year".into(), "revenue".into()],
                        vec!["2017".into(), "$9.1M".into()],
                        vec!["2018".into(), "$12.5M".into()],
                    ],
                )],
            ),
        ]
    }

    /// Align `docs` through `store` and return every output surface.
    fn align_all(briq: &Briq, store: &AlignmentStore, docs: &[Document]) -> Vec<AlignOutput> {
        docs.iter()
            .enumerate()
            .map(|(i, d)| stored(briq, store, i as u64, d, Budget::default()))
            .collect()
    }

    #[test]
    fn restart_recovers_from_log_alone() {
        let briq = briq();
        let dir = TempDir::new("log-only");
        let docs = docs();
        let cold = {
            let store = persistent(&briq, dir.path());
            let out = align_all(&briq, &store, &docs);
            assert_eq!(store.len(), docs.len());
            // No snapshot was ever written: recovery must come from the
            // novelty log alone (the SIGKILL-without-drain case).
            assert_eq!(store.snapshot_bytes(), 0);
            out
        };
        let store = persistent(&briq, dir.path());
        assert_eq!(store.recovered_entries(), docs.len() as u64);
        let warm = align_all(&briq, &store, &docs);
        assert_eq!(store.hits(), docs.len() as u64, "restart must serve warm");
        assert_eq!(cold, warm, "recovered output must be bit-identical");
    }

    #[test]
    fn report_lines_count_entries_and_name_the_directory() {
        let briq = briq();
        assert_eq!(
            AlignmentStore::with_options(&briq, &StoreOptions::default())
                .unwrap()
                .recovery_report(),
            None
        );
        let dir = TempDir::new("report");
        let shown = dir.path().display().to_string();
        {
            let store = persistent(&briq, dir.path());
            let cold = store.recovery_report().expect("durable store reports");
            assert!(
                cold.starts_with(&format!("store: recovered 0 entries from {shown} in ")),
                "{cold}"
            );
            align_all(&briq, &store, &docs()[..1]);
            store.snapshot().expect("snapshot");
            assert_eq!(
                store.persisted_report(),
                format!(
                    "store: persisted 1 entry ({} snapshot bytes)",
                    store.snapshot_bytes()
                )
            );
        }
        let warm = persistent(&briq, dir.path()).recovery_report();
        let warm = warm.expect("durable store reports");
        assert!(
            warm.starts_with(&format!("store: recovered 1 entry from {shown} in ")),
            "{warm}"
        );
    }

    #[test]
    fn restart_recovers_from_snapshot_plus_log() {
        let briq = briq();
        let dir = TempDir::new("snap-log");
        let docs = docs();
        let cold = {
            let store = persistent(&briq, dir.path());
            let out = align_all(&briq, &store, &docs[..1]);
            store.snapshot().expect("snapshot");
            assert!(store.snapshot_bytes() > 0);
            // One more document lands in the post-snapshot log.
            let mut out2 = align_all(&briq, &store, &docs);
            assert_eq!(out2.remove(0), out[0]);
            (out, out2)
        };
        let store = persistent(&briq, dir.path());
        assert_eq!(store.recovered_entries(), docs.len() as u64);
        let warm = align_all(&briq, &store, &docs);
        assert_eq!(store.hits(), docs.len() as u64);
        assert_eq!(warm[0], cold.0[0]);
        assert_eq!(warm[1], cold.1[0]);
    }

    /// Reopening with a budget of about two entries binds while the
    /// records stream in: the peak never holds much more than the budget,
    /// only what fits it is recovered, and output is unchanged.
    #[test]
    fn bounded_reopen_applies_the_budget_while_recovering() {
        let briq = briq();
        let dir = TempDir::new("bounded");
        let docs: Vec<Document> = docs().into_iter().cycle().take(8).collect();
        let largest = {
            let store = persistent(&briq, dir.path());
            align_all(&briq, &store, &docs[..4]);
            store.snapshot().expect("snapshot");
            // The other four land in the post-snapshot log.
            align_all(&briq, &store, &docs);
            let entries = lock(&store.entries);
            assert_eq!(entries.map.len(), docs.len());
            entries.map.values().map(|e| e.approx_bytes).max()
        }
        .expect("entries were written");
        let max_bytes = 2 * largest;
        let store = AlignmentStore::with_options(
            &briq,
            &StoreOptions {
                dir: Some(dir.path().to_path_buf()),
                max_bytes,
                ..StoreOptions::default()
            },
        )
        .expect("reopen with a budget");
        assert!(
            store.bytes_peak() <= max_bytes + largest,
            "recovery peaked at {} bytes against a {max_bytes}-byte budget",
            store.bytes_peak()
        );
        assert!((1..docs.len() as u64).contains(&store.recovered_entries()));
        // Every recovered entry was sized on its way in, and the resident
        // count is their sum.
        let resident = |store: &AlignmentStore| {
            let entries = lock(&store.entries);
            for e in entries.map.values() {
                assert_eq!(e.approx_bytes, e.estimate_bytes());
            }
            let sum: u64 = entries.map.values().map(|e| e.approx_bytes).sum();
            assert_eq!(entries.bytes, sum);
        };
        resident(&store);
        assert_eq!(align_all(&briq, &store, &docs), storeless(&briq, &docs));
        resident(&store);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let briq = briq();
        let dir = TempDir::new("torn");
        let docs = docs();
        {
            let store = persistent(&briq, dir.path());
            align_all(&briq, &store, &docs);
        }
        // Tear the last record: chop bytes off the log tail, simulating
        // a crash mid-write.
        let log = dir.path().join(LOG_FILE);
        let bytes = fs::read(&log).expect("read log");
        fs::write(&log, &bytes[..bytes.len() - 7]).expect("tear log");

        let store = persistent(&briq, dir.path());
        assert_eq!(
            store.recovered_entries(),
            docs.len() as u64 - 1,
            "the torn record is dropped, the prefix survives"
        );
        // The torn document recomputes cold; output is still identical
        // to a fresh run, and the log accepts new appends after the tear.
        let briq2 = briq;
        let warm = align_all(&briq2, &store, &docs);
        let oracle_store = AlignmentStore::with_options(&briq2, &StoreOptions::default()).unwrap();
        let oracle = align_all(&briq2, &oracle_store, &docs);
        assert_eq!(warm, oracle);
        let store2 = persistent(&briq2, dir.path());
        assert_eq!(store2.recovered_entries(), docs.len() as u64);
    }

    #[test]
    fn corrupt_mid_log_byte_keeps_valid_prefix() {
        let briq = briq();
        let dir = TempDir::new("flip");
        let docs = docs();
        {
            let store = persistent(&briq, dir.path());
            align_all(&briq, &store, &docs);
        }
        let log = dir.path().join(LOG_FILE);
        let mut bytes = fs::read(&log).expect("read log");
        // Flip one byte inside the *second* record's payload: checksum
        // catches it, the first record survives.
        let second_start = {
            let after_header = &bytes[HEADER_LEN as usize..];
            let len = u32::from_le_bytes(after_header[..4].try_into().unwrap()) as usize;
            HEADER_LEN as usize + FRAME_HEADER_LEN + len
        };
        bytes[second_start + FRAME_HEADER_LEN + 20] ^= 0xFF;
        fs::write(&log, &bytes).expect("corrupt log");

        let store = persistent(&briq, dir.path());
        assert_eq!(store.recovered_entries(), 1);
        let warm = align_all(&briq, &store, &docs);
        let oracle_store = AlignmentStore::with_options(&briq, &StoreOptions::default()).unwrap();
        assert_eq!(warm, align_all(&briq, &oracle_store, &docs));
    }

    /// Align the fixture documents, snapshot, apply `fault` to the
    /// directory, and reopen: nothing on disk is trusted, the directory
    /// is rebuilt, output matches a storeless run, and the rebuilt
    /// directory recovers normally again.
    fn reopen_rebuilds_after(tag: &str, fault: impl FnOnce(&Path)) {
        let briq = briq();
        let dir = TempDir::new(tag);
        let docs = docs();
        {
            let store = persistent(&briq, dir.path());
            align_all(&briq, &store, &docs);
            store.snapshot().expect("snapshot");
        }
        fault(dir.path());
        let store = persistent(&briq, dir.path());
        assert!(store.recover_rebuilt());
        assert_eq!(store.recovered_entries(), 0, "incompatible data is rebuilt");
        assert!(
            !dir.path().join(snapshot_file(1)).exists(),
            "stale snapshot wiped"
        );
        assert_eq!(align_all(&briq, &store, &docs), storeless(&briq, &docs));
        assert_eq!(persistent(&briq, dir.path()).recovered_entries(), 2);
    }

    /// Every output surface of `docs` aligned without a store.
    fn storeless(briq: &Briq, docs: &[Document]) -> Vec<AlignOutput> {
        docs.iter()
            .map(|d| briq.align_with(d, &AlignOpts::default()))
            .collect()
    }

    #[test]
    fn missing_named_snapshot_rebuilds() {
        reopen_rebuilds_after("snap-missing", |dir| {
            fs::remove_file(dir.join(snapshot_file(1))).expect("delete snapshot");
        });
    }

    #[test]
    fn corrupt_named_snapshot_header_rebuilds() {
        reopen_rebuilds_after("snap-header", |dir| {
            let path = dir.join(snapshot_file(1));
            let mut bytes = fs::read(&path).expect("read snapshot");
            bytes[0] ^= 0xFF;
            fs::write(&path, bytes).expect("corrupt snapshot header");
        });
    }

    #[test]
    fn version_mismatch_rebuilds_instead_of_trusting() {
        reopen_rebuilds_after("version", |dir| {
            // Rewrite the manifest to a future format version.
            let manifest = dir.join(MANIFEST_FILE);
            let text = fs::read_to_string(&manifest).expect("read manifest");
            let text = text.replace("format_version 1", "format_version 999");
            fs::write(&manifest, text).expect("rewrite manifest");
        });
    }

    /// Every `Unit`: each `Currency`, the three plain units, each `Measure`.
    fn all_units() -> Vec<Unit> {
        use Currency::*;
        use Measure::*;
        let mut units = [Usd, Eur, Gbp, Cad, Inr, Jpy, Other]
            .map(Unit::Currency)
            .to_vec();
        units.extend([Unit::Percent, Unit::BasisPoints, Unit::None]);
        units.extend([Mpge, GramsPerKm, KWh, Mg, Km, Count].map(Unit::Measure));
        units
    }

    /// The v1 record layout in full, every slot decoded: the oracle that
    /// [`encode_record`] and [`decode_record`] are held to.
    struct V1Entry {
        config_fp: u64,
        text_fp: u64,
        aggregate_fp: u64,
        table_fps: Vec<u64>,
        text_mentions: Vec<TextMention>,
        text_ctx: DocContext,
        table_contexts: Vec<TableContext>,
        targets: Vec<TableMention>,
        extract_diags: Diagnostics,
        artifacts: Vec<V1Artifact>,
        alignments: Vec<Alignment>,
        diagnostics: Diagnostics,
        stats: FilterStats,
    }

    /// One mention's slot of a v1 record.
    #[derive(Clone)]
    struct V1Artifact {
        fp: u64,
        candidates: Vec<Candidate>,
        stats: FilterStats,
    }

    wire_struct! { V1Artifact { fp, candidates, stats } }
    wire_struct! { V1Entry {
        config_fp, text_fp, aggregate_fp, table_fps, text_mentions, text_ctx, table_contexts,
        targets, extract_diags, artifacts, alignments, diagnostics, stats,
    } }

    /// `e`'s v1 record under store key `key`.
    fn v1_record(key: u64, e: &V1Entry) -> Vec<u8> {
        let mut out = Vec::new();
        key.put(&mut out);
        e.put(&mut out);
        out
    }

    /// True if a full decode of the v1 layout accepts `payload`.
    fn v1_accepts(payload: &[u8]) -> bool {
        let mut d = Dec { b: payload, pos: 0 };
        <(u64, V1Entry)>::get(&mut d).is_ok() && d.pos == payload.len()
    }

    /// What `e` was made of when the store missed it: its fingerprints,
    /// its extraction (the table contexts back inside the text context)
    /// and its outputs.
    fn parts(e: &V1Entry) -> (Miss, Extracted, AlignOutput) {
        let mut ctx = e.text_ctx.clone();
        ctx.tables = e.table_contexts.clone();
        let miss = Miss {
            config_fp: e.config_fp,
            text_fp: e.text_fp,
            table_fps: e.table_fps.clone(),
        };
        let x = Extracted {
            mentions: e.text_mentions.clone(),
            ctx,
            tags: Vec::new(),
            targets: e.targets.clone(),
            ungenerated: Default::default(),
            diags: e.extract_diags.clone(),
        };
        let out = AlignOutput {
            alignments: e.alignments.clone(),
            diagnostics: e.diagnostics.clone(),
            stats: e.stats.clone(),
            candidates: e.artifacts.iter().map(|a| a.candidates.clone()).collect(),
        };
        (miss, x, out)
    }

    /// `v`'s encoding: compares values bit for bit, NaN payloads included.
    fn bytes(v: &impl Wire) -> Vec<u8> {
        let mut out = Vec::new();
        v.put(&mut out);
        out
    }

    /// Fail unless `entry`, recovered from `payload`, holds `e`'s
    /// fingerprints, counts and outputs, and keeps `payload` itself.
    fn assert_recovers(entry: &DocEntry, e: &V1Entry, payload: &[u8]) {
        assert_eq!(
            (entry.config_fp, entry.text_fp, &entry.table_fps),
            (e.config_fp, e.text_fp, &e.table_fps)
        );
        assert_eq!(entry.mentions, e.text_mentions.len() as u64);
        assert_eq!(entry.targets, e.targets.len() as u64);
        let candidates: Vec<Vec<Candidate>> =
            e.artifacts.iter().map(|a| a.candidates.clone()).collect();
        assert_eq!(bytes(&entry.out.candidates), bytes(&candidates));
        assert_eq!(bytes(&entry.out.alignments), bytes(&e.alignments));
        assert_eq!(bytes(&entry.out.diagnostics), bytes(&e.diagnostics));
        assert_eq!(bytes(&entry.out.stats), bytes(&e.stats));
        assert_eq!(&*entry.record, payload);
    }

    /// An entry that writes every tag the codec knows — each `Unit`,
    /// `TokenKind`, `ApproxIndicator`, `AggregationKind`, `Stage` and
    /// `DegradedAction` variant, both `TableMentionKind`s, all three
    /// `Option<Orientation>` forms — plus NaN, −0.0 and ±∞.
    fn every_tag_entry() -> V1Entry {
        use AggregationKind::*;
        use ApproxIndicator as A;
        use DegradedAction::*;
        use TokenKind::*;
        let set = |words: &[&str]| -> std::collections::BTreeSet<String> {
            words.iter().map(|w| w.to_string()).collect()
        };
        let floats = [f64::NAN, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.5];
        let units = all_units();
        let approx = [
            A::Exact,
            A::Approximate,
            A::UpperBound,
            A::LowerBound,
            A::None,
        ];
        let aggs = [Sum, Difference, Percentage, ChangeRatio, Average, Max, Min];
        let stages = [
            Stage::Extraction,
            Stage::VirtualCells,
            Stage::Classification,
            Stage::GraphConstruction,
            Stage::Resolution,
            Stage::Batch,
        ];
        let orientations = [
            None,
            Some(Orientation::Row(2)),
            Some(Orientation::Column(3)),
        ];

        let text_mentions = units
            .iter()
            .enumerate()
            .map(|(i, &unit)| TextMention {
                id: i,
                quantity: QuantityMention {
                    raw: format!("q{i}"),
                    value: floats[i % 5],
                    unnormalized: floats[(i + 1) % 5],
                    unit,
                    precision: i as u8,
                    approx: approx[i % 5],
                    start: 10 * i,
                    end: 10 * i + 3,
                },
            })
            .collect();
        let tokens = [Word, Number, Alphanumeric, Punct, Symbol]
            .into_iter()
            .enumerate()
            .map(|(i, kind)| Token {
                text: format!("t{i}"),
                start: i,
                end: i + 1,
                kind,
            })
            .collect();
        let mentions = std::iter::once(None)
            .chain(aggs.map(Some))
            .enumerate()
            .map(|(i, inferred_aggregation)| MentionContext {
                local_weights: [(format!("w{i}"), floats[i % 5])].into_iter().collect(),
                sentence_phrases: set(&["phrase", "é∞\\"]),
                immediate_words: vec![format!("i{i}")],
                sentence_words: vec!["s".into(), format!("s{i}")],
                inferred_aggregation,
                token_index: i,
            })
            .collect();
        let table_ctx = TableContext {
            row_words: vec![set(&["r"]), set(&[])],
            col_words: vec![set(&["c", "d"])],
            table_words: set(&["t"]),
            row_phrases: Vec::new(),
            col_phrases: vec![set(&[])],
            table_phrases: set(&["tp"]),
        };
        let targets: Vec<TableMention> = std::iter::once(TableMentionKind::SingleCell)
            .chain(aggs.map(TableMentionKind::Aggregate))
            .enumerate()
            .map(|(i, kind)| TableMention {
                table: i % 2,
                kind,
                cells: vec![(i, 0), (i, 1)],
                value: floats[i % 5],
                unnormalized: floats[(i + 2) % 5],
                raw: format!("c{i}"),
                unit: units[i],
                precision: 2,
                orientation: orientations[i % 3],
            })
            .collect();
        let actions = [Skipped, Truncated, Fallback, Cancelled];
        let items = stages.iter().enumerate().map(|(i, &stage)| Diagnostic {
            stage,
            scope: format!("table {i}"),
            error: "\"quoted\" \u{0}".into(),
            action: actions[i % 4],
        });
        let diagnostics = Diagnostics {
            items: items.collect(),
        };
        let stats = FilterStats {
            total: [("single".into(), 3), ("sum".into(), 1)]
                .into_iter()
                .collect(),
            kept: [("single".into(), 1)].into_iter().collect(),
        };
        let artifacts = (0..3)
            .map(|i| V1Artifact {
                fp: 0x1234_5678_9abc_def0 ^ i as u64,
                candidates: vec![Candidate {
                    target: i,
                    score: floats[i],
                }],
                stats: stats.clone(),
            })
            .collect();
        let alignments = targets
            .iter()
            .enumerate()
            .map(|(i, target)| Alignment {
                mention_start: i,
                mention_end: i + 2,
                mention_raw: format!("m{i}"),
                target: target.clone(),
                score: floats[i % 5],
            })
            .collect();
        V1Entry {
            config_fp: 1,
            text_fp: 2,
            aggregate_fp: 3,
            table_fps: vec![4, u64::MAX],
            text_mentions,
            text_ctx: DocContext {
                tokens,
                paragraph_words: set(&["a", "b"]),
                paragraph_word_list: vec!["b".into(), "a".into()],
                paragraph_phrases: set(&[]),
                tables: vec![table_ctx.clone()],
                mentions,
            },
            table_contexts: vec![table_ctx],
            targets,
            extract_diags: diagnostics.clone(),
            artifacts,
            alignments,
            diagnostics,
            stats,
        }
    }

    /// The kept records of `docs` aligned through a fresh durable store,
    /// key-ordered.
    fn aligned_records(docs: &[Document]) -> Vec<Vec<u8>> {
        let briq = briq();
        let dir = TempDir::new("records");
        let store = persistent(&briq, dir.path());
        align_all(&briq, &store, docs);
        store.encoded_entries()
    }

    /// The on-disk format, pinned: FNV-1a digests of the records that
    /// aligning fixed documents through a durable store writes, and of
    /// [`every_tag_entry`]'s record. A digest moves when any layout, tag,
    /// or field order does (which must also bump `FORMAT_VERSION`), or
    /// when what the pipeline extracts or outputs for these documents
    /// does: the target slot holds the targets the production path
    /// builds, the tagged kinds' only. The aligned records' digests also
    /// move with the model's JSON, which their `config_fp` slot hashes.
    #[test]
    fn record_bytes_are_pinned() {
        let mut fixed = docs();
        fixed.push(Document::new(
            2,
            "Sales reached 38 units in total, 12 of them in 2017.",
            vec![
                Table::from_grid("", vec![vec!["only".into(), "headers".into()]]),
                Table::from_grid(
                    "Sales",
                    vec![
                        vec!["year".into(), "units".into()],
                        vec!["2017".into(), "12".into()],
                        vec!["2018".into(), "26".into()],
                    ],
                ),
            ],
        ));
        let digests: Vec<u64> = aligned_records(&fixed)
            .iter()
            .map(|p| checksum(p))
            .collect();
        assert_eq!(
            digests,
            [0xd54cf78e02436485, 0xbd57c95fa2977912, 0x747975982f31c9c4],
            "{digests:#018x?}"
        );
        let e = every_tag_entry();
        let payload = v1_record(0xFEED, &e);
        assert_eq!(
            checksum(&payload),
            0x06fcbf21d23de07e,
            "{:#018x}",
            checksum(&payload)
        );
        // A record whose retired slots hold values, as stores written
        // before they were retired do, recovers like any other.
        let (key, entry) = decode_record(payload.clone()).expect("recover");
        assert_eq!(key, 0xFEED);
        assert_recovers(&entry, &e, &payload);
    }

    #[test]
    fn model_change_invalidates_directory() {
        let dir = TempDir::new("model");
        let briq_a = briq();
        {
            let store = persistent(&briq_a, dir.path());
            align_all(&briq_a, &store, &docs());
        }
        let mut cfg = BriqConfig::default();
        cfg.filter.k_exact += 1; // any config change flips the model fp
        let briq_b = Briq::untrained(cfg);
        let store = persistent(&briq_b, dir.path());
        assert_eq!(
            store.recovered_entries(),
            0,
            "a retrained/reconfigured model must not trust old artifacts"
        );
    }

    #[test]
    fn foreign_file_is_not_trusted() {
        let dir = TempDir::new("foreign");
        fs::write(dir.path().join(MANIFEST_FILE), "some other tool\n").expect("write foreign");
        fs::write(dir.path().join(LOG_FILE), b"not a briq log at all").expect("write foreign");
        let briq = briq();
        let store = persistent(&briq, dir.path());
        assert_eq!(store.recovered_entries(), 0);
        // And the directory is usable afterwards.
        align_all(&briq, &store, &docs());
        let store2 = persistent(&briq, dir.path());
        assert_eq!(store2.recovered_entries(), 2);
    }

    #[test]
    fn compaction_resets_log_and_survives_restart() {
        let briq = briq();
        let dir = TempDir::new("compact");
        let docs = docs();
        {
            // A 1-byte floor: the first append compacts, since there is
            // no snapshot yet. The second document's record is larger
            // than the first's, so its append alone outgrows that
            // one-record snapshot and compacts again.
            let store = one_byte_floor(&briq, dir.path());
            align_all(&briq, &store, &docs);
            assert!(store.compactions() >= 2);
            assert_eq!(store.log_bytes(), HEADER_LEN, "log reset after compaction");
            assert!(store.snapshot_bytes() > 0);
        }
        let store = persistent(&briq, dir.path());
        assert_eq!(store.recovered_entries(), docs.len() as u64);
        align_all(&briq, &store, &docs);
        assert_eq!(store.hits(), docs.len() as u64);
    }

    /// The fixture documents with one more sentence each: text-only
    /// edits whose records are larger than the originals'.
    fn edited_docs() -> Vec<Document> {
        let mut docs = docs();
        docs[0].text.push_str(" Rash was reported by 35 patients.");
        docs[1].text.push_str(" Revenue was $9.1 million in 2017.");
        docs
    }

    /// Length on disk of the snapshot the manifest names.
    fn snapshot_len(dir: &Path) -> u64 {
        let ManifestState::Valid(m) = read_manifest(dir) else {
            panic!("no valid manifest in {}", dir.display());
        };
        let path = dir.join(snapshot_file(m.snapshot_gen));
        fs::metadata(path).expect("named snapshot").len()
    }

    #[test]
    fn compaction_waits_for_the_log_to_outgrow_the_snapshot() {
        let briq = briq();
        let dir = TempDir::new("outgrow");
        let open = || one_byte_floor(&briq, dir.path());
        {
            let store = open();
            align_all(&briq, &store, &docs());
            store.snapshot().expect("snapshot");
        }
        let edited = edited_docs();
        {
            // A new process over a snapshot of both originals: the
            // snapshot's size, not the 1-byte floor, decides.
            let store = open();
            let snapshot = store.snapshot_bytes();
            assert_eq!(snapshot, snapshot_len(dir.path()));
            stored(&briq, &store, 0, &edited[0], Budget::default());
            assert!(
                store.log_bytes() <= snapshot,
                "one edit fits under the snapshot"
            );
            assert_eq!(
                store.compactions(),
                0,
                "a log no larger than the snapshot must not compact"
            );
            stored(&briq, &store, 1, &edited[1], Budget::default());
            assert_eq!(
                store.compactions(),
                1,
                "the append that outgrows the snapshot compacts once"
            );
            assert_eq!(store.log_bytes(), HEADER_LEN, "log reset after compaction");
            assert_eq!(store.snapshot_bytes(), snapshot_len(dir.path()));
        }
        let store = open();
        assert_eq!(store.recovered_entries(), 2);
        let warm = align_all(&briq, &store, &edited);
        assert_eq!(store.hits(), 2, "both keys recover at their newest version");
        assert_eq!(warm, storeless(&briq, &edited));
    }

    #[test]
    fn failed_compaction_is_counted_and_output_unchanged() {
        let briq = briq();
        let dir = TempDir::new("unwritable");
        let moved = TempDir::new("unwritable-moved");
        let store = one_byte_floor(&briq, dir.path());
        // Move the directory away and put a regular file at its path: the
        // open log still appends, but the compaction's temp file cannot
        // be created there, even by root.
        fs::rename(dir.path(), moved.path()).expect("move the store directory");
        fs::write(dir.path(), b"not a directory").expect("file at the store path");
        let doc = &docs()[..1];
        assert_eq!(align_all(&briq, &store, doc), storeless(&briq, doc));
        assert_eq!(store.persist_errors(), 1);
        assert_eq!(store.compactions(), 0);
    }

    #[test]
    fn oversized_record_is_refused_not_framed() {
        // Zeroed pages are mapped lazily, and the cap is checked before
        // the checksum reads a byte, so this costs no real memory.
        let payload = vec![0u8; MAX_FRAME_BYTES as usize + 1];
        let mut out = Vec::new();
        assert!(write_frame(&mut out, &payload).is_err());
        assert!(out.is_empty(), "a refused record writes nothing");
    }

    // -- proptest round-trip ------------------------------------------------

    /// Strategy for strings that stress the codec: unicode, embedded
    /// NULs, quote/backslash soup, empty.
    fn any_string() -> impl Strategy<Value = String> {
        proptest::collection::vec(0u32..0x110000, 0..12).prop_map(|cs| {
            cs.into_iter()
                .filter_map(char::from_u32)
                .collect::<String>()
        })
    }

    /// Any f64 bit pattern: negative zero, NaN payloads, infinities,
    /// subnormals — bit identity must hold for all of them.
    fn any_f64() -> impl Strategy<Value = f64> {
        (0u64..=u64::MAX).prop_map(f64::from_bits)
    }

    fn any_unit() -> impl Strategy<Value = Unit> {
        let units = all_units();
        (0..units.len()).prop_map(move |i| units[i])
    }

    fn any_artifact() -> impl Strategy<Value = V1Artifact> {
        (
            (0u64..=u64::MAX),
            proptest::collection::vec((0usize..4096, any_f64()), 0..8),
            proptest::collection::vec((any_string(), 0usize..1000), 0..4),
        )
            .prop_map(|(fp, cands, counts)| V1Artifact {
                fp,
                candidates: cands
                    .into_iter()
                    .map(|(target, score)| Candidate { target, score })
                    .collect(),
                stats: FilterStats {
                    total: counts.iter().cloned().collect(),
                    kept: counts.into_iter().map(|(k, v)| (k, v / 2)).collect(),
                },
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Encode a missed document's record, then recover it: the
        /// record is the v1 layout with the retired slots written as `0`
        /// and empty, and the recovered entry holds the document's
        /// fingerprints, counts and outputs (bit for bit, NaN payloads
        /// included) and keeps the encoded record byte for byte.
        #[test]
        fn record_roundtrip_is_identity(
            key in (0u64..=u64::MAX),
            fps in proptest::collection::vec(0u64..=u64::MAX, 0..4),
            artifacts in proptest::collection::vec(any_artifact(), 0..6),
            raw in any_string(),
            value in any_f64(),
            unit in any_unit(),
            scope in any_string(),
        ) {
            let mut entry = every_tag_entry();
            entry.table_fps = fps;
            entry.artifacts = artifacts;
            let q = &mut entry.text_mentions[0].quantity;
            (q.raw, q.value, q.unnormalized, q.unit) = (raw.clone(), value, value, unit);
            let t = &mut entry.targets[1];
            (t.raw, t.value, t.unit) = (raw.clone(), value, unit);
            entry.text_ctx.tokens[0].text = raw.clone();
            entry.text_ctx.paragraph_phrases.insert(scope.clone());
            entry.text_ctx.mentions[0].local_weights.insert(raw.clone(), value);
            entry.table_contexts[0].table_words.insert(raw);
            entry.extract_diags.items[0].scope = scope;
            entry.alignments[0].score = value;
            // The text context's table slot is written empty.
            entry.text_ctx.tables.clear();

            let (miss, x, out) = parts(&entry);
            let payload = encode_record(key, &miss, x, &out);
            entry.aggregate_fp = 0;
            for a in &mut entry.artifacts {
                (a.fp, a.stats) = (0, FilterStats::default());
            }
            prop_assert_eq!(&payload, &v1_record(key, &entry));
            let (key2, recovered) = decode_record(payload.clone()).expect("recover");
            prop_assert_eq!(key2, key);
            assert_recovers(&recovered, &entry, &payload);
        }

        /// Truncating a valid record stream at ANY byte offset recovers
        /// the longest valid prefix and never errors.
        #[test]
        fn any_truncation_point_recovers_prefix(cut_frac in 0.0f64..1.0) {
            let mut stream = file_header(1234, 0);
            let payloads = aligned_records(&docs());
            for p in &payloads {
                write_frame(&mut stream, p).expect("frame into a Vec");
            }
            let cut = HEADER_LEN as usize
                + ((stream.len() - HEADER_LEN as usize) as f64 * cut_frac) as usize;
            let mut entries = Vec::new();
            let (valid_len, torn) = replay_frames(
                &mut &stream[HEADER_LEN as usize..cut],
                cut as u64,
                &mut |k, e| entries.push((k, e)),
            );
            prop_assert!(valid_len as usize <= cut);
            prop_assert!(entries.len() <= payloads.len());
            prop_assert_eq!(torn, valid_len as usize != cut);
            // The recovered prefix re-frames to the stream prefix.
            let mut replay = Vec::new();
            for (_, e) in &entries {
                write_frame(&mut replay, &e.record).expect("frame into a Vec");
            }
            prop_assert_eq!(&stream[HEADER_LEN as usize..valid_len as usize], &replay[..]);
        }
    }

    proptest! {
        // A case costs two decodes of a ~4 KB record, so sample widely.
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Under any single-byte corruption of a record, recovery's
        /// skipping decoder accepts exactly the payloads that a full
        /// decode of the v1 layout accepts.
        #[test]
        fn skipping_decoder_accepts_what_the_full_decoder_accepts(
            at in 0.0f64..1.0,
            byte in 0u8..=u8::MAX,
        ) {
            let mut payload = v1_record(0xFEED, &every_tag_entry());
            let i = ((payload.len() as f64 * at) as usize).min(payload.len() - 1);
            payload[i] = byte;
            prop_assert_eq!(decode_record(payload.clone()).is_ok(), v1_accepts(&payload));
        }
    }
}
