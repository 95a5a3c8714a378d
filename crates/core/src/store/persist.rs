//! Durable on-disk backing for the [`AlignmentStore`](super::AlignmentStore)
//! (DESIGN.md §16): an append-only novelty log plus periodically compacted
//! snapshots, so warm starts survive process restarts.
//!
//! The layer is std-only and deliberately small:
//!
//! - **Novelty log** (`novelty.log`) — every entry the store caches is
//!   appended as one length-prefixed frame whose payload, the entry's v2
//!   record (store key, fingerprints, counts and outputs: exactly what the
//!   entry holds), is checksummed with the same FNV-1a the content
//!   fingerprints use. Appends are the only write on the hot path.
//! - **Snapshot** (`snapshot-<gen>.briq`) — a compaction of the resident
//!   entries into one file: each entry is encoded again, in key order,
//!   through a buffered writer into a temp file, which is fsynced and
//!   renamed into place; the log is then reset. Snapshots happen on
//!   graceful drain/exit and when the log outgrows both the current
//!   snapshot and the `compact_log_bytes` floor. The live set is thus
//!   rewritten only after at least as many bytes of new records (write
//!   amplification of ~2× at most), and recovery reads at most the
//!   snapshot plus a log no larger than it.
//! - **Manifest** (`MANIFEST`) — a tiny text file naming the format
//!   version, the model/config fingerprint, and the current snapshot
//!   generation. Any mismatch (foreign file, version bump, retrained
//!   model) marks the directory incompatible: its store files are
//!   rebuilt from scratch rather than trusted. A store written by an
//!   older format version is rebuilt this way on its first open.
//! - **Recovery** — stream the snapshot's frames, then the log's, one
//!   record at a time: each payload is read into one reused buffer,
//!   checksummed, decoded into its entry, and handed to the store, which
//!   takes it in through the insert path a live miss takes: a later
//!   record for a key replaces the earlier one at once, and a bounded
//!   store evicts as records arrive. A torn tail frame (short header,
//!   short payload, or checksum mismatch) truncates the file at the last
//!   valid frame boundary instead of failing: everything before the tear
//!   is served warm, everything after is recomputed cold.
//!
//! The codec is a bespoke binary encoding, not JSON: the store's
//! contract is *bit* identity, and `briq_json` degrades non-finite
//! floats to `null`. Every `f64` round-trips through `to_bits()`, every
//! string is length-prefixed UTF-8, every enum is a fixed `u8` tag, and
//! every map is a `BTreeMap` whose iteration order is deterministic — so
//! the outputs decode bit-identical to what was encoded, including NaN/∞
//! values from the non-finite chaos family. Each on-disk type declares
//! its layout once — a `wire_struct!` field list, a `wire_enum!` tag
//! table, or a hand-written `Wire` impl where the layout is not a plain
//! list — and that one declaration drives both encoding and decoding.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{BufReader, BufWriter, IntoInnerError, Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use briq_table::{Orientation, TableMention, TableMentionKind};
use briq_text::cues::AggregationKind;
use briq_text::units::{Currency, Measure, Unit};

use super::{lock, DocEntry, Fingerprint};
use crate::error::{DegradedAction, Diagnostic, Diagnostics, Stage};
use crate::filtering::{Candidate, FilterStats};
use crate::mention::Alignment;
use crate::pipeline::AlignOutput;

/// On-disk format version. Bumped on any incompatible codec or layout
/// change; a manifest naming a different version marks the whole
/// directory incompatible and it is rebuilt from scratch. Version 1
/// records also carried each document's extraction intermediates;
/// version 2 records hold only what an entry serves.
pub const FORMAT_VERSION: u32 = 2;

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

/// One on-disk type: `put` appends its encoding and `get` reads one value
/// back. Integers are little-endian, lengths `u32`, `usize` widens to
/// `u64`, and floats travel as their IEEE-754 bit patterns.
trait Wire: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn get(d: &mut Dec<'_>) -> Result<Self, DecodeError>;
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
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(d: &mut Dec<'_>) -> Result<(A, B), DecodeError> {
        Ok((A::get(d)?, B::get(d)?))
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

wire_enum! { Currency { Usd = 0, Eur = 1, Gbp = 2, Cad = 3, Inr = 4, Jpy = 5, Other = 6 } }
wire_enum! { Measure { Mpge = 0, GramsPerKm = 1, KWh = 2, Mg = 3, Km = 4, Count = 5 } }
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

wire_struct! { TableMention {
    table, kind, cells, value, unnormalized, raw, unit, precision, orientation,
} }
wire_struct! { Candidate { target, score } }
wire_struct! { FilterStats { total, kept } }
wire_struct! { Alignment { mention_start, mention_end, mention_raw, target, score } }
wire_struct! { Diagnostic { stage, scope, error, action } }
wire_struct! { Diagnostics { items } }
wire_struct! { AlignOutput { candidates, alignments, diagnostics, stats } }

/// An entry's persisted part: its fingerprints, its mention and target
/// counts, and its outputs. The LRU stamp and the size estimate are the
/// store's own and are set when the store takes the entry in.
impl Wire for DocEntry {
    fn put(&self, out: &mut Vec<u8>) {
        self.config_fp.put(out);
        self.text_fp.put(out);
        self.table_fps.put(out);
        self.mentions.put(out);
        self.targets.put(out);
        self.out.put(out);
    }
    fn get(d: &mut Dec<'_>) -> Result<DocEntry, DecodeError> {
        Ok(DocEntry {
            config_fp: u64::get(d)?,
            text_fp: u64::get(d)?,
            table_fps: Vec::get(d)?,
            mentions: u64::get(d)?,
            targets: u64::get(d)?,
            out: AlignOutput::get(d)?,
            approx_bytes: 0,
            last_used: 0,
        })
    }
}

/// Encode `entry`'s v2 record under store key `key`: the key, then
/// `config_fp`, `text_fp` and `table_fps`, the mention and target counts,
/// and the kept candidates, alignments, diagnostics and filter totals.
/// [`decode_record`] is its exact inverse.
pub(crate) fn encode_record(key: u64, entry: &DocEntry) -> Vec<u8> {
    let mut b = Vec::new();
    key.put(&mut b);
    entry.put(&mut b);
    b
}

/// Recover one record payload (the [`encode_record`] layout) as `(key,
/// entry)`; the store sizes the entry when it takes it in. Strict: the
/// payload must be consumed exactly; any slack or structural error is a
/// decode failure (treated as corruption by recovery).
pub(crate) fn decode_record(payload: &[u8]) -> Result<(u64, DocEntry), DecodeError> {
    let mut d = Dec { b: payload, pos: 0 };
    let record = <(u64, DocEntry)>::get(&mut d)?;
    if d.pos != payload.len() {
        return Err(DecodeError("trailing garbage"));
    }
    Ok(record)
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
/// read into one reused buffer, checksummed, and decoded by
/// [`decode_record`]. `len` is the file's length, which bounds a frame's
/// claimed size before the buffer grows for it. Returns the byte offset
/// of the end of the last valid frame (= where a writer may safely resume
/// appending), and whether a tear was found.
fn replay_frames(r: &mut impl Read, len: u64, sink: &mut impl FnMut(u64, DocEntry)) -> (u64, bool) {
    let mut pos = HEADER_LEN;
    let mut payload = Vec::new();
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
        payload.resize(size as usize, 0);
        if r.read_exact(&mut payload).is_err() || checksum(&payload) != sum {
            return (pos, true);
        }
        match decode_record(&payload) {
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

    /// Write a compacted snapshot of `entries` (the resident entries,
    /// key-ordered), atomically advance the manifest, and reset the log.
    /// Each entry is encoded and framed through a buffered writer into the
    /// temp file, so no image of the snapshot is held in memory. The
    /// caller holds the entry-map lock, so `entries` is a consistent view.
    pub(crate) fn write_snapshot(&self, entries: &[(u64, &DocEntry)]) -> std::io::Result<()> {
        let _guard = lock(&self.snap);
        let old_gen = self.gen.load(Ordering::Relaxed);
        let next = old_gen + 1;

        // 1. Snapshot file: header, then one frame per entry in key order.
        let snap_path = self.dir.join(snapshot_file(next));
        let snapshot_bytes = write_atomic(&self.dir, &snap_path, |w| {
            w.write_all(&file_header(self.model_fp, next))?;
            for &(key, entry) in entries {
                write_frame(w, &encode_record(key, entry))?;
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
    /// is rebuilt (and the recovery report says so), output matches a
    /// storeless run, and the rebuilt directory recovers normally again.
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
        let report = store.recovery_report().expect("a durable store reports");
        assert!(
            report.ends_with(" (incompatible state rebuilt)"),
            "{report}"
        );
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

    /// A directory of another format version is rebuilt, never trusted:
    /// version 1, the format of every store written before records held
    /// outputs only, and a future version. The fault stamps the version
    /// into the manifest and into the header of every store file.
    #[test]
    fn version_mismatch_rebuilds_instead_of_trusting() {
        for version in [1, FORMAT_VERSION + 1] {
            reopen_rebuilds_after(&format!("version-{version}"), |dir| {
                let manifest = dir.join(MANIFEST_FILE);
                let text = fs::read_to_string(&manifest).expect("read manifest");
                let ours = format!("format_version {FORMAT_VERSION}\n");
                assert!(text.contains(&ours), "{text}");
                let text = text.replace(&ours, &format!("format_version {version}\n"));
                fs::write(&manifest, text).expect("rewrite manifest");
                for name in [LOG_FILE.to_string(), snapshot_file(1)] {
                    let path = dir.join(name);
                    let mut bytes = fs::read(&path).expect("read store file");
                    bytes[4..8].copy_from_slice(&version.to_le_bytes());
                    fs::write(&path, bytes).expect("restamp store file");
                }
            });
        }
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

    /// Both `TableMentionKind`s, with every `AggregationKind`.
    const KINDS: [TableMentionKind; 8] = {
        use AggregationKind::*;
        use TableMentionKind::Aggregate;
        [
            TableMentionKind::SingleCell,
            Aggregate(Sum),
            Aggregate(Difference),
            Aggregate(Percentage),
            Aggregate(ChangeRatio),
            Aggregate(Average),
            Aggregate(Max),
            Aggregate(Min),
        ]
    };

    const STAGES: [Stage; 6] = [
        Stage::Extraction,
        Stage::VirtualCells,
        Stage::Classification,
        Stage::GraphConstruction,
        Stage::Resolution,
        Stage::Batch,
    ];

    const ACTIONS: [DegradedAction; 4] = [
        DegradedAction::Skipped,
        DegradedAction::Truncated,
        DegradedAction::Fallback,
        DegradedAction::Cancelled,
    ];

    /// The three `Option<Orientation>` forms, indexed `0..3`.
    fn orientation(form: usize, i: usize) -> Option<Orientation> {
        [
            None,
            Some(Orientation::Row(i)),
            Some(Orientation::Column(i)),
        ][form]
    }

    /// An entry that writes every tag the codec knows — each `Unit`,
    /// `AggregationKind` (through `TableMentionKind`), `Stage` and
    /// `DegradedAction` variant, and all three `Option<Orientation>`
    /// forms — plus NaN, −0.0 and ±∞.
    fn every_tag_entry() -> DocEntry {
        let floats = [f64::NAN, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.5];
        let alignments = all_units()
            .into_iter()
            .enumerate()
            .map(|(i, unit)| Alignment {
                mention_start: i,
                mention_end: i + 2,
                mention_raw: format!("m{i}"),
                target: TableMention {
                    table: i % 2,
                    kind: KINDS[i % KINDS.len()],
                    cells: vec![(i, 0), (i, 1)],
                    value: floats[i % 5],
                    unnormalized: floats[(i + 2) % 5],
                    raw: format!("c{i}"),
                    unit,
                    precision: 2,
                    orientation: orientation(i % 3, i),
                },
                score: floats[(i + 1) % 5],
            })
            .collect();
        let items = STAGES.iter().enumerate().map(|(i, &stage)| Diagnostic {
            stage,
            scope: format!("table {i}"),
            error: "\"quoted\" é∞\\ \u{0}".into(),
            action: ACTIONS[i % ACTIONS.len()],
        });
        let candidates = (0..3)
            .map(|i| {
                let score = floats[i];
                vec![Candidate { target: i, score }]
            })
            .collect();
        DocEntry {
            config_fp: 1,
            text_fp: 2,
            table_fps: vec![4, u64::MAX],
            mentions: 16,
            targets: 40,
            out: AlignOutput {
                alignments,
                diagnostics: Diagnostics {
                    items: items.collect(),
                },
                stats: FilterStats {
                    total: [("single".into(), 3), ("sum".into(), 1)].into(),
                    kept: [("single".into(), 1)].into(),
                },
                candidates,
            },
            approx_bytes: 0,
            last_used: 0,
        }
    }

    /// The entries of `docs` aligned through a fresh durable store,
    /// key-ordered.
    fn aligned_entries(docs: &[Document]) -> Vec<(u64, DocEntry)> {
        let briq = briq();
        let dir = TempDir::new("records");
        let store = persistent(&briq, dir.path());
        align_all(&briq, &store, docs);
        let mut entries: Vec<(u64, DocEntry)> = std::mem::take(&mut lock(&store.entries).map)
            .into_iter()
            .collect();
        entries.sort_unstable_by_key(|&(key, _)| key);
        entries
    }

    /// `v`'s encoding: compares values bit for bit, NaN payloads included.
    fn bytes(v: &impl Wire) -> Vec<u8> {
        let mut out = Vec::new();
        v.put(&mut out);
        out
    }

    /// The on-disk format, pinned: FNV-1a digests of the records that
    /// aligning fixed documents through a durable store writes, and of
    /// [`every_tag_entry`]'s record. A digest moves when any layout, tag,
    /// or field order does (which must also bump `FORMAT_VERSION`), or
    /// when what the pipeline outputs for these documents does. Each
    /// aligned record is hashed with its `config_fp` slot set to 0: that
    /// slot hashes the model's JSON, so a config change would otherwise
    /// move the pin although the format did not.
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
        let digests: Vec<u64> = aligned_entries(&fixed)
            .into_iter()
            .map(|(key, mut entry)| {
                entry.config_fp = 0;
                checksum(&encode_record(key, &entry))
            })
            .collect();
        assert_eq!(
            digests,
            [0x74f2f4ad4c982dba, 0xca9a1de3feda24fe, 0xd64522c1df44015a],
            "{digests:#018x?}"
        );
        let payload = encode_record(0xFEED, &every_tag_entry());
        assert_eq!(
            checksum(&payload),
            0xa6f591abeea3953c,
            "{:#018x}",
            checksum(&payload)
        );
        let (key, entry) = decode_record(&payload).expect("recover");
        assert_eq!(key, 0xFEED);
        assert_eq!(encode_record(key, &entry), payload);
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

    fn any_target() -> impl Strategy<Value = TableMention> {
        (
            (0usize..4, 0..KINDS.len(), 0usize..3, 0usize..64),
            proptest::collection::vec((0usize..64, 0usize..64), 0..4),
            (
                any_f64(),
                any_f64(),
                any_string(),
                any_unit(),
                0u8..=u8::MAX,
            ),
        )
            .prop_map(
                |(
                    (table, kind, form, line),
                    cells,
                    (value, unnormalized, raw, unit, precision),
                )| {
                    TableMention {
                        table,
                        kind: KINDS[kind],
                        cells,
                        value,
                        unnormalized,
                        raw,
                        unit,
                        precision,
                        orientation: orientation(form, line),
                    }
                },
            )
    }

    fn any_alignment() -> impl Strategy<Value = Alignment> {
        (
            0usize..4096,
            0usize..4096,
            any_string(),
            any_target(),
            any_f64(),
        )
            .prop_map(|(mention_start, mention_end, mention_raw, target, score)| {
                Alignment {
                    mention_start,
                    mention_end,
                    mention_raw,
                    target,
                    score,
                }
            })
    }

    fn any_diagnostic() -> impl Strategy<Value = Diagnostic> {
        (
            0..STAGES.len(),
            any_string(),
            any_string(),
            0..ACTIONS.len(),
        )
            .prop_map(|(stage, scope, error, action)| Diagnostic {
                stage: STAGES[stage],
                scope,
                error,
                action: ACTIONS[action],
            })
    }

    fn any_counts() -> impl Strategy<Value = BTreeMap<String, usize>> {
        proptest::collection::vec((any_string(), 0usize..1000), 0..4)
            .prop_map(|counts| counts.into_iter().collect())
    }

    /// Any entry: any fingerprints and counts, and 0–6 mentions' kept
    /// candidates beside any alignments, diagnostics and filter totals.
    fn any_entry() -> impl Strategy<Value = DocEntry> {
        let candidate =
            (0usize..4096, any_f64()).prop_map(|(target, score)| Candidate { target, score });
        (
            (
                0u64..=u64::MAX,
                0u64..=u64::MAX,
                proptest::collection::vec(0u64..=u64::MAX, 0..4),
            ),
            (0u64..=u64::MAX, 0u64..=u64::MAX),
            proptest::collection::vec(proptest::collection::vec(candidate, 0..8), 0..=6),
            proptest::collection::vec(any_alignment(), 0..6),
            proptest::collection::vec(any_diagnostic(), 0..4),
            (any_counts(), any_counts()),
        )
            .prop_map(
                |(
                    (config_fp, text_fp, table_fps),
                    (mentions, targets),
                    candidates,
                    alignments,
                    items,
                    (total, kept),
                )| DocEntry {
                    config_fp,
                    text_fp,
                    table_fps,
                    mentions,
                    targets,
                    out: AlignOutput {
                        alignments,
                        diagnostics: Diagnostics { items },
                        stats: FilterStats { total, kept },
                        candidates,
                    },
                    approx_bytes: 0,
                    last_used: 0,
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Encode an entry's record, then decode it: the key and every
        /// fingerprint, count and output come back bit for bit (NaN
        /// payloads included), and re-encode to the same bytes. Every
        /// strict prefix of the record is refused, and so is the record
        /// with one byte more.
        #[test]
        fn record_roundtrip_is_identity(
            key in 0u64..=u64::MAX,
            entry in any_entry(),
            extra in 0u8..=u8::MAX,
        ) {
            let payload = encode_record(key, &entry);
            let (key2, back) = decode_record(&payload).expect("a record decodes");
            prop_assert_eq!(key2, key);
            prop_assert_eq!(
                (back.config_fp, back.text_fp, &back.table_fps),
                (entry.config_fp, entry.text_fp, &entry.table_fps)
            );
            prop_assert_eq!((back.mentions, back.targets), (entry.mentions, entry.targets));
            prop_assert_eq!(bytes(&back.out), bytes(&entry.out));
            prop_assert_eq!(&encode_record(key2, &back), &payload);
            for cut in 0..payload.len() {
                prop_assert!(decode_record(&payload[..cut]).is_err(), "prefix of {} bytes accepted", cut);
            }
            let mut longer = payload;
            longer.push(extra);
            prop_assert!(decode_record(&longer).is_err(), "a trailing byte was accepted");
        }

        /// Truncating a valid record stream at ANY byte offset recovers
        /// the longest valid prefix and never errors.
        #[test]
        fn any_truncation_point_recovers_prefix(cut_frac in 0.0f64..1.0) {
            let mut stream = file_header(1234, 0);
            let records = aligned_entries(&docs());
            for (key, entry) in &records {
                write_frame(&mut stream, &encode_record(*key, entry)).expect("frame into a Vec");
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
            prop_assert!(entries.len() <= records.len());
            prop_assert_eq!(torn, valid_len as usize != cut);
            // The recovered prefix, encoded again, re-frames to the
            // stream prefix.
            let mut replay = Vec::new();
            for (key, entry) in &entries {
                write_frame(&mut replay, &encode_record(*key, entry)).expect("frame into a Vec");
            }
            prop_assert_eq!(&stream[HEADER_LEN as usize..valid_len as usize], &replay[..]);
        }
    }
}
