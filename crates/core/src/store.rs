//! Versioned alignment store with incremental re-alignment (DESIGN.md §15).
//!
//! The batch pipeline is stateless: every run recomputes every document
//! from scratch, even though real workloads re-align near-identical page
//! versions over and over. The [`AlignmentStore`] caches, per document
//! key, what aligning the document produced — its alignments, kept
//! candidates, diagnostics and filter totals — guarded by content
//! fingerprints of the config, the paragraph text and every table.
//!
//! On re-alignment of a new page version the store diffs fingerprints,
//! and a document is one of two things:
//!
//! - **A full hit** — config, paragraph text, and every table fingerprint
//!   match: the cached outputs are served verbatim; classify, filter, and
//!   resolution do not run at all.
//! - **A full recompute** — anything changed: the prior entry is
//!   invalidated, and the document runs every stage exactly as it does
//!   without a store before its new version is cached.
//!
//! An entry keeps no extraction intermediates (mentions, contexts,
//! targets): they would be nearly all of its bytes, and replaying the
//! extraction half an edit left alone would spare a changed document
//! only about an eighth of its alignment time (DESIGN.md §15).
//!
//! The store is a lookup and an insert around the pipeline's one stage
//! sequence, not a second copy of it: [`Briq::align_with`] runs
//! `AlignmentStore::lookup` inside the `extract` span (so
//! fingerprinting is charged to extraction), runs every later stage
//! exactly as the storeless path does when the lookup misses, and hands
//! the result to `AlignmentStore::insert`. A hit serves only what the
//! full recompute produced for inputs with the same fingerprints, which
//! is the bit-identity argument. Both paths record the same spans and
//! pipeline counters; only the store counters are the store's own.
//! Passing no store (`briq-align --oracle` passes none) is the reference
//! CI byte-compares the two paths against on real corpora every run.
//!
//! With [`StoreOptions::dir`] set, the store is additionally backed by
//! the [`persist`] layer (DESIGN.md §16): every cached entry is appended
//! to an on-disk novelty log as its v1 record, periodically compacted
//! into snapshots, and recovered on the next open — so warm starts
//! survive process restarts. A durable entry keeps its encoded record:
//! compaction writes it verbatim, and recovery streams the records in
//! and decodes only their fingerprints and outputs.
//! [`StoreOptions::max_bytes`] bounds resident memory with LRU eviction.
//! Every entry enters the map through one insert path, a live miss's and
//! each recovered record alike, so the budget also binds while recovery
//! streams records in. A bounded durable store persists what it keeps
//! resident: an evicted document leaves the disk at the next snapshot and
//! recomputes after a restart, bit-identically. Neither persistence nor
//! eviction changes any output: they only move work between "served from
//! cache" and "recomputed", never alter a result.

pub mod persist;

use std::collections::HashMap;
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use briq_table::{Document, Table};

use crate::error::Budget;
use crate::filtering::Candidate;
use crate::mention::Alignment;
use crate::obs::{names, Recorder};
use crate::pipeline::{AlignOutput, Briq, Extracted};

/// Incremental FNV-1a hasher used for every content fingerprint. FNV is
/// fully deterministic — no per-process seed — so fingerprints are
/// stable across runs, processes, and hosts, which the store's
/// versioning contract (and the fingerprint proptests) require.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

impl Fingerprint {
    /// Start a fresh fingerprint.
    pub fn new() -> Fingerprint {
        Fingerprint { state: FNV_OFFSET }
    }

    /// Fold raw bytes into the fingerprint.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Fold a `u64` (little-endian bytes).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold a `usize` (widened; stable across pointer widths).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Fold a string, length-prefixed so `("ab","c")` and `("a","bc")`
    /// cannot collide structurally.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }

    /// The 64-bit fingerprint.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Store key of a page: the fingerprint of the identity its caller
/// names it by (`briq-align`: the file's basename; `briq-serve`: a
/// string `id`'s text, any other `id` in compact JSON, else its HTML).
/// [`doc_key`] derives each of the page's document keys from it, so a
/// page ingested again under the same identity finds its documents where
/// it left them.
pub fn page_key(identity: &str) -> u64 {
    let mut fp = Fingerprint::new();
    fp.str(identity);
    fp.finish()
}

/// Store key of the document at segment index `segment` of the page
/// keyed `page_key`.
pub fn doc_key(page_key: u64, segment: usize) -> u64 {
    let mut fp = Fingerprint::new();
    fp.u64(page_key);
    fp.usize(segment);
    fp.finish()
}

/// Fingerprint of a paragraph's raw text. Everything the text side of
/// extraction produces (tokens, stem sets, phrases, mention contexts) is
/// a pure function of this string plus the context config.
pub fn text_fingerprint(text: &str) -> u64 {
    let mut fp = Fingerprint::new();
    fp.str(text);
    fp.finish()
}

/// Fingerprint of one table: caption, shape, detected header split, and
/// every cell string. All other [`Table`] state (parsed quantities, unit
/// and scale hints) is derived deterministically from these, so two
/// tables with equal fingerprints produce identical contexts, targets,
/// and tagger counts.
pub fn table_fingerprint(t: &Table) -> u64 {
    let mut fp = Fingerprint::new();
    fp.str(&t.caption);
    fp.usize(t.n_rows);
    fp.usize(t.n_cols);
    fp.usize(t.header_rows);
    fp.usize(t.header_cols);
    fp.usize(t.cells.len());
    for row in &t.cells {
        fp.usize(row.len());
        for cell in row {
            fp.str(cell);
        }
    }
    fp.finish()
}

/// Fingerprint of the per-call [`Budget`]. Budgets change which targets
/// are generated and when graph construction truncates, so they are part
/// of the store's config fingerprint.
pub fn budget_fingerprint(b: &Budget) -> u64 {
    let mut fp = Fingerprint::new();
    // The slots of the retired regex step cap and walk iteration cap
    // keep their old defaults: `config_fp` is persisted in every store
    // entry, and a changed fingerprint would recompute every stored
    // document. The walk cap is `ResolutionConfig::max_iterations`,
    // which the model fingerprint covers.
    fp.usize(1_000_000);
    fp.usize(b.max_virtual_cells_per_table);
    fp.usize(b.max_graph_edges);
    fp.usize(200);
    fp.finish()
}

/// Fingerprint of the whole system identity: configuration, trained
/// classifier, and tagger, via the model's canonical JSON serialization.
/// Any retrain or config change flips it, invalidating every entry.
pub fn model_fingerprint(briq: &Briq) -> u64 {
    let mut fp = Fingerprint::new();
    match briq.to_json() {
        Ok(s) => fp.str(&s),
        Err(_) => fp.str("unserializable-model"),
    }
    fp.finish()
}

/// What the store keeps for one document version: the fingerprints a
/// lookup compares and the outputs a full hit serves.
#[derive(Debug)]
pub(crate) struct DocEntry {
    config_fp: u64,
    text_fp: u64,
    table_fps: Vec<u64>,
    /// The document's mention and target counts, which a full hit records
    /// in place of the extraction it skips.
    mentions: u64,
    targets: u64,
    /// The document's outputs, served verbatim on a full hit.
    out: AlignOutput,
    /// In a durable store, the entry's encoded v1 record (store key
    /// first), which compaction writes verbatim; empty in an in-memory
    /// store.
    record: Box<[u8]>,
    /// Estimated resident size, set by `AlignmentStore::put`.
    approx_bytes: u64,
    /// LRU clock value of the last put or hit that touched this entry
    /// (monotone per-store counter, not wall time). Not persisted.
    last_used: u64,
}

impl DocEntry {
    /// Coarse resident-size estimate for the `store_bytes_peak` gauge and
    /// the eviction budget: the kept record, the string payloads, and
    /// shallow container sizes.
    fn estimate_bytes(&self) -> u64 {
        let mut n = std::mem::size_of::<DocEntry>() + self.table_fps.len() * 8 + self.record.len();
        for c in &self.out.candidates {
            n += c.len() * std::mem::size_of::<Candidate>() + 64;
        }
        for a in &self.out.alignments {
            n += std::mem::size_of::<Alignment>() + a.mention_raw.len() + 32;
        }
        n += self.out.diagnostics.items.len() * 128;
        n as u64
    }
}

/// `N entry` / `N entries`, for the store report lines.
fn entries(n: u64) -> String {
    format!("{n} entr{}", if n == 1 { "y" } else { "ies" })
}

/// Construction options for an [`AlignmentStore`].
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Directory for the durable backing (novelty log + snapshots +
    /// manifest). `None` (the default) keeps the store in-memory only.
    pub dir: Option<PathBuf>,
    /// Resident-memory budget in (estimated) bytes; `0` means unbounded.
    /// An entry is estimated at the size of its outputs, a few KB per
    /// document, plus, in a durable store, the v1 record it keeps for
    /// compaction to write verbatim (~150 KB per generated document).
    /// Every entry, a live miss's and each recovered record alike, enters
    /// through one insert path; one that takes the store over the budget
    /// evicts least-recently-used entries down to 7/8 of it, so eviction
    /// runs once per ~1/8 of the budget inserted rather than after every
    /// insert. Recovery streams records in one at a time, so the budget
    /// binds while they are read, not after.
    ///
    /// A bounded durable store persists what it keeps resident: a
    /// snapshot writes the resident entries, so an evicted document
    /// leaves the disk at the next snapshot and, after a restart, is
    /// recomputed, bit-identically.
    pub max_bytes: u64,
    /// Floor of the novelty-log size that triggers a compacting
    /// snapshot: the log compacts once it exceeds both this and the
    /// current snapshot's size, so a store with no snapshot yet compacts
    /// at this size. Only meaningful with `dir` set. The `briq-perf`
    /// benchmark sets it to `u64::MAX` to build its warm store with one
    /// snapshot at the end.
    pub compact_log_bytes: u64,
}

impl Default for StoreOptions {
    fn default() -> StoreOptions {
        StoreOptions {
            dir: None,
            max_bytes: 0,
            compact_log_bytes: 4 << 20,
        }
    }
}

/// Resident bytes an eviction leaves at most: 7/8 of the budget, so the
/// next eviction waits for ~1/8 of the budget of inserts.
fn low_water(max_bytes: u64) -> u64 {
    max_bytes - max_bytes / 8
}

/// Pure LRU eviction planner: given `(key, last_used, bytes)` per entry
/// and a byte budget, return the keys to evict. Nothing is evicted while
/// the entries fit the budget; once they exceed it, entries go
/// least-recently-used first (key order breaks ties deterministically)
/// until the survivors fit [`low_water`]. The most-recently-used entry is
/// never evicted, so the entry a lookup just produced cannot be dropped
/// before it is ever served.
pub(crate) fn evict_plan(items: &[(u64, u64, u64)], max_bytes: u64) -> Vec<u64> {
    let total: u64 = items.iter().map(|&(_, _, b)| b).sum();
    if max_bytes == 0 || total <= max_bytes || items.is_empty() {
        return Vec::new();
    }
    let target = low_water(max_bytes);
    let mut order: Vec<&(u64, u64, u64)> = items.iter().collect();
    order.sort_by_key(|&&(key, used, _)| (used, key));
    let mut resident = total;
    let mut evict = Vec::new();
    // `order.len() - 1`: the last (most-recently-used) entry survives
    // even when it alone exceeds the budget.
    for &&(key, _, bytes) in order.iter().take(order.len() - 1) {
        if resident <= target {
            break;
        }
        resident -= bytes;
        evict.push(key);
    }
    evict
}

/// Every entry, key-ordered: the order of a snapshot's records.
fn key_ordered(map: &HashMap<u64, DocEntry>) -> Vec<(u64, &DocEntry)> {
    let mut entries: Vec<(u64, &DocEntry)> = map.iter().map(|(&k, e)| (k, e)).collect();
    entries.sort_unstable_by_key(|&(k, _)| k);
    entries
}

/// The entry map and what is accounted with it, all under one lock: the
/// entries' estimated resident bytes, their high-water mark, and the LRU
/// clock.
#[derive(Debug, Default)]
struct Entries {
    map: HashMap<u64, DocEntry>,
    bytes: u64,
    peak: u64,
    /// Monotone LRU clock; bumped on every put and hit.
    tick: u64,
}

impl Entries {
    /// Remove `key`'s entry, if any, and its bytes.
    fn remove(&mut self, key: u64) -> Option<DocEntry> {
        let e = self.map.remove(&key)?;
        self.bytes -= e.approx_bytes;
        Some(e)
    }
}

/// What a missed lookup carries from extraction to the insert: the new
/// version's fingerprints.
pub(crate) struct Miss {
    config_fp: u64,
    text_fp: u64,
    table_fps: Vec<u64>,
}

/// A versioned, thread-shared cache of per-document alignment artifacts.
///
/// The store is deliberately **not** part of [`Briq`]: the system stays
/// `Send + Sync + Clone` and batch/serve configs stay `Copy`; callers
/// that want incremental re-alignment pass a store (and a stable
/// per-document key) alongside the system. Interior mutability — one
/// mutex around the entry map and its byte accounting, plus atomic
/// counters — makes one store shareable across every batch worker and
/// serve worker; output stays input-order deterministic because cache
/// state can only ever change *which work is skipped*, never *what any
/// document's output is*.
#[derive(Debug)]
pub struct AlignmentStore {
    model_fp: u64,
    entries: Mutex<Entries>,
    lookups: AtomicU64,
    hits: AtomicU64,
    max_bytes: u64,
    persist_errors: AtomicU64,
    recovered: u64,
    recover_s: f64,
    recover_truncated: bool,
    recover_rebuilt: bool,
    persist: Option<persist::Persistence>,
}

impl AlignmentStore {
    /// Create a store bound to `briq`'s identity under `opts`. The model
    /// fingerprint is computed once here; aligning through the store
    /// with a *different* (retrained/reconfigured) system invalidates
    /// entries on contact rather than serving stale artifacts.
    ///
    /// Without a `dir` the store is in-memory and opening cannot fail.
    /// With one, it opens (or creates) the durable backing and recovers
    /// what it holds — streaming the snapshot's records, then the novelty
    /// log's, into the store one at a time through the insert path a live
    /// miss takes, so a later record replaces an earlier one for the same
    /// key and the memory budget binds as records arrive — before the
    /// store serves its first lookup. Fails only on real I/O errors;
    /// corrupt or incompatible on-disk state recovers to a smaller
    /// (possibly empty) store instead of failing (see [`persist`]).
    pub fn with_options(briq: &Briq, opts: &StoreOptions) -> std::io::Result<AlignmentStore> {
        let mut store = AlignmentStore {
            model_fp: model_fingerprint(briq),
            entries: Mutex::default(),
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            max_bytes: opts.max_bytes,
            persist_errors: AtomicU64::new(0),
            recovered: 0,
            recover_s: 0.0,
            recover_truncated: false,
            recover_rebuilt: false,
            persist: None,
        };
        if let Some(dir) = &opts.dir {
            let t = Instant::now();
            // Recovery's evictions are not counted: no recorder is open.
            let (p, rec) = persist::Persistence::open(
                dir,
                store.model_fp,
                opts.compact_log_bytes,
                &mut |key, entry| {
                    store.put(key, entry);
                },
            )?;
            store.recovered = store.len() as u64;
            store.recover_s = t.elapsed().as_secs_f64();
            store.recover_truncated = rec.truncated;
            store.recover_rebuilt = rec.rebuilt;
            store.persist = Some(p);
        }
        Ok(store)
    }

    /// Number of cached documents.
    pub fn len(&self) -> usize {
        lock(&self.entries).map.len()
    }

    /// True if nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total lookups (one per aligned document).
    pub fn lookups(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    /// Full-document hits served verbatim from cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// High-water mark of the store's estimated resident bytes, recovery
    /// included.
    pub fn bytes_peak(&self) -> u64 {
        lock(&self.entries).peak
    }

    /// True when this store has a durable on-disk backing.
    pub fn persisted(&self) -> bool {
        self.persist.is_some()
    }

    /// Entries recovered from disk when this store was opened.
    pub fn recovered_entries(&self) -> u64 {
        self.recovered
    }

    /// Wall-clock seconds spent recovering the on-disk state at open.
    pub fn recover_seconds(&self) -> f64 {
        self.recover_s
    }

    /// True if recovery truncated a torn tail record in the snapshot or
    /// log (a crash interrupted a write; the valid prefix was kept).
    pub fn recover_truncated(&self) -> bool {
        self.recover_truncated
    }

    /// True if recovery discarded incompatible or foreign on-disk state
    /// (format-version bump, model/config change, unmanifested files)
    /// and rebuilt the directory from scratch.
    pub fn recover_rebuilt(&self) -> bool {
        self.recover_rebuilt
    }

    /// Current novelty-log size in bytes (0 without persistence).
    pub fn log_bytes(&self) -> u64 {
        self.persist.as_ref().map_or(0, |p| p.log_bytes())
    }

    /// Current snapshot size in bytes (0 without persistence or before
    /// the first snapshot).
    pub fn snapshot_bytes(&self) -> u64 {
        self.persist.as_ref().map_or(0, |p| p.snapshot_bytes())
    }

    /// Compacting snapshots written by this process.
    pub fn compactions(&self) -> u64 {
        self.persist.as_ref().map_or(0, |p| p.compactions())
    }

    /// Persistence I/O failures. Append/snapshot errors degrade the
    /// store to best-effort (the in-memory cache and all outputs are
    /// unaffected); this counter is how operators notice.
    pub fn persist_errors(&self) -> u64 {
        self.persist_errors.load(Ordering::Relaxed)
    }

    /// Write a compacting snapshot of the current entries and reset the
    /// novelty log. No-op without persistence. Called on graceful drain
    /// and after warm-up passes; also triggered automatically once the
    /// log outgrows both the current snapshot and the
    /// [`StoreOptions::compact_log_bytes`] floor. Each entry's kept
    /// record is written verbatim, in key order, so a snapshot encodes
    /// nothing and copies nothing of the live set.
    pub fn snapshot(&self) -> std::io::Result<()> {
        let Some(p) = &self.persist else {
            return Ok(());
        };
        // Hold the entry lock across the write so the snapshot is a
        // consistent point-in-time view. write_snapshot takes the snap
        // and log locks *inside* this — the lock order entries → snap →
        // log is the only one used anywhere (appends take log alone).
        let entries = lock(&self.entries);
        let records: Vec<&[u8]> = key_ordered(&entries.map)
            .into_iter()
            .map(|(_, e)| &*e.record)
            .collect();
        p.write_snapshot(&records)
    }

    /// The line reporting what opening a durable store recovered —
    /// `store: recovered N entries from DIR in S.SSSs`, with ` (torn tail
    /// truncated)` and ` (incompatible state rebuilt)` appended when
    /// recovery repaired the directory. `None` for an in-memory store.
    /// `briq-align` and `briq-serve` both print it to stderr.
    pub fn recovery_report(&self) -> Option<String> {
        let p = self.persist.as_ref()?;
        Some(format!(
            "store: recovered {} from {} in {:.3}s{}{}",
            entries(self.recovered),
            p.dir().display(),
            self.recover_s,
            if self.recover_truncated {
                " (torn tail truncated)"
            } else {
                ""
            },
            if self.recover_rebuilt {
                " (incompatible state rebuilt)"
            } else {
                ""
            },
        ))
    }

    /// The line reporting a successful [`AlignmentStore::snapshot`]:
    /// `store: persisted N entries (B snapshot bytes)`.
    pub fn persisted_report(&self) -> String {
        format!(
            "store: persisted {} ({} snapshot bytes)",
            entries(self.len() as u64),
            self.snapshot_bytes()
        )
    }

    /// The kept records of every resident entry, key-ordered (empty
    /// records in an in-memory store). Test surface for the persistence
    /// layer.
    #[cfg(test)]
    pub(crate) fn encoded_entries(&self) -> Vec<Vec<u8>> {
        key_ordered(&lock(&self.entries).map)
            .into_iter()
            .map(|(_, e)| e.record.to_vec())
            .collect()
    }

    /// The one way into the entry map, for a live miss and a recovered
    /// record alike: stamp the LRU clock, size the entry, add its bytes
    /// and update the peak, replace any prior entry for `key`, and, once
    /// the resident estimate exceeds the budget, evict least-recently-used
    /// entries down to its low-water mark (see [`evict_plan`]). Returns
    /// the number evicted. Eviction only removes cache entries — a later
    /// lookup for an evicted key recomputes and produces identical output.
    /// The next snapshot writes only the resident entries, so an evicted
    /// document leaves the disk then, and recomputes after a restart.
    fn put(&self, key: u64, mut entry: DocEntry) -> u64 {
        let mut entries = lock(&self.entries);
        entries.tick += 1;
        entry.last_used = entries.tick;
        entry.approx_bytes = entry.estimate_bytes();
        entries.bytes += entry.approx_bytes;
        entries.peak = entries.peak.max(entries.bytes);
        if let Some(old) = entries.map.insert(key, entry) {
            entries.bytes -= old.approx_bytes;
        }
        if self.max_bytes == 0 || entries.bytes <= self.max_bytes {
            return 0;
        }
        let items: Vec<(u64, u64, u64)> = entries
            .map
            .iter()
            .map(|(&k, e)| (k, e.last_used, e.approx_bytes))
            .collect();
        let evict = evict_plan(&items, self.max_bytes);
        for &k in &evict {
            entries.remove(k);
        }
        evict.len() as u64
    }

    /// Reset the hit and lookup counters (entries and byte gauges
    /// stay). Lets callers measure one pass in isolation.
    pub fn reset_counters(&self) {
        self.lookups.store(0, Ordering::Relaxed);
        self.hits.store(0, Ordering::Relaxed);
    }

    /// Cache the new version of a document the lookup missed: its
    /// fingerprints, its mention and target counts, and its finished
    /// outputs. A durable store also encodes the document's v1 record,
    /// which the entry keeps and the novelty log appends; the extraction
    /// intermediates are dropped once that record is written. Every
    /// mention of the document was aligned again, so all of them count
    /// as `mentions_realigned`.
    pub(crate) fn insert(
        &self,
        key: u64,
        miss: Miss,
        x: Extracted,
        out: &AlignOutput,
        rec: &Recorder,
    ) {
        let (mentions, targets) = (x.mentions.len() as u64, x.targets.len() as u64);
        rec.count(names::MENTIONS_REALIGNED, mentions);
        let payload = self
            .persist
            .as_ref()
            .map(|_| persist::encode_record(key, &miss, x, out));
        let entry = DocEntry {
            config_fp: miss.config_fp,
            text_fp: miss.text_fp,
            table_fps: miss.table_fps,
            mentions,
            targets,
            out: out.clone(),
            record: payload.as_deref().map_or_else(Box::default, Box::from),
            approx_bytes: 0,
            last_used: 0,
        };
        let evicted = self.put(key, entry);
        if evicted > 0 {
            rec.count(names::STORE_EVICTIONS, evicted);
        }
        if let (Some(p), Some(payload)) = (&self.persist, payload) {
            // The append happens after the entry is in the map and the
            // budget is applied, so a compaction in between or triggered
            // here covers it and persists what eviction left, and after the
            // lock drops, so disk I/O never serializes other workers'
            // lookups. Persistence is best-effort on the hot path: an
            // append or snapshot failure costs durability (counted), never
            // correctness — the in-memory entry is already cached.
            if p.append(&payload).is_err() {
                self.persist_errors.fetch_add(1, Ordering::Relaxed);
            }
            if p.wants_compact() && self.snapshot().is_err() {
                self.persist_errors.fetch_add(1, Ordering::Relaxed);
            }
            rec.observe(names::STORE_LOG_BYTES, p.log_bytes() as f64);
        }
        rec.observe(names::STORE_BYTES_PEAK, self.bytes_peak() as f64);
    }

    /// Fingerprint `doc` and look `key` up. A full hit — config,
    /// paragraph text, and every table unchanged — ends the document with
    /// the cached outputs, served verbatim: classify, filter, and
    /// resolution do not run at all. Otherwise any prior entry is
    /// invalidated, and the [`Miss`] that [`AlignmentStore::insert`]
    /// caches the new version under is handed back.
    pub(crate) fn lookup(
        &self,
        key: u64,
        doc: &Document,
        budget: &Budget,
        rec: &Recorder,
    ) -> ControlFlow<AlignOutput, Miss> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let mut cfp = Fingerprint::new();
        cfp.u64(self.model_fp);
        cfp.u64(budget_fingerprint(budget));
        let config_fp = cfp.finish();
        let text_fp = text_fingerprint(&doc.text);
        let table_fps: Vec<u64> = doc.tables.iter().map(table_fingerprint).collect();
        let prior = {
            let mut guard = lock(&self.entries);
            let entries = &mut *guard;
            if let Some(e) = entries.map.get_mut(&key).filter(|e| {
                e.config_fp == config_fp && e.text_fp == text_fp && e.table_fps == table_fps
            }) {
                entries.tick += 1;
                e.last_used = entries.tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                rec.count(names::STORE_HITS, 1);
                rec.count(names::MENTIONS, e.mentions);
                rec.count(names::TARGETS, e.targets);
                return ControlFlow::Break(e.out.clone());
            }
            entries.remove(key)
        };
        if prior.is_some() {
            rec.count(names::STORE_INVALIDATIONS, 1);
        }
        ControlFlow::Continue(Miss {
            config_fp,
            text_fp,
            table_fps,
        })
    }
}

/// Poison-tolerant lock, shared by the store and the server: a panicked
/// holder (already isolated by `catch_unwind`) must not wedge the store
/// or the server for every other worker.
pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{AlignOpts, BriqConfig};

    /// [`Briq::align_with`] through `store` under document key `key`.
    pub(crate) fn stored(
        briq: &Briq,
        store: &AlignmentStore,
        key: u64,
        doc: &Document,
        budget: Budget,
    ) -> AlignOutput {
        stored_into(briq, store, key, doc, budget, &Recorder::disabled())
    }

    /// [`stored`], recording into `rec`.
    fn stored_into(
        briq: &Briq,
        store: &AlignmentStore,
        key: u64,
        doc: &Document,
        budget: Budget,
        rec: &Recorder,
    ) -> AlignOutput {
        let opts = AlignOpts {
            budget,
            recorder: Some(rec),
            store: Some((store, key)),
            ..AlignOpts::default()
        };
        briq.align_with(doc, &opts)
    }

    fn doc(text: &str, grid: Vec<Vec<String>>) -> Document {
        Document::new(0, text, vec![Table::from_grid("", grid)])
    }

    fn sample() -> Document {
        doc(
            "Overall, a total of 123 patients reported side effects. \
             Depression was reported by 38 patients.",
            vec![
                vec!["side effects".into(), "patients".into()],
                vec!["Rash".into(), "35".into()],
                vec!["Depression".into(), "38".into()],
            ],
        )
    }

    #[test]
    fn fingerprints_are_deterministic() {
        let d = sample();
        assert_eq!(text_fingerprint(&d.text), text_fingerprint(&d.text));
        assert_eq!(
            table_fingerprint(&d.tables[0]),
            table_fingerprint(&d.tables[0].clone())
        );
        let briq = Briq::untrained(BriqConfig::default());
        assert_eq!(model_fingerprint(&briq), model_fingerprint(&briq));
    }

    /// Every durable store on disk is keyed by these values: the first
    /// three are `briq-align`'s keys for those page files (and
    /// `briq-perf`'s `fixture::doc_key(0, 0)`, `(0, 1)` and `(12, 2)`),
    /// the last is `briq-serve`'s for a request with `"id":7`.
    #[test]
    fn store_keys_are_pinned() {
        assert_eq!(
            doc_key(page_key("page_0000.html"), 0),
            0x955f_7f4c_bdfb_3f3f
        );
        assert_eq!(
            doc_key(page_key("page_0000.html"), 1),
            0x7664_b843_b30b_f51e
        );
        assert_eq!(
            doc_key(page_key("page_0012.html"), 2),
            0x4bfd_2535_ccc7_7a30
        );
        assert_eq!(doc_key(page_key("7"), 0), 0xccf3_b40b_daa0_619b);
    }

    #[test]
    fn fingerprints_track_content() {
        let d = sample();
        let edited = doc(
            &d.text,
            vec![
                vec!["side effects".into(), "patients".into()],
                vec!["Rash".into(), "36".into()],
                vec!["Depression".into(), "38".into()],
            ],
        );
        assert_ne!(
            table_fingerprint(&d.tables[0]),
            table_fingerprint(&edited.tables[0])
        );
        assert_ne!(
            text_fingerprint(&d.text),
            text_fingerprint("Depression was reported by 39 patients.")
        );
    }

    #[test]
    fn full_hit_serves_verbatim_and_skips_stages() {
        let briq = Briq::untrained(BriqConfig::default());
        let store = AlignmentStore::with_options(&briq, &StoreOptions::default()).unwrap();
        let d = sample();
        let budget = Budget::default();
        let cold = stored(&briq, &store, 7, &d, budget);
        assert_eq!(store.hits(), 0);
        assert_eq!(store.lookups(), 1);
        let rec = Recorder::enabled();
        let opts = AlignOpts {
            budget,
            recorder: Some(&rec),
            store: Some((&store, 7)),
            ..AlignOpts::default()
        };
        let warm = briq.align_with(&d, &opts);
        assert_eq!(store.hits(), 1);
        assert_eq!(cold, warm);
        let trace = rec.finish().expect("an enabled recorder yields a trace");
        for stage in [
            names::SPAN_CLASSIFY,
            names::SPAN_FILTER,
            names::SPAN_GRAPH,
            names::SPAN_RESOLVE,
        ] {
            assert!(
                trace.spans.iter().all(|s| s.name != stage),
                "a full hit opened a {stage} span"
            );
        }
        assert_eq!(trace.metrics.counter(names::PAIRS_SCORED), 0);
        assert_eq!(trace.metrics.counter(names::STORE_HITS), 1);
    }

    #[test]
    fn stored_and_storeless_documents_record_the_same_spans() {
        let briq = Briq::untrained(BriqConfig::default());
        let store = AlignmentStore::with_options(&briq, &StoreOptions::default()).unwrap();
        let trace = |d: &Document, store: Option<(&AlignmentStore, u64)>| {
            let rec = Recorder::enabled();
            let opts = AlignOpts {
                recorder: Some(&rec),
                store,
                ..AlignOpts::default()
            };
            briq.align_with(d, &opts);
            rec.finish().expect("an enabled recorder yields a trace")
        };
        let d = sample();
        let storeless = trace(&d, None);
        let cold = trace(&d, Some((&store, 1)));
        assert_eq!(cold.structure(), storeless.structure());

        // A full hit runs no stage, but still opens the extract span
        // that covers its fingerprinting and lookup.
        let hit = trace(&d, Some((&store, 1)));
        assert_eq!(store.hits(), 1);
        let spans: Vec<&str> = hit.structure().into_iter().map(|s| s.1).collect();
        assert_eq!(spans, [names::SPAN_EXTRACT]);

        // Extra whitespace changes the paragraph: the document is
        // recomputed, every mention is aligned again, and the filter
        // counters are recorded exactly as the storeless run records them.
        let spaced = doc(&d.text.replace(". ", ".   "), d.tables[0].cells.clone());
        let recomputed = trace(&spaced, Some((&store, 1)));
        assert_eq!(recomputed.metrics.counter(names::STORE_INVALIDATIONS), 1);
        assert_eq!(
            recomputed.metrics.counter(names::MENTIONS_REALIGNED),
            recomputed.metrics.counter(names::MENTIONS),
            "every mention of a changed document is aligned again"
        );
        let filter_counters = |t: &crate::obs::DocTrace| -> Vec<(String, u64)> {
            t.metrics
                .counters()
                .filter(|(n, _)| {
                    n.starts_with(names::FILTER_TOTAL_PREFIX)
                        || n.starts_with(names::FILTER_KEPT_PREFIX)
                        || *n == names::CANDIDATES_KEPT
                })
                .map(|(n, v)| (n.to_string(), v))
                .collect()
        };
        let expected = filter_counters(&trace(&spaced, None));
        assert!(!expected.is_empty());
        assert_eq!(filter_counters(&recomputed), expected);
    }

    #[test]
    fn store_matches_full_recompute_after_cell_edit() {
        let briq = Briq::untrained(BriqConfig::default());
        let store = AlignmentStore::with_options(&briq, &StoreOptions::default()).unwrap();
        let budget = Budget::unlimited();
        let d = sample();
        stored(&briq, &store, 1, &d, budget);
        let edited = doc(
            &d.text,
            vec![
                vec!["side effects".into(), "patients".into()],
                vec!["Rash".into(), "41".into()],
                vec!["Depression".into(), "38".into()],
            ],
        );
        let rec = Recorder::enabled();
        let incremental = stored_into(&briq, &store, 1, &edited, budget, &rec);
        let full = briq.align_with(
            &edited,
            &AlignOpts {
                budget,
                ..AlignOpts::default()
            },
        );
        assert_eq!(incremental.alignments, full.alignments);
        assert_eq!(incremental.stats, full.stats);
        assert_eq!(incremental.candidates, full.candidates);
        let metrics = rec.finish().expect("trace").metrics;
        assert_eq!(metrics.counter(names::STORE_INVALIDATIONS), 1);
    }

    /// Brute-force LRU oracle: once the entries exceed the budget, evict
    /// globally-least-recently-used entries one at a time (key breaks
    /// ties) until the survivors fit 7/8 of it, always sparing the
    /// most-recently-used entry.
    fn evict_oracle(items: &[(u64, u64, u64)], max_bytes: u64) -> Vec<u64> {
        let mut live: Vec<(u64, u64, u64)> = items.to_vec();
        let mut evicted = Vec::new();
        let resident = |live: &[(u64, u64, u64)]| live.iter().map(|&(_, _, b)| b).sum::<u64>();
        if max_bytes == 0 || resident(&live) <= max_bytes {
            return evicted;
        }
        let low_water = max_bytes - max_bytes / 8;
        while live.len() > 1 && resident(&live) > low_water {
            let victim = live
                .iter()
                .enumerate()
                .min_by_key(|&(_, &(key, used, _))| (used, key))
                .map(|(i, _)| i)
                .expect("non-empty");
            evicted.push(live.remove(victim).0);
        }
        evicted
    }

    #[test]
    fn evict_plan_matches_brute_force_oracle() {
        // Deterministic pseudo-random item sets: keys, ages, and sizes
        // from a simple LCG, budgets sweeping empty → everything-fits.
        let mut state = 0x2019_0408_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for n in 0..24usize {
            let items: Vec<(u64, u64, u64)> = (0..n)
                .map(|_| (next(), next() % 7, next() % 512 + 1))
                .collect();
            let total: u64 = items.iter().map(|&(_, _, b)| b).sum();
            // `total * 15 / 16` is over budget by less than one low-water
            // gap: it evicts only once, and then down to 7/8 of it.
            for max_bytes in [0, 1, 64, total / 2, total * 15 / 16, total, total + 1] {
                assert_eq!(
                    evict_plan(&items, max_bytes),
                    evict_oracle(&items, max_bytes),
                    "items={items:?} max_bytes={max_bytes}"
                );
            }
        }
    }

    #[test]
    fn eviction_bounds_memory_and_keeps_output_identical() {
        let briq = Briq::untrained(BriqConfig::default());
        // A 1-byte budget: after every insert, everything but the
        // newest entry is evicted.
        let bounded = AlignmentStore::with_options(
            &briq,
            &StoreOptions {
                max_bytes: 1,
                ..StoreOptions::default()
            },
        )
        .expect("in-memory store");
        let oracle = AlignmentStore::with_options(&briq, &StoreOptions::default()).unwrap();
        let budget = Budget::default();
        let rec = Recorder::enabled();
        let d1 = sample();
        let d2 = doc(
            "Revenue grew to $12.5 million in 2018.",
            vec![
                vec!["year".into(), "revenue".into()],
                vec!["2018".into(), "$12.5M".into()],
            ],
        );
        for _ in 0..2 {
            for (k, d) in [(1u64, &d1), (2u64, &d2)] {
                assert_eq!(
                    stored_into(&briq, &bounded, k, d, budget, &rec),
                    stored(&briq, &oracle, k, d, budget),
                );
            }
        }
        assert_eq!(bounded.len(), 1, "budget keeps only the newest entry");
        let metrics = rec.finish().expect("trace").metrics;
        assert!(metrics.counter(names::STORE_EVICTIONS) >= 3);
        // The unbounded oracle store served round 2 from cache; the
        // bounded store recomputed — outputs matched regardless.
        assert_eq!(oracle.hits(), 2);
        assert_eq!(bounded.hits(), 0);
    }
}
