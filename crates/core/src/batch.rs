//! Parallel batch-alignment engine: the production-path replacement for
//! the bench-only thread shim, standing in for the paper's 10-executor
//! Spark deployment (§VI, Table VIII) on a single machine.
//!
//! [`align_batch`] runs [`Briq::align_with`] over a batch of
//! documents on a chunked, work-stealing pool of scoped threads
//! (std-only, no external runtime). [`ingest_page`] is the one way every
//! binary turns a page into the documents and store keys it takes, and
//! this engine is the one code that aligns them: `briq-align` runs it
//! over every page at once, and the server ([`crate::serve`]) over each
//! served page as a one-worker batch under the request's cancel token.
//! The contract:
//!
//! * **Shared read-only system** — one [`Briq`] (classifier forests,
//!   tagger, lexicons, unit tables) is borrowed immutably by every
//!   worker; a compile-time assertion below keeps `Briq: Send + Sync`.
//! * **Per-document budget and fault isolation** — each document runs
//!   under its own [`Budget`] accounting, and a worker panic (should one
//!   ever escape the panic-free pipeline) is caught per document: the
//!   poisoned document degrades to an empty result with a
//!   [`Stage::Batch`] diagnostic, the rest of the batch completes.
//! * **Deterministic output** — results are reported in input order and
//!   are bit-identical for every worker count, because documents never
//!   share mutable state and the merge is index-addressed.
//! * **Observability** — every document records into its own enabled
//!   [`Recorder`]; each worker merges what its documents recorded, and
//!   the [`BatchReport`] carries the batch's merged metrics, the
//!   per-stage totals derived from them (extract / classify / filter /
//!   resolve), per-worker utilization, and per-document [`Diagnostics`].
//!   Span trees are kept per document only when [`BatchConfig::trace`]
//!   is set.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use briq_table::html::parse_page;
use briq_table::segment::{segment_page, SegmentConfig};
use briq_table::Document;

use crate::error::{
    BriqError, Budget, CancelToken, DegradedAction, Diagnostic, Diagnostics, Stage,
};
use crate::mention::Alignment;
use crate::obs::{chrome_trace_json, names, DocTrace, Histogram, MetricsRegistry, Recorder};
use crate::pipeline::{AlignOpts, Briq};
use crate::span;
use crate::store::{doc_key, page_key, AlignmentStore};

/// `Briq` is shared by reference across the worker pool; if a future
/// field (e.g. an interior-mutable cache) breaks that, this fails to
/// compile instead of failing at the first parallel run. The store is
/// the one deliberately interior-mutable participant — its map is
/// mutex-guarded and its counters are atomics, so sharing it is safe.
const fn assert_share_safe<T: Send + Sync>() {}
const _: () = {
    assert_share_safe::<Briq>();
    assert_share_safe::<Budget>();
    assert_share_safe::<Document>();
    assert_share_safe::<AlignmentStore>();
};

/// Seconds spent in each pipeline stage (Fig. 2) over a whole batch,
/// derived from its merged metrics ([`BatchReport::stage_totals`]).
/// The work counters stay in the registry
/// ([`BatchReport::merged_metrics`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    /// Mention extraction, context building, and virtual-cell generation.
    pub extract_s: f64,
    /// Classifier scoring and aggregation tagging of every pair.
    pub classify_s: f64,
    /// Adaptive filtering (§V).
    pub filter_s: f64,
    /// Graph construction and entropy-ordered random-walk resolution
    /// (§VI): the `graph` and `resolve` spans together.
    pub resolve_s: f64,
}

impl StageTimings {
    /// The totals `m` records: each stage's seconds are the sum of its
    /// `span_<stage>_s` latency histogram (`graph` plus `resolve` for
    /// `resolve_s`).
    fn from_metrics(m: &MetricsRegistry) -> StageTimings {
        let secs = |span| {
            m.histogram(&names::span_histogram(span))
                .map_or(0.0, Histogram::sum)
        };
        StageTimings {
            extract_s: secs(names::SPAN_EXTRACT),
            classify_s: secs(names::SPAN_CLASSIFY),
            filter_s: secs(names::SPAN_FILTER),
            resolve_s: secs(names::SPAN_GRAPH) + secs(names::SPAN_RESOLVE),
        }
    }
}

/// Documents a worker claims per steal: enough to amortize the atomic
/// cursor, few enough to balance skewed documents.
const CHUNK: usize = 4;

/// Configuration of one batch run. The default is one worker per core
/// and [`Budget::default`], untraced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchConfig {
    /// Worker threads; `0` means one per available core.
    pub jobs: usize,
    /// Budget applied to every document independently.
    pub budget: Budget,
    /// Keep each document's span tree and metrics in
    /// [`DocReport::trace`] (see [`crate::obs`]). Metrics are recorded
    /// either way; recording is worker-local and observation-only:
    /// alignments and diagnostics are byte-identical with tracing on or
    /// off.
    pub trace: bool,
}

impl BatchConfig {
    /// A config with an explicit worker count and default budget.
    pub fn with_jobs(jobs: usize) -> BatchConfig {
        BatchConfig {
            jobs,
            ..Default::default()
        }
    }

    /// The worker count actually used for `n_docs` documents: explicit
    /// `jobs`, else the core count; never more workers than documents,
    /// never fewer than one.
    pub fn effective_jobs(&self, n_docs: usize) -> usize {
        let requested = if self.jobs == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.jobs
        };
        requested.min(n_docs.max(1)).max(1)
    }
}

/// The outcome of aligning one document of the batch.
#[derive(Debug, Clone, PartialEq)]
pub struct DocReport {
    /// Position of the document in the input batch.
    pub index: usize,
    /// Alignments, bit-identical to a sequential [`Briq::align_with`]
    /// run under the same budget.
    pub alignments: Vec<Alignment>,
    /// Everything that degraded while aligning this document.
    pub diagnostics: Diagnostics,
    /// Span trace and metrics recorded for this document — present only
    /// when [`BatchConfig::trace`] was set. A document whose alignment
    /// panicked keeps what it recorded before the panic.
    pub trace: Option<DocTrace>,
}

/// Load and busy-time of one pool worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerStats {
    /// Worker index in `0..jobs`.
    pub worker: usize,
    /// Documents this worker processed.
    pub documents: usize,
    /// Seconds spent aligning (excludes steal/idle time).
    pub busy_s: f64,
}

impl WorkerStats {
    /// Fraction of the batch wall-clock this worker spent aligning.
    pub fn utilization(&self, wall_s: f64) -> f64 {
        if wall_s <= 0.0 {
            return 0.0;
        }
        (self.busy_s / wall_s).clamp(0.0, 1.0)
    }
}

/// Everything [`align_batch`] observed: per-document results in input
/// order plus pool-level accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Workers actually used.
    pub jobs: usize,
    /// Wall-clock seconds for the whole batch.
    pub wall_s: f64,
    /// One report per input document, in input order.
    pub documents: Vec<DocReport>,
    /// Stage seconds over all documents, derived from the merged
    /// metrics (CPU-seconds, so with `jobs > 1` this exceeds `wall_s`).
    pub stage_totals: StageTimings,
    /// Per-worker load, indexed by worker.
    pub workers: Vec<WorkerStats>,
    /// What every document recorded, merged; see
    /// [`BatchReport::merged_metrics`].
    metrics: MetricsRegistry,
}

impl BatchReport {
    /// Documents that degraded somewhere.
    pub fn degraded_documents(&self) -> usize {
        self.documents
            .iter()
            .filter(|d| !d.diagnostics.is_clean())
            .count()
    }

    /// Did every document go through without degradation?
    pub fn is_clean(&self) -> bool {
        self.documents.iter().all(|d| d.diagnostics.is_clean())
    }

    /// Mean worker utilization over the batch wall-clock.
    pub fn mean_utilization(&self) -> f64 {
        if self.workers.is_empty() {
            return 0.0;
        }
        self.workers
            .iter()
            .map(|w| w.utilization(self.wall_s))
            .sum::<f64>()
            / self.workers.len() as f64
    }

    /// All diagnostics in input order, each scope prefixed with
    /// `doc <index>:` so the batch-level JSONL stream stays attributable.
    /// Contains no timings, so it is byte-identical across worker counts.
    pub fn combined_diagnostics(&self) -> Diagnostics {
        let mut out = Diagnostics::default();
        for d in &self.documents {
            let items = d.diagnostics.items.iter();
            out.items
                .extend(items.map(|item| doc_scoped(d.index, item)));
        }
        out
    }

    /// Every document's recorded metrics merged into one
    /// [`MetricsRegistry`], plus the batch-level `documents` /
    /// `degraded_documents` counters. Counter values and histogram bucket
    /// counts are identical for every worker count and with tracing on
    /// or off (merging is commutative addition); only wall-clock-derived
    /// histogram *values* vary run to run. A document whose alignment
    /// panicked contributes what it recorded before the panic.
    pub fn merged_metrics(&self) -> MetricsRegistry {
        self.metrics.clone()
    }

    /// The batch's traces as one Chrome `trace_event` JSON file (see
    /// [`chrome_trace_json`]): one track per document, on the shared
    /// batch timeline. Empty-but-valid when nothing was traced.
    pub fn chrome_trace(&self) -> String {
        let traced: Vec<(usize, &DocTrace)> = self
            .documents
            .iter()
            .filter_map(|d| d.trace.as_ref().map(|t| (d.index, t)))
            .collect();
        chrome_trace_json(&traced)
    }
}

/// Align every document of `docs` with a shared `briq`, using
/// `cfg.effective_jobs(docs.len())` worker threads. See the module docs
/// for the determinism and isolation contract.
pub fn align_batch(briq: &Briq, docs: &[Document], cfg: &BatchConfig) -> BatchReport {
    align_run(briq, docs, cfg, RunCtx::default())
}

/// [`align_batch`] against a shared [`AlignmentStore`]: one store serves
/// every worker (its map is mutex-guarded; its counters are atomics),
/// and each document is keyed by `keys[i]` — or its batch index when
/// `keys` is `None`. Output stays input-order deterministic and
/// bit-identical to [`align_batch`] for every cache state: the store
/// only ever changes which work is *skipped*, never what a document's
/// output is (see [`crate::store`]). With `use_store: false` the store is
/// never consulted or populated.
pub fn align_batch_stored(
    briq: &Briq,
    docs: &[Document],
    cfg: &BatchConfig,
    store: &AlignmentStore,
    keys: Option<&[u64]>,
) -> BatchReport {
    debug_assert!(keys.is_none_or(|k| k.len() == docs.len()));
    let run = RunCtx {
        store: Some(store),
        keys,
        cancel: None,
    };
    align_run(briq, docs, cfg, run)
}

/// Parse and segment one page into the documents [`align_batch_stored`]
/// takes, numbered from `first_id` as [`segment_page`] numbers them, and
/// key each one `doc_key(page_key(identity), segment)`
/// ([`crate::store::doc_key`]).
///
/// `identity` is what the caller names the page by across runs
/// (`briq-align`: the file's basename; `briq-serve`: the request's `id`,
/// else its HTML; `briq-serve drive` sends the basename as the `id`), so
/// a page ingested again under the same identity is served from a store
/// that aligned it before, by either binary.
pub fn ingest_page(identity: &str, html: &str, first_id: usize) -> (Vec<Document>, Vec<u64>) {
    let docs = segment_page(&parse_page(html), &SegmentConfig::default(), first_id);
    let page = page_key(identity);
    let keys = (0..docs.len())
        .map(|segment| doc_key(page, segment))
        .collect();
    (docs, keys)
}

/// What one run threads through the worker pool to every document's
/// [`AlignOpts`] besides its budget and recorder. The default is no
/// store and no cancellation.
#[derive(Clone, Copy, Default)]
pub(crate) struct RunCtx<'a> {
    /// Align through this store (see [`align_batch_stored`]).
    pub(crate) store: Option<&'a AlignmentStore>,
    /// Each document's store key; `None` keys a document by its index.
    pub(crate) keys: Option<&'a [u64]>,
    /// Cooperative cancellation of every document; `None` never cancels.
    pub(crate) cancel: Option<&'a CancelToken>,
}

impl RunCtx<'_> {
    fn key(&self, index: usize) -> u64 {
        self.keys
            .and_then(|keys| keys.get(index).copied())
            .unwrap_or(index as u64)
    }
}

/// Align `docs` under `cfg` and `run` — the engine behind
/// [`align_batch`], [`align_batch_stored`] and every served page.
pub(crate) fn align_run(
    briq: &Briq,
    docs: &[Document],
    cfg: &BatchConfig,
    run: RunCtx<'_>,
) -> BatchReport {
    let start = Instant::now();
    let jobs = cfg.effective_jobs(docs.len());
    let worker_outputs: Vec<WorkerOutput> = if docs.is_empty() {
        Vec::new()
    } else if jobs <= 1 {
        vec![run_worker(
            0,
            briq,
            docs,
            &AtomicUsize::new(0),
            cfg,
            start,
            run,
        )]
    } else {
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..jobs)
                .map(|w| {
                    let next = &next;
                    scope.spawn(move || run_worker(w, briq, docs, next, cfg, start, run))
                })
                .collect();
            handles
                .into_iter()
                .enumerate()
                .map(|(w, h)| {
                    h.join().unwrap_or_else(|_| {
                        // The worker body is panic-isolated per document;
                        // reaching this means the pool loop itself died.
                        // Surviving workers' results are still merged and
                        // unclaimed documents are reported as panicked.
                        (
                            WorkerStats {
                                worker: w,
                                documents: 0,
                                busy_s: 0.0,
                            },
                            Vec::new(),
                            MetricsRegistry::new(),
                        )
                    })
                })
                .collect()
        })
    };

    let mut slots: Vec<Option<DocReport>> = docs.iter().map(|_| None).collect();
    let mut workers = Vec::with_capacity(worker_outputs.len());
    let mut metrics = MetricsRegistry::new();
    for (stats, reports, recorded) in worker_outputs {
        workers.push(stats);
        metrics.merge(&recorded);
        for r in reports {
            let i = r.index;
            slots[i] = Some(r);
        }
    }
    let documents: Vec<DocReport> = slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| slot.unwrap_or_else(|| panicked_report(i)))
        .collect();
    let mut r = BatchReport {
        jobs,
        wall_s: start.elapsed().as_secs_f64(),
        documents,
        stage_totals: StageTimings::default(),
        workers,
        metrics,
    };
    r.metrics.count(names::DOCUMENTS, r.documents.len() as u64);
    r.metrics
        .count(names::DEGRADED_DOCUMENTS, r.degraded_documents() as u64);
    r.stage_totals = StageTimings::from_metrics(&r.metrics);
    r
}

/// One worker's load, its documents' reports, and the metrics those
/// documents recorded, merged.
type WorkerOutput = (WorkerStats, Vec<DocReport>, MetricsRegistry);

fn run_worker(
    worker: usize,
    briq: &Briq,
    docs: &[Document],
    next: &AtomicUsize,
    cfg: &BatchConfig,
    epoch: Instant,
    run: RunCtx<'_>,
) -> WorkerOutput {
    let mut out = Vec::new();
    let mut metrics = MetricsRegistry::new();
    let mut busy_s = 0.0f64;
    loop {
        let lo = next.fetch_add(CHUNK, Ordering::Relaxed);
        if lo >= docs.len() {
            break;
        }
        let hi = (lo + CHUNK).min(docs.len());
        for (i, doc) in docs[lo..hi].iter().enumerate() {
            let t0 = Instant::now();
            let mut report = align_one(briq, lo + i, doc, cfg, epoch, run);
            if let Some(t) = &report.trace {
                metrics.merge(&t.metrics);
            }
            if !cfg.trace {
                report.trace = None;
            }
            out.push(report);
            busy_s += t0.elapsed().as_secs_f64();
        }
    }
    (
        WorkerStats {
            worker,
            documents: out.len(),
            busy_s,
        },
        out,
        metrics,
    )
}

/// Align document `index` into its own recorder, with a panic contained:
/// a panicked document degrades to the [`panicked`] stand-in. Its trace
/// is always present, a panicked document's included (span guards close
/// while the panic unwinds).
fn align_one(
    briq: &Briq,
    index: usize,
    doc: &Document,
    cfg: &BatchConfig,
    epoch: Instant,
    run: RunCtx<'_>,
) -> DocReport {
    // The recorder is worker-local (one per document, never shared), so
    // recording needs no locks; `epoch` is the batch start, putting every
    // document's spans on one shared trace timeline.
    let rec = Recorder::enabled_at(epoch);
    let opts = AlignOpts {
        budget: cfg.budget,
        recorder: Some(&rec),
        cancel: run.cancel,
        store: run.store.map(|store| (store, run.key(index))),
    };
    let result = {
        let _g = span!(rec, names::SPAN_ALIGN, doc = index);
        catch_unwind(AssertUnwindSafe(|| briq.align_with(doc, &opts)))
    };
    let (alignments, diagnostics) = match result {
        Ok(out) => (out.alignments, out.diagnostics),
        Err(_) => (Vec::new(), panicked(index)),
    };
    DocReport {
        index,
        alignments,
        diagnostics,
        trace: rec.finish(),
    }
}

/// The diagnostics of a document whose alignment panicked: one
/// `Stage::Batch` [`BriqError::WorkerPanicked`] entry, the only
/// diagnostic a document's report carries at that stage.
fn panicked(index: usize) -> Diagnostics {
    let mut diagnostics = Diagnostics::default();
    diagnostics.record(
        Stage::Batch,
        format!("document {index}"),
        &BriqError::WorkerPanicked { doc: index },
        DegradedAction::Skipped,
    );
    diagnostics
}

/// `item` with its scope prefixed `doc <index>:`, so batch-level and
/// per-request diagnostic streams stay attributable.
pub(crate) fn doc_scoped(index: usize, item: &Diagnostic) -> Diagnostic {
    Diagnostic {
        scope: format!("doc {index}: {}", item.scope),
        ..item.clone()
    }
}

/// The degraded stand-in for a document no worker reported (its pool
/// loop died): empty alignments plus the [`panicked`] diagnostics.
fn panicked_report(index: usize) -> DocReport {
    DocReport {
        index,
        alignments: Vec::new(),
        diagnostics: panicked(index),
        trace: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::BriqConfig;
    use briq_table::Table;

    fn doc(id: usize) -> Document {
        Document::new(
            id,
            "A total of 123 patients reported side effects; depression was \
             reported by 38 patients and eye disorders by 5 patients.",
            vec![Table::from_grid(
                "",
                vec![
                    vec![
                        "effect".into(),
                        "male".into(),
                        "female".into(),
                        "total".into(),
                    ],
                    vec!["Rash".into(), "15".into(), "20".into(), "35".into()],
                    vec!["Depression".into(), "13".into(), "25".into(), "38".into()],
                    vec!["Eye Disorders".into(), "2".into(), "3".into(), "5".into()],
                ],
            )],
        )
    }

    /// A document whose virtual-cell fan-out exhausts a tight budget.
    fn hostile_doc(id: usize) -> Document {
        let mut grid = vec![(0..10).map(|c| format!("col {c}")).collect::<Vec<String>>()];
        for r in 0..10 {
            grid.push((0..10).map(|c| format!("{}", r * 10 + c)).collect());
        }
        Document::new(
            id,
            "values 7 and 23 and 55 appear in the table",
            vec![Table::from_grid("", grid)],
        )
    }

    #[test]
    fn empty_batch_is_a_clean_noop() {
        let briq = Briq::untrained(BriqConfig::default());
        let r = align_batch(&briq, &[], &BatchConfig::with_jobs(4));
        assert!(r.documents.is_empty());
        assert!(r.workers.is_empty());
        assert!(r.is_clean());
    }

    #[test]
    fn batch_smaller_than_worker_count() {
        let briq = Briq::untrained(BriqConfig::default());
        let docs = vec![doc(0), doc(1)];
        let r = align_batch(&briq, &docs, &BatchConfig::with_jobs(8));
        // Never more workers than documents.
        assert_eq!(r.jobs, 2);
        assert_eq!(r.documents.len(), 2);
        assert_eq!(r.workers.iter().map(|w| w.documents).sum::<usize>(), 2);
        for d in &r.documents {
            assert!(!d.alignments.is_empty());
        }
    }

    #[test]
    fn output_order_is_input_order_and_jobs_invariant() {
        let briq = Briq::untrained(BriqConfig::default());
        let docs: Vec<Document> = (0..13).map(doc).collect();
        let serial = align_batch(&briq, &docs, &BatchConfig::with_jobs(1));
        let parallel = align_batch(&briq, &docs, &BatchConfig::with_jobs(8));
        for (i, d) in serial.documents.iter().enumerate() {
            assert_eq!(d.index, i);
        }
        for (s, p) in serial.documents.iter().zip(&parallel.documents) {
            assert_eq!(s.index, p.index);
            assert_eq!(s.alignments, p.alignments);
            assert_eq!(s.diagnostics, p.diagnostics);
        }
        assert_eq!(
            serial.combined_diagnostics().to_jsonl(),
            parallel.combined_diagnostics().to_jsonl()
        );
    }

    #[test]
    fn budget_exhaustion_is_isolated_per_document() {
        let briq = Briq::untrained(BriqConfig::default());
        let docs = vec![doc(0), hostile_doc(1), doc(2)];
        let budget = Budget {
            max_virtual_cells_per_table: 5,
            max_graph_edges: 500_000,
        };
        let cfg = BatchConfig {
            budget,
            ..BatchConfig::with_jobs(3)
        };
        let r = align_batch(&briq, &docs, &cfg);
        assert!(
            !r.documents[1].diagnostics.is_clean(),
            "{:?}",
            r.documents[1].diagnostics
        );
        // The healthy neighbours are untouched: same result as aligning
        // them alone under the same budget.
        for i in [0usize, 2] {
            let solo = briq.align_with(
                &docs[i],
                &AlignOpts {
                    budget,
                    ..AlignOpts::default()
                },
            );
            assert_eq!(r.documents[i].alignments, solo.alignments);
            assert_eq!(r.documents[i].diagnostics, solo.diagnostics);
        }
    }

    #[test]
    fn batch_matches_sequential_align_checked() {
        let briq = Briq::untrained(BriqConfig::default());
        let docs: Vec<Document> = (0..6).map(doc).collect();
        let r = align_batch(&briq, &docs, &BatchConfig::with_jobs(4));
        for (i, d) in r.documents.iter().enumerate() {
            let (solo, _) = briq.align_checked(&docs[i]);
            assert_eq!(d.alignments, solo);
        }
    }

    #[test]
    fn report_accounting_is_consistent() {
        let briq = Briq::untrained(BriqConfig::default());
        let docs: Vec<Document> = (0..5).map(doc).collect();
        let r = align_batch(&briq, &docs, &BatchConfig::with_jobs(2));
        assert_eq!(r.jobs, 2);
        assert_eq!(r.workers.len(), 2);
        assert_eq!(
            r.workers.iter().map(|w| w.documents).sum::<usize>(),
            docs.len()
        );
        assert!(r.wall_s > 0.0);
        let t = r.stage_totals;
        assert!(
            t.extract_s > 0.0 && t.classify_s > 0.0 && t.filter_s > 0.0 && t.resolve_s > 0.0,
            "{t:?}"
        );
        for w in &r.workers {
            let u = w.utilization(r.wall_s);
            assert!((0.0..=1.0).contains(&u), "utilization {u}");
        }
        assert!(r.mean_utilization() > 0.0);
    }

    #[test]
    fn traced_batch_output_is_identical_and_trace_merge_is_input_order_deterministic() {
        let briq = Briq::untrained(BriqConfig::default());
        let docs: Vec<Document> = (0..9).map(doc).collect();
        let untraced = align_batch(&briq, &docs, &BatchConfig::with_jobs(2));

        let mut runs = Vec::new();
        for jobs in [1usize, 3, 8] {
            let cfg = BatchConfig {
                trace: true,
                ..BatchConfig::with_jobs(jobs)
            };
            let r = align_batch(&briq, &docs, &cfg);
            // Tracing only observes: alignments and diagnostics match the
            // untraced run bit for bit.
            for (t, u) in r.documents.iter().zip(&untraced.documents) {
                assert_eq!(t.alignments, u.alignments);
                assert_eq!(t.diagnostics, u.diagnostics);
            }
            runs.push(r);
        }

        // The merged trace is input-order deterministic: per-document span
        // structure, all counters, and histogram observation counts agree
        // across jobs 1/3/8 (only wall-clock values may differ).
        let baseline = &runs[0];
        for r in &runs[1..] {
            assert_eq!(r.documents.len(), baseline.documents.len());
            for (a, b) in r.documents.iter().zip(&baseline.documents) {
                let (ta, tb) = match (&a.trace, &b.trace) {
                    (Some(ta), Some(tb)) => (ta, tb),
                    other => panic!("missing trace: {other:?}"),
                };
                assert_eq!(ta.structure(), tb.structure(), "doc {}", a.index);
                let counters_a: Vec<_> = ta.metrics.counters().collect();
                let counters_b: Vec<_> = tb.metrics.counters().collect();
                assert_eq!(counters_a, counters_b, "doc {}", a.index);
            }
            let ma = r.merged_metrics();
            let mb = baseline.merged_metrics();
            assert_eq!(
                ma.counters().collect::<Vec<_>>(),
                mb.counters().collect::<Vec<_>>()
            );
            for ((na, ha), (nb, hb)) in ma.histograms().zip(mb.histograms()) {
                assert_eq!(na, nb);
                assert_eq!(ha.count(), hb.count(), "histogram {na}");
            }
        }

        // The trace covers the pipeline stages and hot-path counters the
        // acceptance criteria name.
        let m = baseline.merged_metrics();
        for name in [
            names::PAIRS_SCORED,
            names::RETRIEVAL_CANDIDATES,
            names::MENTIONS,
        ] {
            assert!(m.counter(name) > 0, "counter {name} empty");
        }
        for span in [
            names::SPAN_ALIGN,
            names::SPAN_EXTRACT,
            names::SPAN_CLASSIFY,
            names::SPAN_FILTER,
            names::SPAN_RESOLVE,
        ] {
            assert!(
                m.histogram(&names::span_histogram(span)).is_some(),
                "span {span} missing from metrics"
            );
        }
        let trace_json = baseline.chrome_trace();
        let v = briq_json::parse(&trace_json).expect("chrome trace parses");
        let events = v
            .get("traceEvents")
            .and_then(briq_json::Value::as_array)
            .expect("traceEvents");
        assert!(events.len() > docs.len(), "{} events", events.len());
    }

    #[test]
    fn traced_and_untraced_batches_record_the_same_metrics() {
        let briq = Briq::untrained(BriqConfig::default());
        let docs: Vec<Document> = (0..7).map(doc).collect();
        let shape = |m: &MetricsRegistry| {
            let counters: Vec<(String, u64)> =
                m.counters().map(|(n, v)| (n.to_string(), v)).collect();
            let observations: Vec<(String, u64)> = m
                .histograms()
                .map(|(n, h)| (n.to_string(), h.count()))
                .collect();
            (counters, observations)
        };
        let mut shapes = Vec::new();
        for jobs in [1usize, 3] {
            for trace in [false, true] {
                let cfg = BatchConfig {
                    trace,
                    ..BatchConfig::with_jobs(jobs)
                };
                let r = align_batch(&briq, &docs, &cfg);
                assert!(r.documents.iter().all(|d| d.trace.is_some() == trace));
                let m = r.merged_metrics();
                assert_eq!(m.counter(names::DOCUMENTS), docs.len() as u64);
                for name in [names::PAIRS_SCORED, names::MENTIONS, names::RWR_WALKS] {
                    assert!(m.counter(name) > 0, "counter {name} empty");
                }
                // The stage totals are the merged registry's span sums.
                let secs = |h: &str| m.histogram(h).map_or(0.0, Histogram::sum);
                let t = r.stage_totals;
                assert_eq!(
                    t,
                    StageTimings {
                        extract_s: secs("span_extract_s"),
                        classify_s: secs("span_classify_s"),
                        filter_s: secs("span_filter_s"),
                        resolve_s: secs("span_graph_s") + secs("span_resolve_s"),
                    },
                    "jobs {jobs} trace {trace}"
                );
                assert!(t.classify_s > 0.0 && t.resolve_s > 0.0, "{t:?}");
                shapes.push(shape(&m));
            }
        }
        for s in &shapes[1..] {
            assert_eq!(s, &shapes[0]);
        }
    }

    #[test]
    fn a_panicked_document_keeps_what_it_recorded() {
        let briq = Briq::untrained(BriqConfig::default());
        let store = AlignmentStore::for_system(&briq);
        let cfg = BatchConfig::with_jobs(1);
        align_batch_stored(&briq, &[doc(0)], &cfg, &store, None);
        // A table that claims a row it does not hold: the lookup
        // invalidates the cached version under the same key, then
        // extraction indexes past the cells and panics.
        let mut broken = doc(0);
        broken.tables[0].n_rows += 1;
        let r = align_batch_stored(&briq, &[broken], &cfg, &store, None);
        assert_eq!(r.documents[0].diagnostics, panicked(0));
        assert!(r.documents[0].alignments.is_empty());
        let m = r.merged_metrics();
        assert_eq!(m.counter(names::DOCUMENTS), 1);
        assert_eq!(m.counter(names::STORE_INVALIDATIONS), 1);
        // The spans open when the panic struck closed as it unwound.
        let extract = m.histogram(&names::span_histogram(names::SPAN_EXTRACT));
        assert_eq!(extract.map(Histogram::count), Some(1));
    }

    /// A page whose two paragraphs both relate to its one table.
    fn two_document_page(total: u32) -> String {
        format!(
            "<html><body>\
             <p>A total of {total} patients reported side effects.</p>\
             <table><tr><th>effect</th><th>male</th><th>female</th><th>total</th></tr>\
             <tr><td>Rash</td><td>15</td><td>20</td><td>35</td></tr>\
             <tr><td>Depression</td><td>13</td><td>25</td><td>38</td></tr></table>\
             <p>Depression was reported by 38 patients, 13 male and 25 female.</p>\
             </body></html>"
        )
    }

    #[test]
    fn ingested_pages_number_documents_uniquely_and_key_them_by_segment() {
        let (mut docs, mut keys) = (Vec::new(), Vec::new());
        for (identity, total) in [("a.html", 73), ("b.html", 74), ("c.html", 75)] {
            let (page_docs, page_keys) =
                ingest_page(identity, &two_document_page(total), docs.len());
            assert_eq!(page_docs.len(), 2, "{identity}");
            let page = page_key(identity);
            let expected: Vec<u64> = (0..2).map(|segment| doc_key(page, segment)).collect();
            assert_eq!(page_keys, expected, "{identity}");
            docs.extend(page_docs);
            keys.extend(page_keys);
        }
        let ids: Vec<usize> = docs.iter().map(|d| d.id).collect();
        assert_eq!(ids, (0..6).collect::<Vec<_>>(), "ids restart or repeat");
        let mut distinct = keys.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), keys.len(), "keys collide across pages");
        // The documents are `segment_page`'s, and the key depends on the
        // identity only, never on the HTML or the first id.
        let page = two_document_page(73);
        assert_eq!(
            ingest_page("a.html", &page, 4).0,
            segment_page(&parse_page(&page), &SegmentConfig::default(), 4)
        );
        assert_eq!(
            ingest_page("a.html", &two_document_page(99), 9).1,
            keys[..2]
        );
    }

    #[test]
    fn panicked_report_shape() {
        let r = panicked_report(7);
        assert_eq!(r.index, 7);
        assert!(r.alignments.is_empty());
        assert_eq!(r.diagnostics.items.len(), 1);
        assert_eq!(r.diagnostics.items[0].stage, Stage::Batch);
        assert_eq!(r.diagnostics.items[0].action, DegradedAction::Skipped);
        assert!(r.diagnostics.items[0].error.contains("document 7"));
    }
}
