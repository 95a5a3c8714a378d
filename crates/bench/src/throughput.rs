//! Document-throughput measurement (Table VIII) on top of the
//! production batch-alignment engine in [`briq_core::batch`] — the
//! single-machine stand-in for the paper's 10-executor Spark cluster.
//!
//! The timed path per page mirrors the production pipeline: HTML parsing,
//! page segmentation, then [`briq_core::batch::align_batch`] over the
//! segmented documents (mention/target extraction, classification,
//! filtering and global resolution on a work-stealing worker pool).

use briq_core::batch::{BatchConfig, StageTimings};
use briq_core::pipeline::Briq;
use briq_core::training::LabeledDocument;
use briq_corpus::page::render_page;
use briq_table::html::parse_page;
use briq_table::segment::{segment_page, SegmentConfig};
use briq_table::Document;
use std::time::Instant;

/// Throughput result for one batch of pages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputResult {
    /// Pages processed.
    pub pages: usize,
    /// Documents produced by segmentation.
    pub documents: usize,
    /// Text mentions aligned or considered.
    pub mentions: usize,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Per-stage CPU-seconds summed over all documents (with more than
    /// one worker this exceeds `seconds`). Zero for the RWR-only system,
    /// which bypasses the staged pipeline.
    pub stages: StageTimings,
    /// Mean worker utilization of the batch pool (0 for RWR-only).
    pub utilization: f64,
}

impl ThroughputResult {
    /// Documents per minute — the unit of Table VIII.
    pub fn docs_per_minute(&self) -> f64 {
        if self.seconds <= 0.0 {
            return 0.0;
        }
        self.documents as f64 * 60.0 / self.seconds
    }
}

/// How to process each document in the throughput run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThroughputSystem {
    /// The full BriQ pipeline, on the batch engine.
    Briq,
    /// The RWR-only baseline (no pruning — "fairly expensive", §VII-D).
    RwrOnly,
}

/// Materialize documents into HTML pages (a few documents per page, as on
/// the web).
pub fn build_pages(docs: &[LabeledDocument], docs_per_page: usize) -> Vec<String> {
    docs.chunks(docs_per_page.max(1))
        .map(|chunk| {
            let refs: Vec<&LabeledDocument> = chunk.iter().collect();
            render_page(&refs)
        })
        .collect()
}

/// Parse and segment every page into documents with batch-unique ids.
pub fn segment_pages(pages: &[String]) -> Vec<Document> {
    let mut docs = Vec::new();
    for html in pages {
        let page = parse_page(html);
        let mut segmented = segment_page(&page, &SegmentConfig::default(), docs.len());
        docs.append(&mut segmented);
    }
    docs
}

/// Run the throughput measurement over `pages` with `workers` threads.
///
/// The full-pipeline system runs on [`briq_core::batch::align_batch`], so
/// its alignments are bit-identical for every worker count; the timed
/// region covers parsing, segmentation, and the batch run.
pub fn measure(
    briq: &Briq,
    system: ThroughputSystem,
    pages: &[String],
    workers: usize,
) -> ThroughputResult {
    let start = Instant::now();
    let docs = segment_pages(pages);
    let (mentions, stages, utilization) = match system {
        ThroughputSystem::Briq => {
            let cfg = BatchConfig {
                jobs: workers.max(1),
                ..BatchConfig::default()
            };
            let report = briq.align_batch(&docs, &cfg);
            let mut mentions = 0usize;
            for (doc, dr) in docs.iter().zip(&report.documents) {
                mentions += dr
                    .alignments
                    .len()
                    .max(briq_core::mention::text_mentions(doc).len());
            }
            (mentions, report.stage_totals, report.mean_utilization())
        }
        ThroughputSystem::RwrOnly => (
            rwr_only_run(briq, &docs, workers),
            StageTimings::default(),
            0.0,
        ),
    };
    ThroughputResult {
        pages: pages.len(),
        documents: docs.len(),
        mentions,
        seconds: start.elapsed().as_secs_f64(),
        stages,
        utilization,
    }
}

/// The RWR-only baseline does not go through the staged `align_checked`
/// path, so it keeps a minimal cursor pool of its own.
fn rwr_only_run(briq: &Briq, docs: &[Document], workers: usize) -> usize {
    let run_doc = |doc: &Document| {
        let sd = briq.score_document(doc);
        let mentions = sd.mentions.len();
        let _ = briq_core::baselines::rwr_only_scored(briq, &sd);
        mentions
    };
    if workers <= 1 {
        return docs.iter().map(run_doc).sum();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut m = 0usize;
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(doc) = docs.get(i) else { break };
                        m += run_doc(doc);
                    }
                    m
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or(0)).sum()
    })
}

/// One `--jobs` point of the bench-smoke comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputPoint {
    /// Worker threads used.
    pub jobs: usize,
    /// Documents per minute at this worker count.
    pub docs_per_minute: f64,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Per-stage CPU-seconds.
    pub stages: StageTimings,
    /// Mean worker utilization, or `None` when the point effectively ran
    /// on a single worker (`min(jobs, host_cores) == 1`) — utilization of
    /// a one-worker pool is 1.0 by construction and reporting it would
    /// read as a measurement (mirrors [`ThroughputBench::speedup`]).
    pub utilization: Option<f64>,
    /// Classifier invocations actually executed per classify-second:
    /// `(pairs_scored - pairs_skipped_retrieval - pairs_pruned) /
    /// classify_s` ([`StageTimings::effective_pairs_per_sec`]).
    pub effective_pairs_per_sec: f64,
}

/// The perf-trajectory artifact written by CI's bench-smoke stage
/// (`BENCH_throughput.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputBench {
    /// Corpus seed (pages are byte-identical given the same seed).
    pub seed: usize,
    /// Pages in the workload.
    pub pages: usize,
    /// Documents after segmentation.
    pub documents: usize,
    /// Text mentions considered.
    pub mentions: usize,
    /// Cores available on the measuring host.
    pub host_cores: usize,
    /// Worker threads the parallel run asked for (`--jobs N`).
    pub jobs_requested: usize,
    /// Workers that could actually run concurrently:
    /// `min(jobs_requested, host_cores)`.
    pub jobs_effective: usize,
    /// The sequential baseline (`--jobs 1`).
    pub baseline: ThroughputPoint,
    /// The parallel run (`--jobs N`).
    pub parallel: ThroughputPoint,
    /// `parallel.docs_per_minute / baseline.docs_per_minute`, or `None`
    /// when the host cannot run two workers concurrently — a "speedup"
    /// measured on one core is pure scheduling overhead, not a scaling
    /// signal, and reporting a number (e.g. 0.92×) would misread as a
    /// parallelism regression.
    pub speedup: Option<f64>,
    /// Retrieval-index state of the measured runs (`cfg.use_index`).
    /// Trajectory comparisons must never mix indexed and exhaustive
    /// numbers; `tools/bench_trend.sh` refuses to compare across a flip
    /// of this bit.
    pub index_enabled: bool,
    /// Mean retrieved candidates per mention on the sequential run;
    /// `None` on exhaustive runs. Strictly below
    /// [`ThroughputBench::cells_per_mention`] whenever the index drops
    /// anything.
    pub candidates_per_mention: Option<f64>,
    /// Mean mention/target pairs per mention under exhaustive pairing —
    /// the cell count the index retrieves against.
    pub cells_per_mention: f64,
    /// Fraction of the exhaustive oracle's surviving candidates the
    /// indexed path also produced. The recall contract makes this
    /// exactly `1.0`; CI gates on it. `None` when not measured
    /// (exhaustive runs).
    pub retrieval_recall: Option<f64>,
    /// Structured measurement caveats, each `key: detail`. Today the only
    /// producer is `jobs_clamped` (the host could not run the requested
    /// workers concurrently, so `speedup`/`utilization` are withheld);
    /// empty when the measurement is clean. Readers that previously had
    /// to infer the situation from a `null` speedup can key off this.
    pub warnings: Vec<String>,
    /// Cold-vs-warm timings of the same workload through the versioned
    /// [`briq_core::store::AlignmentStore`] (DESIGN.md §15), sequential
    /// runs. `None` when the store was disabled or not measured.
    pub store: Option<StoreBench>,
}

/// Cold-vs-warm comparison of one workload through the alignment store:
/// the first (cold) pass computes and caches everything, the second
/// (warm, unchanged corpus) pass should serve every document from cache
/// and skip classify/filter/resolve entirely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreBench {
    /// Wall-clock seconds of the cold pass (cache empty).
    pub cold_seconds: f64,
    /// Wall-clock seconds of the warm pass (unchanged corpus).
    pub warm_seconds: f64,
    /// `cold_seconds / warm_seconds` — the re-alignment speedup a fully
    /// warm store buys on an unchanged corpus.
    pub warm_speedup: f64,
    /// Store hit rate over the warm pass; `1.0` when nothing changed.
    pub hit_rate: f64,
    /// Mentions re-run through classify/filter on the warm pass; `0`
    /// when nothing changed.
    pub mentions_realigned: u64,
    /// High-water mark of the store's resident artifact bytes.
    pub bytes_peak: u64,
    /// Durable-store measurement (DESIGN.md §16): the same workload
    /// persisted to disk, the process "restarted" (store dropped and
    /// reopened from the same directory), and re-driven warm. `None`
    /// when persistence was not measured.
    pub persist: Option<PersistBench>,
}

/// Restart-warmed measurement of the durable store backing: how long
/// recovery took, what it recovered, and what the on-disk footprint was.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PersistBench {
    /// Wall-clock seconds to open the store directory and replay
    /// snapshot + novelty log back into memory.
    pub recover_s: f64,
    /// Entries recovered by the reopen.
    pub recovered_entries: u64,
    /// Wall-clock seconds of the restart-warmed pass (recovered cache,
    /// unchanged corpus) — the durable analogue of `warm_seconds`.
    pub restart_warm_seconds: f64,
    /// Store hit rate over the restart-warmed pass; `1.0` when the
    /// recovery was complete and nothing changed.
    pub restart_hit_rate: f64,
    /// Novelty-log bytes on disk after the cold persisted pass.
    pub log_bytes: u64,
    /// Snapshot bytes on disk after the end-of-pass compaction.
    pub snapshot_bytes: u64,
    /// Entries evicted during the measurement (0 unless a byte budget
    /// was configured).
    pub evictions: u64,
}

impl ThroughputBench {
    /// Compare a sequential and a parallel run of the same workload.
    /// `host_cores` comes from [`std::thread::available_parallelism`] via
    /// [`ThroughputBench::from_runs`]; this variant takes it explicitly
    /// so tests can pin it.
    pub fn from_runs_on_host(
        seed: usize,
        host_cores: usize,
        baseline: (usize, ThroughputResult),
        parallel: (usize, ThroughputResult),
    ) -> ThroughputBench {
        let point = |(jobs, r): (usize, ThroughputResult)| ThroughputPoint {
            jobs,
            docs_per_minute: r.docs_per_minute(),
            seconds: r.seconds,
            stages: r.stages,
            utilization: if jobs.min(host_cores.max(1)) >= 2 {
                Some(r.utilization)
            } else {
                None
            },
            effective_pairs_per_sec: r.stages.effective_pairs_per_sec(),
        };
        let jobs_requested = parallel.0;
        let jobs_effective = jobs_requested.min(host_cores.max(1));
        let base = baseline.1;
        let speedup = if jobs_effective >= 2 && base.docs_per_minute() > 0.0 {
            Some(parallel.1.docs_per_minute() / base.docs_per_minute())
        } else {
            None
        };
        // Effective index state is read off the measured counters: an
        // exhaustive run retrieves nothing. `with_retrieval` lets the
        // caller state it explicitly (and attach a measured recall).
        let mut warnings = Vec::new();
        if jobs_effective < jobs_requested {
            warnings.push(format!(
                "jobs_clamped: requested {jobs_requested} workers but the \
                 {host_cores}-core host runs {jobs_effective} concurrently; \
                 speedup and utilization are withheld"
            ));
        }
        let index_enabled = base.stages.candidates_retrieved > 0;
        let candidates_per_mention = if index_enabled && base.mentions > 0 {
            Some(base.stages.candidates_retrieved as f64 / base.mentions as f64)
        } else {
            None
        };
        let cells_per_mention = if base.mentions > 0 {
            base.stages.pairs_scored as f64 / base.mentions as f64
        } else {
            0.0
        };
        ThroughputBench {
            seed,
            pages: base.pages,
            documents: base.documents,
            mentions: base.mentions,
            host_cores,
            jobs_requested,
            jobs_effective,
            baseline: point(baseline),
            parallel: point(parallel),
            speedup,
            index_enabled,
            candidates_per_mention,
            cells_per_mention,
            retrieval_recall: None,
            warnings,
            store: None,
        }
    }

    /// Attach a cold-vs-warm store measurement (`None` = store disabled
    /// or not measured).
    pub fn with_store(mut self, store: Option<StoreBench>) -> ThroughputBench {
        self.store = store;
        self
    }

    /// Pin the effective index state explicitly (config AND environment,
    /// which the measuring binary knows and the counters can only infer)
    /// and attach the measured retrieval recall.
    pub fn with_retrieval(mut self, index_enabled: bool, recall: Option<f64>) -> ThroughputBench {
        self.index_enabled = index_enabled;
        if !index_enabled {
            self.candidates_per_mention = None;
        }
        self.retrieval_recall = recall;
        self
    }

    /// [`ThroughputBench::from_runs_on_host`] with the measuring host's
    /// own core count.
    pub fn from_runs(
        seed: usize,
        baseline: (usize, ThroughputResult),
        parallel: (usize, ThroughputResult),
    ) -> ThroughputBench {
        let host_cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::from_runs_on_host(seed, host_cores, baseline, parallel)
    }
}

briq_json::json_struct!(ThroughputPoint {
    jobs,
    docs_per_minute,
    seconds,
    stages,
    utilization,
    effective_pairs_per_sec
});
briq_json::json_struct!(ThroughputBench {
    seed,
    pages,
    documents,
    mentions,
    host_cores,
    jobs_requested,
    jobs_effective,
    baseline,
    parallel,
    speedup,
    index_enabled,
    candidates_per_mention,
    cells_per_mention,
    retrieval_recall,
    warnings,
    store,
});
briq_json::json_struct!(StoreBench {
    cold_seconds,
    warm_seconds,
    warm_speedup,
    hit_rate,
    mentions_realigned,
    bytes_peak,
    persist,
});
briq_json::json_struct!(PersistBench {
    recover_s,
    recovered_entries,
    restart_warm_seconds,
    restart_hit_rate,
    log_bytes,
    snapshot_bytes,
    evictions,
});

#[cfg(test)]
mod tests {
    use super::*;
    use briq_core::pipeline::BriqConfig;
    use briq_corpus::corpus::{generate_corpus, CorpusConfig};

    fn docs() -> Vec<LabeledDocument> {
        generate_corpus(&CorpusConfig::small(31)).documents
    }

    #[test]
    fn pages_built_and_processed() {
        let docs = docs();
        let pages = build_pages(&docs[..12], 3);
        assert_eq!(pages.len(), 4);
        let briq = Briq::untrained(BriqConfig::default());
        let r = measure(&briq, ThroughputSystem::Briq, &pages, 1);
        assert_eq!(r.pages, 4);
        assert!(r.documents >= 8, "segmented {} documents", r.documents);
        assert!(r.docs_per_minute() > 0.0);
        assert!(
            r.stages.total_s() > 0.0,
            "stage timings missing: {:?}",
            r.stages
        );
    }

    #[test]
    fn parallel_matches_serial_counts() {
        let docs = docs();
        let pages = build_pages(&docs[..8], 2);
        let briq = Briq::untrained(BriqConfig::default());
        let serial = measure(&briq, ThroughputSystem::Briq, &pages, 1);
        let parallel = measure(&briq, ThroughputSystem::Briq, &pages, 4);
        assert_eq!(serial.documents, parallel.documents);
        assert_eq!(serial.mentions, parallel.mentions);
        assert!(parallel.utilization > 0.0);
    }

    #[test]
    fn segmented_documents_have_unique_ids() {
        let docs = docs();
        let pages = build_pages(&docs[..9], 3);
        let segmented = segment_pages(&pages);
        let mut ids: Vec<usize> = segmented.iter().map(|d| d.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(
            ids.len(),
            segmented.len(),
            "duplicate document ids across pages"
        );
    }

    #[test]
    fn rwr_only_still_measures() {
        let docs = docs();
        let pages = build_pages(&docs[..4], 2);
        let briq = Briq::untrained(BriqConfig::default());
        let r = measure(&briq, ThroughputSystem::RwrOnly, &pages, 2);
        assert!(r.documents > 0);
        assert!(r.mentions > 0);
        assert_eq!(r.stages, StageTimings::default());
    }

    #[test]
    fn bench_report_round_trips_as_json() {
        let docs = docs();
        let pages = build_pages(&docs[..6], 3);
        let briq = Briq::untrained(BriqConfig::default());
        let base = measure(&briq, ThroughputSystem::Briq, &pages, 1);
        let par = measure(&briq, ThroughputSystem::Briq, &pages, 2);
        // Pinned to a 4-core host: the parallel point is genuine, so a
        // speedup ratio is reported.
        let bench = ThroughputBench::from_runs_on_host(31, 4, (1, base), (2, par));
        assert_eq!(bench.host_cores, 4);
        assert_eq!(bench.jobs_requested, 2);
        assert_eq!(bench.jobs_effective, 2);
        assert!(bench.speedup.expect("multi-core host reports a ratio") > 0.0);
        assert!(
            bench.warnings.is_empty(),
            "clean run warns: {:?}",
            bench.warnings
        );
        // The one-worker baseline has no honest utilization number; the
        // genuine two-worker point does.
        assert_eq!(bench.baseline.utilization, None);
        assert!(bench.parallel.utilization.expect("real parallel point") > 0.0);
        // Default config runs indexed: candidate sets are reported and
        // strictly smaller than the exhaustive pairing.
        assert!(bench.index_enabled, "default config runs indexed");
        let cpm = bench
            .candidates_per_mention
            .expect("indexed run reports candidates per mention");
        assert!(
            cpm < bench.cells_per_mention,
            "candidates/mention {cpm} not below cells/mention {}",
            bench.cells_per_mention
        );
        let bench = bench.with_retrieval(true, Some(1.0));
        assert_eq!(bench.retrieval_recall, Some(1.0));
        let s = briq_json::to_string_pretty(&bench);
        let back: ThroughputBench = briq_json::from_str(&s).expect("round-trips");
        assert_eq!(bench, back);
        let exhaustive = back.with_retrieval(false, None);
        assert_eq!(exhaustive.candidates_per_mention, None);
        assert_eq!(exhaustive.retrieval_recall, None);
    }

    #[test]
    fn single_core_host_withholds_speedup() {
        let docs = docs();
        let pages = build_pages(&docs[..6], 3);
        let briq = Briq::untrained(BriqConfig::default());
        let base = measure(&briq, ThroughputSystem::Briq, &pages, 1);
        let par = measure(&briq, ThroughputSystem::Briq, &pages, 4);
        let bench = ThroughputBench::from_runs_on_host(31, 1, (1, base), (4, par));
        assert_eq!(bench.jobs_requested, 4);
        assert_eq!(bench.jobs_effective, 1, "one core caps effective workers");
        assert_eq!(bench.speedup, None, "no honest ratio exists on one core");
        // The clamp is reported as a structured warning, not inferred
        // from the null.
        assert_eq!(bench.warnings.len(), 1, "warnings: {:?}", bench.warnings);
        assert!(
            bench.warnings[0].starts_with("jobs_clamped: "),
            "{:?}",
            bench.warnings
        );
        // Both points are effectively single-worker on one core, so
        // utilization is withheld like the speedup ratio.
        assert_eq!(bench.baseline.utilization, None);
        assert_eq!(bench.parallel.utilization, None);
        // `null` survives the JSON round trip.
        let s = briq_json::to_string_pretty(&bench);
        assert!(s.contains("\"speedup\": null"), "{s}");
        assert!(s.contains("\"utilization\": null"), "{s}");
        assert!(s.contains("jobs_clamped"), "{s}");
        let back: ThroughputBench = briq_json::from_str(&s).expect("round-trips");
        assert_eq!(bench, back);
    }

    #[test]
    fn zero_seconds_guard() {
        let r = ThroughputResult {
            pages: 0,
            documents: 0,
            mentions: 0,
            seconds: 0.0,
            stages: StageTimings::default(),
            utilization: 0.0,
        };
        assert_eq!(r.docs_per_minute(), 0.0);
    }
}
