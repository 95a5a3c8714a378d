//! Document-throughput measurement (Table VIII, `briq-eval table8`) on
//! top of the production batch-alignment engine in [`briq_core::batch`]
//! — the single-machine stand-in for the paper's 10-executor Spark
//! cluster. Its pages come from [`briq_corpus::page::render_pages`].
//!
//! The timed path per page mirrors the production pipeline: the page
//! ingest every binary runs ([`briq_core::ingest_page`]: HTML parsing and
//! page segmentation), then [`Briq::align_batch`] over the segmented
//! documents (mention/target extraction, classification, filtering and
//! global resolution on a work-stealing worker pool).

use briq_core::batch::BatchConfig;
use briq_core::ingest_page;
use briq_core::obs::names;
use briq_core::pipeline::Briq;
use briq_table::Document;
use std::time::Instant;

/// Throughput result for one batch of pages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputResult {
    /// Pages processed.
    pub pages: usize,
    /// Documents produced by segmentation.
    pub documents: usize,
    /// Text mentions aligned. Zero for the RWR-only system, whose run
    /// counts nothing: Table VIII reads the BriQ run's count.
    pub mentions: usize,
    /// Wall-clock seconds.
    pub seconds: f64,
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

/// Run the throughput measurement over `pages` with `workers` threads.
///
/// The full-pipeline system runs on [`Briq::align_batch`], so its
/// alignments are bit-identical for every worker count; the timed
/// region covers the page ingest and the batch run. A page is named by
/// its index in `pages`; the run keeps no store, so no key is read.
pub fn measure(
    briq: &Briq,
    system: ThroughputSystem,
    pages: &[String],
    workers: usize,
) -> ThroughputResult {
    let start = Instant::now();
    let mut docs = Vec::new();
    for (i, html) in pages.iter().enumerate() {
        docs.extend(ingest_page(&i.to_string(), html, docs.len()).0);
    }
    let mentions = match system {
        ThroughputSystem::Briq => {
            let report = briq.align_batch(&docs, &BatchConfig::with_jobs(workers.max(1)));
            report.merged_metrics().counter(names::MENTIONS) as usize
        }
        ThroughputSystem::RwrOnly => {
            rwr_only_run(briq, &docs, workers);
            0
        }
    };
    ThroughputResult {
        pages: pages.len(),
        documents: docs.len(),
        mentions,
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// The RWR-only baseline does not go through the staged `align_checked`
/// path, so it keeps a minimal cursor pool of its own.
fn rwr_only_run(briq: &Briq, docs: &[Document], workers: usize) {
    let run_doc = |doc: &Document| {
        std::hint::black_box(briq_core::baselines::rwr_only(briq, doc));
    };
    if workers <= 1 {
        docs.iter().for_each(run_doc);
        return;
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(doc) = docs.get(i) else { break };
                run_doc(doc);
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use briq_core::pipeline::BriqConfig;
    use briq_core::training::LabeledDocument;
    use briq_corpus::corpus::{generate_corpus, CorpusConfig};
    use briq_corpus::page::render_pages;

    fn docs() -> Vec<LabeledDocument> {
        generate_corpus(&CorpusConfig::small(31)).documents
    }

    #[test]
    fn pages_built_and_processed() {
        let docs = docs();
        let pages = render_pages(&docs[..12], 3);
        assert_eq!(pages.len(), 4);
        let briq = Briq::untrained(BriqConfig::default());
        let r = measure(&briq, ThroughputSystem::Briq, &pages, 1);
        assert_eq!(r.pages, 4);
        assert!(r.documents >= 8, "segmented {} documents", r.documents);
        assert!(r.mentions > 0, "no mentions counted");
        assert!(r.docs_per_minute() > 0.0);
    }

    #[test]
    fn parallel_matches_serial_counts() {
        let docs = docs();
        let pages = render_pages(&docs[..8], 2);
        let briq = Briq::untrained(BriqConfig::default());
        let serial = measure(&briq, ThroughputSystem::Briq, &pages, 1);
        let parallel = measure(&briq, ThroughputSystem::Briq, &pages, 4);
        assert_eq!(serial.documents, parallel.documents);
        assert_eq!(serial.mentions, parallel.mentions);
    }

    #[test]
    fn rwr_only_still_measures() {
        let docs = docs();
        let pages = render_pages(&docs[..4], 2);
        let briq = Briq::untrained(BriqConfig::default());
        let r = measure(&briq, ThroughputSystem::RwrOnly, &pages, 2);
        assert!(r.documents > 0);
        assert!(r.seconds > 0.0);
        assert_eq!(r.mentions, 0, "the RWR-only run counts nothing");
    }

    #[test]
    fn zero_seconds_guard() {
        let r = ThroughputResult {
            pages: 0,
            documents: 0,
            mentions: 0,
            seconds: 0.0,
        };
        assert_eq!(r.docs_per_minute(), 0.0);
    }
}
