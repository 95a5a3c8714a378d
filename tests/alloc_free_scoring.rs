//! Proof that per-pair scoring performs zero heap allocations: a counting
//! global allocator wraps the system allocator, and after one warm-up
//! pass (which sizes the reused row matrix and scratch buffers) a full
//! scoring sweep over every mention/target pair must allocate nothing —
//! for both the untrained heuristic prior and a trained flat forest.
//! The same holds for the engine's trained path: once its per-class
//! forest layouts are built and one sweep has grown its buffers, a
//! second sweep of retrieval plus engine scoring allocates nothing.
//!
//! One `#[test]` only: the counter is process-global, and a second
//! concurrently-running test would pollute it.

use briq_core::classifier::PairClassifier;
use briq_core::features::{FeatureMask, PairFeaturizer, FEATURE_COUNT};
use briq_core::pipeline::{heuristic_prior_masked, Briq, BriqConfig};
use briq_core::retrieval::{CandidateIndex, RetrievalScratch};
use briq_core::scoring::ScoringEngine;
use briq_corpus::corpus::{generate_corpus, CorpusConfig};
use briq_ml::{Dataset, RandomForestConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn scoring_sweep_is_allocation_free_after_warmup() {
    let briq = Briq::untrained(BriqConfig::default());
    let corpus = generate_corpus(&CorpusConfig {
        n_documents: 4,
        seed: 11,
        ..Default::default()
    });
    let sd = corpus
        .documents
        .iter()
        .map(|ld| briq.score_document(&ld.document))
        .max_by_key(|sd| sd.mentions.len() * sd.targets.len())
        .expect("non-empty corpus");
    let pairs = sd.mentions.len() * sd.targets.len();
    assert!(pairs > 100, "need a real workload, got {pairs} pairs");

    // Train a small forest so the flat-forest path is exercised too.
    let clf = {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut data = Dataset::new();
        for _ in 0..200 {
            let related = rng.random_bool(0.4);
            let mut row = vec![0.0; FEATURE_COUNT];
            for v in row.iter_mut() {
                *v = rng.random_range(0.0..1.0);
            }
            data.push(row, related);
        }
        data.apply_class_weights();
        PairClassifier::train(
            &data,
            RandomForestConfig {
                n_trees: 16,
                ..Default::default()
            },
            FeatureMask::all(),
        )
    };

    // Featurizer construction and the first sweep may allocate: invariant
    // precomputation, the row matrix, and Jaro scratch growth.
    let mut fz = PairFeaturizer::new(&sd.mentions, &sd.targets, &sd.ctx);
    let mut rows: Vec<f64> = Vec::new();
    let sweep = |fz: &mut PairFeaturizer, rows: &mut Vec<f64>| {
        let mut acc = 0.0f64;
        for mi in 0..sd.mentions.len() {
            fz.fill_mention_rows(mi, rows);
            for row in rows.chunks_exact(FEATURE_COUNT) {
                acc += heuristic_prior_masked(row, &briq.cfg.mask);
                acc += clf.score(row);
            }
        }
        acc
    };
    let warm = sweep(&mut fz, &mut rows);

    let before = allocations();
    let hot = sweep(&mut fz, &mut rows);
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "hot scoring sweep allocated {} times over {pairs} pairs",
        after - before
    );
    assert_eq!(
        warm.to_bits(),
        hot.to_bits(),
        "sweeps must be deterministic"
    );

    // The engine's trained path: retrieval, then scoring through the
    // per-class layouts, which the first sweep builds.
    let cfg = &briq.cfg.filter;
    let index = CandidateIndex::build(&sd.targets, cfg.value_diff_threshold);
    let mut scratch = RetrievalScratch::default();
    let mut engine = ScoringEngine::new();
    let mut engine_sweep = |fz: &mut PairFeaturizer| {
        let (mut acc, mut scored) = (0.0f64, 0usize);
        for (mi, m) in sd.mentions.iter().enumerate() {
            let tags = &sd.tags[mi];
            index.retrieve(m.quantity.value, m.quantity.unit, tags, &mut scratch);
            engine.fill_rows_selected(fz, mi, &scratch.near, &scratch.far);
            engine.score_trained_selected(m, &sd.targets, tags, &clf, cfg);
            acc += engine.computed().iter().map(|&(_, s)| s).sum::<f64>();
            scored += engine.computed().len() + engine.pruned_targets().len();
        }
        (acc, scored)
    };
    let warm = engine_sweep(&mut fz);
    assert!(warm.1 > 100, "need a real workload, got {} rows", warm.1);
    let before = allocations();
    let hot = engine_sweep(&mut fz);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "hot engine sweep allocated {} times over {} rows",
        after - before,
        hot.1
    );
    assert_eq!(
        (warm.0.to_bits(), warm.1),
        (hot.0.to_bits(), hot.1),
        "engine sweeps must be deterministic"
    );
}
