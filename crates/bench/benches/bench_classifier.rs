//! Classifier hot-path microbench: the naive per-pair path (allocate a
//! feature vector, copy it, apply the mask, traverse the recursive
//! forest) against the production path (precomputed [`PairFeaturizer`]
//! rows scored through the mask-baked [`FlatForest`] layout). Both paths
//! produce bit-identical scores; only the cost differs.
//!
//! Besides the ns/iter lines, the bench prints a `classifier-throughput`
//! summary — scored pairs per second over a whole document for each
//! path — and a `classifier-throughput-engine` line for the trained
//! retrieval + pruning engine, which CI's bench-smoke stage records
//! (non-gating).

use briq_core::classifier::PairClassifier;
use briq_core::features::{feature_vector, FeatureMask, PairFeaturizer, FEATURE_COUNT};
use briq_core::pipeline::{heuristic_prior, heuristic_prior_masked, Briq, BriqConfig};
use briq_core::retrieval::{CandidateIndex, RetrievalScratch};
use briq_core::scoring::ScoringEngine;
use briq_corpus::corpus::{generate_corpus, CorpusConfig};
use briq_ml::{Dataset, RandomForestConfig};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Instant;

/// A scored document with enough pairs to exercise the hot loop.
fn scored_doc(briq: &Briq) -> briq_core::pipeline::ScoredDocument {
    let c = generate_corpus(&CorpusConfig {
        n_documents: 12,
        seed: 77,
        ..Default::default()
    });
    // Pick the document with the largest pair count so per-pair setup
    // costs are amortized realistically.
    c.documents
        .iter()
        .map(|d| briq.score_document(&d.document))
        .max_by_key(|sd| sd.mentions.len() * sd.targets.len())
        .expect("corpus is non-empty")
}

/// A trained classifier over synthetic pair data (the bench measures
/// scoring cost, not model quality).
fn trained_classifier(mask: FeatureMask) -> PairClassifier {
    use rand::prelude::*;
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut data = Dataset::new();
    for _ in 0..400 {
        let related = rng.random_bool(0.3);
        let mut row = vec![0.0; FEATURE_COUNT];
        for v in row.iter_mut() {
            *v = rng.random_range(0.0..1.0);
        }
        if related {
            row[0] = rng.random_range(0.7..1.0);
            row[5] = rng.random_range(0.0..0.1);
        }
        data.push(row, related);
    }
    data.apply_class_weights();
    PairClassifier::train(&data, RandomForestConfig::default(), mask)
}

fn bench_heuristic_paths(c: &mut Criterion) {
    let briq = Briq::untrained(BriqConfig::default());
    let sd = scored_doc(&briq);
    let mask = briq.cfg.mask;
    let mut group = c.benchmark_group("classifier/heuristic_doc");
    group.sample_size(10);

    // Naive: allocate a fresh 12-feature vector per pair, mask, score.
    group.bench_function("naive", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for x in &sd.mentions {
                for t in &sd.targets {
                    let mut f = feature_vector(x, t, &sd.ctx);
                    mask.apply(&mut f);
                    acc += heuristic_prior(&f);
                }
            }
            acc
        })
    });

    // Production: precomputed invariants, one reused row matrix, masked
    // prior reads in place.
    group.bench_function("precomputed", |b| {
        b.iter(|| {
            let mut fz = PairFeaturizer::new(&sd.mentions, &sd.targets, &sd.ctx);
            let mut rows: Vec<f64> = Vec::new();
            let mut acc = 0.0f64;
            for mi in 0..sd.mentions.len() {
                fz.fill_mention_rows(mi, &mut rows);
                for row in rows.chunks_exact(FEATURE_COUNT) {
                    acc += heuristic_prior_masked(row, &mask);
                }
            }
            acc
        })
    });
    group.finish();
}

fn bench_forest_paths(c: &mut Criterion) {
    let briq = Briq::untrained(BriqConfig::default());
    let sd = scored_doc(&briq);
    let mask = FeatureMask::all();
    let clf = trained_classifier(mask);
    let mut group = c.benchmark_group("classifier/forest_doc");
    group.sample_size(10);

    // Naive: per-pair vector allocation + copy + mask + recursive forest.
    group.bench_function("naive", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for x in &sd.mentions {
                for t in &sd.targets {
                    let f = feature_vector(x, t, &sd.ctx);
                    let mut masked = f.clone();
                    mask.apply(&mut masked);
                    acc += clf.forest().predict_proba(&masked);
                }
            }
            acc
        })
    });

    // Production: featurizer rows through the mask-baked flat forest.
    group.bench_function("precomputed_flat", |b| {
        b.iter(|| {
            let mut fz = PairFeaturizer::new(&sd.mentions, &sd.targets, &sd.ctx);
            let mut rows: Vec<f64> = Vec::new();
            let mut acc = 0.0f64;
            for mi in 0..sd.mentions.len() {
                fz.fill_mention_rows(mi, &mut rows);
                for row in rows.chunks_exact(FEATURE_COUNT) {
                    acc += clf.score(row);
                }
            }
            acc
        })
    });
    group.finish();
}

/// Scored-pairs/sec summary for CI: both paths over the same document,
/// on one thread, printed in a grep-friendly shape.
fn throughput_summary(_c: &mut Criterion) {
    let briq = Briq::untrained(BriqConfig::default());
    let sd = scored_doc(&briq);
    let mask = briq.cfg.mask;
    let pairs = sd.mentions.len() * sd.targets.len();

    let time = |f: &mut dyn FnMut() -> f64| {
        // Warm up once, then take the best of 5 timed passes.
        black_box(f());
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let start = Instant::now();
            black_box(f());
            best = best.min(start.elapsed().as_secs_f64());
        }
        best
    };

    let naive_s = time(&mut || {
        let mut acc = 0.0;
        for x in &sd.mentions {
            for t in &sd.targets {
                let mut f = feature_vector(x, t, &sd.ctx);
                mask.apply(&mut f);
                acc += heuristic_prior(&f);
            }
        }
        acc
    });
    let fast_s = time(&mut || {
        let mut fz = PairFeaturizer::new(&sd.mentions, &sd.targets, &sd.ctx);
        let mut rows: Vec<f64> = Vec::new();
        let mut acc = 0.0;
        for mi in 0..sd.mentions.len() {
            fz.fill_mention_rows(mi, &mut rows);
            for row in rows.chunks_exact(FEATURE_COUNT) {
                acc += heuristic_prior_masked(row, &mask);
            }
        }
        acc
    });

    let pps = |s: f64| if s > 0.0 { pairs as f64 / s } else { 0.0 };
    println!(
        "classifier-throughput pairs={pairs} naive_pairs_per_sec={:.0} precomputed_pairs_per_sec={:.0} speedup={:.2}x",
        pps(naive_s),
        pps(fast_s),
        if fast_s > 0.0 { naive_s / fast_s } else { 0.0 },
    );

    // Trained-forest comparison: the dense block path (every row through
    // the flat forest) against the production path (retrieval index, then
    // the batched engine's exact bound-based pruning). Scores agree where
    // both compute; the production path just skips work filtering
    // provably discards. Non-gating — the line exists so CI logs carry
    // the pruning yield per change.
    let clf = trained_classifier(FeatureMask::all());
    let fcfg = briq_core::filtering::FilterConfig::default();
    let dense_s = time(&mut || {
        let mut fz = PairFeaturizer::new(&sd.mentions, &sd.targets, &sd.ctx);
        let mut rows: Vec<f64> = Vec::new();
        let mut out: Vec<f64> = Vec::new();
        let mut acc = 0.0;
        for mi in 0..sd.mentions.len() {
            fz.fill_mention_rows(mi, &mut rows);
            out.clear();
            out.resize(sd.targets.len(), 0.0);
            clf.flat().score_block(&rows, FEATURE_COUNT, &mut out);
            acc += out.iter().sum::<f64>();
        }
        acc
    });
    let engine_pass = || {
        let mut fz = PairFeaturizer::new(&sd.mentions, &sd.targets, &sd.ctx);
        let index = CandidateIndex::build(&sd.targets, fcfg.value_diff_threshold);
        let mut scratch = RetrievalScratch::default();
        let mut engine = ScoringEngine::new();
        let mut acc = 0.0;
        for (mi, x) in sd.mentions.iter().enumerate() {
            let tags = &sd.tags[mi];
            index.retrieve(x.quantity.value, x.quantity.unit, tags, &mut scratch);
            engine.fill_rows_selected(&mut fz, mi, &scratch.near, &scratch.far);
            engine.score_trained_selected(x, &sd.targets, tags, &clf, &fcfg);
            acc += engine.computed().iter().map(|&(_, s)| s).sum::<f64>();
        }
        (acc, engine)
    };
    let engine_s = time(&mut || engine_pass().0);
    // One untimed pass to report the engine's work-avoidance counters.
    let engine = engine_pass().1;
    let pruned = engine.pairs_pruned();
    println!(
        "classifier-throughput-engine pairs={pairs} pairs_pruned={pruned} dense_pairs_per_sec={:.0} engine_pairs_per_sec={:.0} speedup={:.2}x",
        pps(dense_s),
        pps(engine_s),
        if engine_s > 0.0 { dense_s / engine_s } else { 0.0 },
    );
}

criterion_group!(
    benches,
    bench_heuristic_paths,
    bench_forest_paths,
    throughput_summary
);
criterion_main!(benches);
