//! Bit-for-bit equivalence of the classifier hot path: the precomputed
//! [`PairFeaturizer`] + flat-forest scoring pipeline must reproduce the
//! naive reference path (`feature_vector` per pair, copy + mask +
//! recursive `predict_proba`) exactly — same f64 bits, not "close".
//!
//! Coverage: well-formed seeded corpus documents (>= 1000 pairs) and one
//! document per adversarial chaos family under a tight budget. The
//! production alignment path (retrieval + exact bound-based pruning,
//! see `briq_core::scoring`) is additionally held to the same standard
//! against the exhaustive score-everything reference: `score_document`
//! plus `filter`, and the reference configuration
//! ([`BriqConfig::reference`]).

use briq_core::classifier::PairClassifier;
use briq_core::features::{feature_vector, FeatureMask, PairFeaturizer, FEATURE_COUNT};
use briq_core::obs::{names, Recorder};
use briq_core::pipeline::{
    heuristic_prior, heuristic_prior_masked, AlignOpts, AlignOutput, Briq, BriqConfig,
    ScoredDocument,
};
use briq_core::Budget;
use briq_corpus::corpus::{generate_corpus, CorpusConfig};
use briq_corpus::perturb::{adversarial_documents, Adversary};
use briq_ml::{Dataset, RandomForestConfig};
use briq_table::Document;
use rand::prelude::*;
use rand::rngs::StdRng;

/// Every mask combination the ablation study can request.
fn all_masks() -> Vec<FeatureMask> {
    let mut out = Vec::new();
    for surface in [false, true] {
        for context in [false, true] {
            for quantity in [false, true] {
                out.push(FeatureMask {
                    surface,
                    context,
                    quantity,
                });
            }
        }
    }
    out
}

/// Compare the featurizer against the naive per-pair reference on every
/// (mention, target) pair of `sd`, returning the number of pairs checked.
///
/// The featurizer builds a target's surface on the first row that reads
/// it, so a fresh one first fills a reversed, strided subset of targets
/// per mention through `fill_rows_for` (a different subset per mention,
/// so surfaces are first built in an order unlike the full sweep's);
/// those rows and then the full sweep must both match the reference.
fn assert_featurizer_matches(sd: &ScoredDocument, scope: &str) -> usize {
    let mut fz = PairFeaturizer::new(&sd.mentions, &sd.targets, &sd.ctx);
    let mut row = [0.0f64; FEATURE_COUNT];
    let mut rows: Vec<f64> = Vec::new();
    for (mi, x) in sd.mentions.iter().enumerate() {
        let tis: Vec<usize> = (0..sd.targets.len())
            .rev()
            .skip(mi % 3)
            .step_by(3)
            .collect();
        fz.fill_rows_for(mi, &tis, &mut rows);
        for (&ti, filled) in tis.iter().zip(rows.chunks_exact(FEATURE_COUNT)) {
            let naive = feature_vector(x, &sd.targets[ti], &sd.ctx);
            for f in 0..FEATURE_COUNT {
                assert_eq!(
                    naive[f].to_bits(),
                    filled[f].to_bits(),
                    "{scope}: fill_rows_for() f{} mention {mi} target {ti}",
                    f + 1
                );
            }
        }
    }
    let mut pairs = 0usize;
    for (mi, x) in sd.mentions.iter().enumerate() {
        fz.fill_mention_rows(mi, &mut rows);
        assert_eq!(rows.len(), sd.targets.len() * FEATURE_COUNT, "{scope}");
        for (ti, t) in sd.targets.iter().enumerate() {
            let naive = feature_vector(x, t, &sd.ctx);
            fz.fill(mi, ti, &mut row);
            let batch = &rows[ti * FEATURE_COUNT..(ti + 1) * FEATURE_COUNT];
            for f in 0..FEATURE_COUNT {
                assert_eq!(
                    naive[f].to_bits(),
                    row[f].to_bits(),
                    "{scope}: fill() f{} mention {mi} target {ti}: {} vs {}",
                    f + 1,
                    naive[f],
                    row[f]
                );
                assert_eq!(
                    naive[f].to_bits(),
                    batch[f].to_bits(),
                    "{scope}: fill_mention_rows() f{} mention {mi} target {ti}",
                    f + 1
                );
            }
            pairs += 1;
        }
    }
    pairs
}

#[test]
fn featurizer_matches_naive_on_seeded_corpus() {
    let briq = Briq::untrained(BriqConfig::default());
    let corpus = generate_corpus(&CorpusConfig {
        n_documents: 24,
        seed: 20190408,
        ..Default::default()
    });
    let mut pairs = 0usize;
    for (i, ld) in corpus.documents.iter().enumerate() {
        let sd = briq.score_document(&ld.document);
        pairs += assert_featurizer_matches(&sd, &format!("corpus doc {i}"));
        if pairs >= 1000 && i >= 8 {
            break;
        }
    }
    assert!(
        pairs >= 1000,
        "only {pairs} pairs checked — corpus too small"
    );
}

#[test]
fn featurizer_matches_naive_on_chaos_documents() {
    let briq = Briq::untrained(BriqConfig::default());
    let budget = Budget {
        max_virtual_cells_per_table: 120,
        max_graph_edges: 1_500,
        max_rwr_iterations: 40,
    };
    for kind in Adversary::ALL {
        for doc in adversarial_documents(kind, 20190408) {
            let (sd, _diag) = briq.score_document_budgeted(&doc, &budget);
            assert_featurizer_matches(&sd, kind.name());
        }
    }
}

#[test]
fn heuristic_prior_masked_matches_copy_mask_score() {
    let mut rng = StdRng::seed_from_u64(99);
    for mask in all_masks() {
        for _ in 0..200 {
            let row: Vec<f64> = (0..FEATURE_COUNT)
                .map(|_| rng.random_range(-1.0..2.0))
                .collect();
            let mut masked = row.clone();
            mask.apply(&mut masked);
            assert_eq!(
                heuristic_prior_masked(&row, &mask).to_bits(),
                heuristic_prior(&masked).to_bits(),
                "mask {mask:?} row {row:?}"
            );
        }
    }
}

#[test]
fn flat_classifier_matches_recursive_forest_on_every_mask() {
    let mut rng = StdRng::seed_from_u64(4242);
    let mut data = Dataset::new();
    for _ in 0..300 {
        let related = rng.random_bool(0.4);
        let mut row = vec![0.0; FEATURE_COUNT];
        for v in row.iter_mut() {
            *v = rng.random_range(0.0..1.0);
        }
        if related {
            row[0] = rng.random_range(0.6..1.0);
        }
        data.push(row, related);
    }
    data.apply_class_weights();
    let rf = RandomForestConfig {
        n_trees: 24,
        ..Default::default()
    };
    for mask in all_masks() {
        let clf = PairClassifier::train(&data, rf, mask);
        for _ in 0..150 {
            let row: Vec<f64> = (0..FEATURE_COUNT)
                .map(|_| rng.random_range(-0.5..1.5))
                .collect();
            let mut masked = row.clone();
            mask.apply(&mut masked);
            assert_eq!(
                clf.score(&row).to_bits(),
                clf.forest().predict_proba(&masked).to_bits(),
                "mask {mask:?}"
            );
        }
    }
}

/// Compare two per-mention candidate lists for bit-exact equality.
fn assert_candidates_bit_equal(
    a: &[Vec<briq_core::filtering::Candidate>],
    b: &[Vec<briq_core::filtering::Candidate>],
    scope: &str,
) {
    assert_eq!(a.len(), b.len(), "{scope}: mention count");
    for (mi, (ca, cb)) in a.iter().zip(b).enumerate() {
        assert_eq!(ca.len(), cb.len(), "{scope}: mention {mi} candidate count");
        for (x, y) in ca.iter().zip(cb) {
            assert_eq!(x.target, y.target, "{scope}: mention {mi}");
            assert_eq!(
                x.score.to_bits(),
                y.score.to_bits(),
                "{scope}: mention {mi} target {} score {} vs {}",
                x.target,
                x.score,
                y.score
            );
        }
    }
}

/// Compare two alignment lists for bit-exact equality (PartialEq on
/// `Alignment` compares scores by value; pin the bits too).
fn assert_alignments_bit_equal(
    a: &[briq_core::mention::Alignment],
    b: &[briq_core::mention::Alignment],
    scope: &str,
) {
    assert_eq!(a, b, "{scope}: alignments differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(
            x.score.to_bits(),
            y.score.to_bits(),
            "{scope}: score bits differ for {:?}",
            x.mention_raw
        );
    }
}

fn run(briq: &Briq, doc: &Document, budget: Budget) -> AlignOutput {
    briq.align_with(
        doc,
        &AlignOpts {
            budget,
            ..AlignOpts::default()
        },
    )
}

#[test]
fn pruned_path_matches_exhaustive_filtering() {
    // The bound-based-pruning engine on the alignment hot path must be
    // unobservable: identical filtering survivors (same targets, same
    // f64 bits), identical stats, identical final alignments — against
    // both the exhaustive `score_document` + `filter` reference and a
    // full alignment on the reference configuration. A trained
    // classifier so bound-based pruning actually engages (the untrained
    // heuristic path scores every retrieved row).
    let corpus = generate_corpus(&CorpusConfig {
        n_documents: 40,
        seed: 20190408,
        ..Default::default()
    });
    let mut docs = corpus.documents;
    briq_corpus::annotate::annotate(
        &mut docs,
        &briq_corpus::annotate::AnnotatorConfig::default(),
    );
    let split = briq_ml::split::random_split(docs.len(), 0.15, 0.25, 1);
    let train: Vec<_> = split.train.iter().map(|&i| docs[i].clone()).collect();
    let val: Vec<_> = split.validation.iter().map(|&i| docs[i].clone()).collect();
    let cfg = BriqConfig {
        forest: RandomForestConfig {
            n_trees: 24,
            ..Default::default()
        },
        tagger_forest: RandomForestConfig {
            n_trees: 12,
            ..Default::default()
        },
        ..Default::default()
    };
    let briq = Briq::train(cfg, &train, &val);
    assert!(briq.is_trained());
    let mut oracle = briq.clone();
    oracle.cfg = oracle.cfg.reference();

    let mut pairs = 0usize;
    let mut pruned = 0u64;
    for (i, ld) in docs.iter().enumerate() {
        let scope = format!("corpus doc {i}");
        let doc = &ld.document;

        // Exhaustive reference: full score matrix, then the filter.
        let sd = briq.score_document(doc);
        pairs += sd.mentions.len() * sd.targets.len();
        let (cand_ref, stats_ref) = briq.filter(&sd);

        // Production path (recorded), then the reference configuration.
        let rec = Recorder::enabled();
        let on = briq.align_with(
            doc,
            &AlignOpts {
                budget: Budget::unlimited(),
                recorder: Some(&rec),
                ..AlignOpts::default()
            },
        );
        let off = run(&oracle, doc, Budget::unlimited());

        assert_candidates_bit_equal(&on.candidates, &cand_ref, &format!("{scope} on-vs-ref"));
        assert_candidates_bit_equal(
            &on.candidates,
            &off.candidates,
            &format!("{scope} on-vs-off"),
        );
        assert_eq!(on.stats, stats_ref, "{scope}: stats on-vs-ref");
        assert_eq!(on.stats, off.stats, "{scope}: stats on-vs-off");
        assert_alignments_bit_equal(&on.alignments, &off.alignments, &scope);

        // Every retrieved row is scored exactly once (phase A or B) or
        // pruned.
        let m = rec
            .finish()
            .expect("enabled recorder yields a trace")
            .metrics;
        assert_eq!(
            m.counter(names::ROWS_SCORED_EXHAUSTIVE)
                + m.counter(names::ROWS_SCORED_BOUNDED)
                + m.counter(names::PAIRS_PRUNED),
            m.counter(names::RETRIEVAL_CANDIDATES),
            "{scope}: retrieved rows not scored or pruned exactly once"
        );

        // The engine must actually be saving work somewhere in the run.
        pruned += m.counter(names::PAIRS_PRUNED);
    }
    assert!(pairs >= 1000, "only {pairs} pairs exercised");
    assert!(pruned > 0, "pruning never engaged over {pairs} pairs");

    // Every adversarial chaos family, under the tight budget: production
    // and reference must stay byte-identical even on degraded documents.
    let budget = Budget {
        max_virtual_cells_per_table: 120,
        max_graph_edges: 1_500,
        max_rwr_iterations: 40,
    };
    for kind in Adversary::ALL {
        for doc in adversarial_documents(kind, 20190408) {
            let on = run(&briq, &doc, budget);
            let off = run(&oracle, &doc, budget);
            assert_alignments_bit_equal(&on.alignments, &off.alignments, kind.name());
        }
    }
}

#[test]
fn end_to_end_scores_match_naive_recomputation() {
    // The pipeline's own scored matrix (built through the featurizer)
    // must equal scoring naive vectors through the masked prior.
    let briq = Briq::untrained(BriqConfig::default());
    let corpus = generate_corpus(&CorpusConfig {
        n_documents: 6,
        seed: 7,
        ..Default::default()
    });
    for ld in &corpus.documents {
        let sd = briq.score_document(&ld.document);
        for (mi, x) in sd.mentions.iter().enumerate() {
            for (ti, t) in sd.targets.iter().enumerate() {
                let f = feature_vector(x, t, &sd.ctx);
                let expect = heuristic_prior_masked(&f, &briq.cfg.mask);
                let (target, got) = sd.scored[mi][ti];
                assert_eq!(target, ti);
                assert_eq!(got.to_bits(), expect.to_bits());
            }
        }
    }
}
