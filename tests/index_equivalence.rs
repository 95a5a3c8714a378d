//! The production path must be unobservable in output: for every
//! document, the default configuration (retrieval index + batched
//! engine, CSR walks) and the reference configuration
//! ([`BriqConfig::reference`]: exhaustive scoring, dense walks, no
//! store) must produce bit-identical alignments, candidates, filter
//! statistics, and diagnostics — same f64 bits, not "close". This is the
//! recall contract of `briq_core::retrieval` (DESIGN.md §13) and the
//! engine's exactness contract (§10) checked on real pipeline output.
//!
//! Coverage: seeded well-formed corpus documents, every adversarial
//! chaos family, and both the untrained heuristic prior and a trained
//! forest (the two scoring entry points have separate selected-path
//! implementations). Each test also checks that the two paths really
//! differ in work: production retrieves candidates (and, trained,
//! prunes pairs) while the reference retrieves and prunes nothing —
//! and that production accounts for every retrieved row exactly once:
//! scored by phase A or the heuristic, scored by phase B, or pruned.

use briq_core::obs::{names, MetricsRegistry, Recorder};
use briq_core::pipeline::{AlignOpts, AlignOutput, Briq, BriqConfig};
use briq_core::Budget;
use briq_corpus::corpus::{generate_corpus, CorpusConfig};
use briq_corpus::perturb::{adversarial_documents, Adversary};
use briq_table::Document;

/// Tight budget for adversarial documents (some families are quadratic
/// unbudgeted); identical for both paths, so degradation is symmetric.
fn adversarial_budget() -> Budget {
    Budget {
        max_virtual_cells_per_table: 120,
        max_graph_edges: 1_500,
        max_rwr_iterations: 40,
    }
}

/// The same system on the reference configuration — identical model, so
/// any output difference is the production path's fault alone.
fn reference(briq: &Briq) -> Briq {
    let mut oracle = briq.clone();
    oracle.cfg = oracle.cfg.reference();
    oracle
}

fn run(briq: &Briq, doc: &Document, budget: Budget, recorder: Option<&Recorder>) -> AlignOutput {
    briq.align_with(
        doc,
        &AlignOpts {
            budget,
            recorder,
            ..AlignOpts::default()
        },
    )
}

/// Assert bit-identical output across the two paths and that production
/// scored or pruned each retrieved row exactly once, and return what the
/// production run recorded. Debug formatting prints f64s
/// shortest-round-trip, so any bit drift in a score (beyond NaN
/// payloads, which filtering's total order would surface as reordering
/// anyway) fails the comparison.
fn assert_identical(
    briq: &Briq,
    oracle: &Briq,
    doc: &Document,
    budget: Budget,
    label: &str,
) -> MetricsRegistry {
    let rec = Recorder::enabled();
    let prod = run(briq, doc, budget, Some(&rec));
    let ref_rec = Recorder::enabled();
    let refr = run(oracle, doc, budget, Some(&ref_rec));
    assert_eq!(
        format!("{:?}", prod.alignments),
        format!("{:?}", refr.alignments),
        "alignments diverge on {label} doc {}",
        doc.id
    );
    assert_eq!(
        format!("{:?}", prod.candidates),
        format!("{:?}", refr.candidates),
        "candidates diverge on {label} doc {}",
        doc.id
    );
    assert_eq!(
        prod.stats, refr.stats,
        "filter statistics diverge on {label} doc {}",
        doc.id
    );
    assert_eq!(
        prod.diagnostics.to_jsonl(),
        refr.diagnostics.to_jsonl(),
        "diagnostics diverge on {label} doc {}",
        doc.id
    );
    let r = ref_rec
        .finish()
        .expect("enabled recorder yields a trace")
        .metrics;
    assert_eq!(
        (
            r.counter(names::RETRIEVAL_CANDIDATES),
            r.counter(names::RETRIEVAL_PAIRS_DROPPED),
            r.counter(names::PAIRS_PRUNED)
        ),
        (0, 0, 0),
        "reference path used the index or engine on {label} doc {}",
        doc.id
    );
    let m = rec
        .finish()
        .expect("enabled recorder yields a trace")
        .metrics;
    assert_eq!(
        m.counter(names::ROWS_SCORED_EXHAUSTIVE)
            + m.counter(names::ROWS_SCORED_BOUNDED)
            + m.counter(names::PAIRS_PRUNED),
        m.counter(names::RETRIEVAL_CANDIDATES),
        "retrieved rows not scored or pruned exactly once on {label} doc {}",
        doc.id
    );
    m
}

#[test]
fn untrained_indexed_path_matches_oracle_on_corpus() {
    let briq = Briq::untrained(BriqConfig::default());
    assert!(briq.cfg.use_index, "index is the default path");
    let oracle = reference(&briq);
    let docs = generate_corpus(&CorpusConfig {
        n_documents: 24,
        seed: 41,
        ..Default::default()
    })
    .documents;
    let mut retrieved = 0;
    for ld in &docs {
        let m = assert_identical(&briq, &oracle, &ld.document, Budget::unlimited(), "corpus");
        retrieved += m.counter(names::RETRIEVAL_CANDIDATES);
    }
    assert!(retrieved > 0, "index never retrieved a candidate");
}

#[test]
fn untrained_indexed_path_matches_oracle_on_adversarial_families() {
    let briq = Briq::untrained(BriqConfig::default());
    let oracle = reference(&briq);
    let budget = adversarial_budget();
    let mut retrieved = 0;
    for kind in Adversary::ALL {
        for seed in [1u64, 2] {
            for doc in adversarial_documents(kind, seed) {
                let label = format!("{kind:?} seed {seed}");
                retrieved += assert_identical(&briq, &oracle, &doc, budget, &label)
                    .counter(names::RETRIEVAL_CANDIDATES);
            }
        }
    }
    assert!(retrieved > 0, "index never retrieved a candidate");
}

#[test]
fn trained_indexed_path_matches_oracle() {
    let corpus = generate_corpus(&CorpusConfig::small(53));
    let docs = corpus.documents;
    let (train, rest) = docs.split_at(docs.len() * 2 / 3);
    let briq = Briq::train(BriqConfig::default(), train, rest);
    assert!(briq.is_trained());
    let oracle = reference(&briq);
    let (mut retrieved, mut pruned) = (0, 0);
    for ld in &docs {
        let m = assert_identical(
            &briq,
            &oracle,
            &ld.document,
            Budget::unlimited(),
            "trained corpus",
        );
        retrieved += m.counter(names::RETRIEVAL_CANDIDATES);
        pruned += m.counter(names::PAIRS_PRUNED);
    }
    assert!(retrieved > 0, "index never retrieved a candidate");
    assert!(
        pruned > 0,
        "bound pruning never engaged on the trained model"
    );
    let budget = adversarial_budget();
    for kind in [
        Adversary::NonFiniteNumerics,
        Adversary::MixedLocale,
        Adversary::VirtualCellFanout,
    ] {
        for doc in adversarial_documents(kind, 5) {
            assert_identical(&briq, &oracle, &doc, budget, &format!("trained {kind:?}"));
        }
    }
}
