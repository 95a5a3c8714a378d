//! The production path must be unobservable in output: for every
//! document, the default configuration (retrieval index + batched
//! engine, CSR walks) and the reference configuration
//! ([`BriqConfig::reference`]: exhaustive scoring, dense walks, no
//! store) must produce bit-identical alignments, candidates, filter
//! statistics, and diagnostics — same f64 bits, not "close". This is the
//! recall contract of `briq_core::retrieval` (DESIGN.md §13) and the
//! engine's exactness contract (§10) checked on real pipeline output.
//! Production builds only the aggregate kinds some mention is tagged
//! with, so its target list is the reference's minus the untagged kinds,
//! and candidates compare by their target's `(table, kind, cells)`.
//!
//! Coverage: seeded well-formed corpus documents, every adversarial
//! chaos family, and both the untrained heuristic prior and a trained
//! forest (the two scoring entry points have separate selected-path
//! implementations). Each test also checks that the two paths really
//! differ in work: production retrieves candidates (and, trained,
//! prunes pairs) while the reference retrieves and prunes nothing —
//! and that production accounts for every retrieved row exactly once:
//! scored by phase A or the heuristic, scored by phase B, or pruned.

mod common;

use briq_core::obs::{names, MetricsRegistry, Recorder};
use briq_core::pipeline::{AlignOpts, AlignOutput, Briq, BriqConfig};
use briq_core::{Budget, FeatureMask, Stage};
use briq_corpus::corpus::{generate_corpus, CorpusConfig};
use briq_corpus::perturb::{adversarial_documents, Adversary};
use briq_table::{Document, Table};
use common::{candidates_by_id, production_targets, target_id};

/// Tight budget for adversarial documents (some families are quadratic
/// unbudgeted); identical for both paths, so degradation is symmetric.
fn adversarial_budget() -> Budget {
    Budget {
        max_virtual_cells_per_table: 120,
        max_graph_edges: 1_500,
    }
}

/// `briq` with the tight walk cap the adversarial documents run under.
fn adversarial_system(briq: &Briq) -> Briq {
    let mut tight = briq.clone();
    tight.cfg.resolution.max_iterations = 40;
    tight
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
    // The reference's targets are the every-kind list `score_document`
    // builds; production's are that list minus the untagged kinds.
    let (sd, _) = oracle.score_document_budgeted(doc, &budget);
    let live = production_targets(&sd);
    assert_eq!(
        candidates_by_id(&prod.candidates, &live),
        candidates_by_id(&refr.candidates, &sd.targets),
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
        r.counter(names::TARGETS),
        sd.targets.len() as u64,
        "reference targets on {label} doc {}",
        doc.id
    );
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
        m.counter(names::TARGETS),
        live.len() as u64,
        "production targets on {label} doc {}",
        doc.id
    );
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
    let briq = adversarial_system(&Briq::untrained(BriqConfig::default()));
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
    let briq = adversarial_system(&briq);
    let oracle = reference(&briq);
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

/// The engine scores each row through a forest layout specialized to
/// the row's f6 side, f8 and f12 codes, built on the first trained
/// classify with the f6 split at the `value_diff_threshold` then in force
/// (0.35). A threshold moved afterwards changes which rows retrieval
/// calls near, not the split the layouts were built at: each row is
/// classed by its own f6 against that split, so output stays exact.
#[test]
fn trained_path_matches_oracle_after_the_split_moves() {
    let docs = generate_corpus(&CorpusConfig::small(59)).documents;
    let (train, rest) = docs.split_at(docs.len() * 2 / 3);
    let briq = Briq::train(BriqConfig::default(), train, rest);
    assert_eq!(briq.cfg.filter.value_diff_threshold, 0.35);
    // Builds the layouts; a clone carries them.
    assert_identical(
        &briq,
        &reference(&briq),
        &docs[0].document,
        Budget::unlimited(),
        "trained at 0.35",
    );
    for threshold in [0.2, 0.6] {
        let mut moved = briq.clone();
        moved.cfg.filter.value_diff_threshold = threshold;
        let oracle = reference(&moved);
        let mut retrieved = 0;
        for ld in &docs {
            let label = format!("trained, split moved to {threshold}");
            retrieved +=
                assert_identical(&moved, &oracle, &ld.document, Budget::unlimited(), &label)
                    .counter(names::RETRIEVAL_CANDIDATES);
        }
        assert!(retrieved > 0, "index never retrieved a candidate");
    }
}

/// With the context group masked, f12 (and f11) read 0.0 in every
/// layout whatever the row holds, so the pick's f12 code only chooses
/// among equal layouts.
#[test]
fn trained_path_matches_oracle_with_the_context_group_masked() {
    let docs = generate_corpus(&CorpusConfig::small(61)).documents;
    let (train, rest) = docs.split_at(docs.len() * 2 / 3);
    let cfg = BriqConfig {
        mask: FeatureMask {
            context: false,
            ..FeatureMask::all()
        },
        ..BriqConfig::default()
    };
    let briq = Briq::train(cfg, train, rest);
    let oracle = reference(&briq);
    let mut pruned = 0;
    for ld in &docs {
        pruned += assert_identical(
            &briq,
            &oracle,
            &ld.document,
            Budget::unlimited(),
            "trained, context masked",
        )
        .counter(names::PAIRS_PRUNED);
    }
    assert!(pruned > 0, "bound pruning never engaged");
}

/// Production builds the reference's targets minus the aggregates of
/// kinds no mention is tagged with, in the same order: over the corpus
/// it builds fewer targets, every single cell, and every target of a
/// tagged kind, and it counts the rest so Table VI stays whole.
#[test]
fn production_targets_are_the_reference_minus_untagged_kinds() {
    let briq = Briq::untrained(BriqConfig::default());
    let oracle = reference(&briq);
    let docs = generate_corpus(&CorpusConfig {
        n_documents: 24,
        seed: 43,
        ..Default::default()
    })
    .documents;
    let (mut built, mut every) = (0, 0);
    for ld in &docs {
        let doc = &ld.document;
        let (sd, _) = oracle.score_document_budgeted(doc, &Budget::unlimited());
        let live = production_targets(&sd);
        let m = assert_identical(&briq, &oracle, doc, Budget::unlimited(), "live targets");
        built += m.counter(names::TARGETS);
        every += sd.targets.len() as u64;
        // The live list keeps the reference's order: its identities are
        // a subsequence of the reference's, and they are unique.
        let ids: Vec<_> = sd.targets.iter().map(target_id).collect();
        let mut at = 0;
        for t in &live {
            let id = target_id(t);
            at += ids[at..].iter().position(|x| *x == id).expect("in order") + 1;
        }
        let unique: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(unique.len(), ids.len(), "doc {} target identities", doc.id);
    }
    assert!(built < every, "no untagged kind was left unbuilt");
}

/// A table past `max_virtual_cells_per_table`, whose tagged kind (the
/// column sums) comes after the untagged pairs in the generation order:
/// the untagged cells still take their places against the cap, so
/// production stops where the reference stops, reports the same
/// `VirtualCellBudgetExceeded` diagnostic, the same Table VI totals, and
/// the same alignments.
#[test]
fn capped_table_with_a_late_tagged_kind_matches_oracle() {
    // Six rows of four numeric columns: each row yields a sum and 30 pair
    // cells (186 in all), then each column a sum and up to 75 pair cells.
    let grid: Vec<Vec<String>> = std::iter::once(
        ["region", "q1", "q2", "q3", "q4"]
            .map(String::from)
            .to_vec(),
    )
    .chain(
        ["north", "south", "east", "west", "inland", "coast"]
            .iter()
            .zip(1..)
            .map(|(name, r)| {
                std::iter::once(name.to_string())
                    .chain((1..=4).map(|c| (10 * r + 3 * c + r * c).to_string()))
                    .collect()
            }),
    )
    .collect();
    let column_sum = |c: usize| (1..=6).map(|r| 10 * r + 3 * c + r * c).sum::<usize>();
    // Cut generation inside the third column: its sum exists, the fourth
    // column's does not.
    let budget = Budget {
        max_virtual_cells_per_table: 186 + 2 * 76 + 10,
        ..Budget::unlimited()
    };
    let briq = Briq::untrained(BriqConfig::default());
    let oracle = reference(&briq);
    for c in [3, 4] {
        let doc = Document::new(
            0,
            format!(
                "A total of {} units were sold in the year, {} of them in the south.",
                column_sum(c),
                10 * 2 + 3 * c + 2 * c
            ),
            vec![Table::from_grid("Units sold", grid.clone())],
        );
        let label = format!("capped column {c}");
        let m = assert_identical(&briq, &oracle, &doc, budget, &label);
        let prod = run(&briq, &doc, budget, None);
        let truncated: Vec<_> = prod
            .diagnostics
            .items
            .iter()
            .filter(|d| d.stage == Stage::VirtualCells)
            .collect();
        assert_eq!(truncated.len(), 1, "{label}: {:?}", prod.diagnostics);
        assert!(
            truncated[0].error.contains("virtual-cell budget"),
            "{label}: {:?}",
            truncated[0]
        );
        let (sd, _) = oracle.score_document_budgeted(&doc, &budget);
        assert!(
            sd.tags
                .iter()
                .any(|t| t == &[briq_text::AggregationKind::Sum]),
            "{label}: the total is tagged sum"
        );
        assert!(
            m.counter(names::TARGETS) < sd.targets.len() as u64,
            "{label}: untagged kinds were built"
        );
        // The third column's sum is within the cap and aligns; the fourth
        // column's is past it on both paths.
        let sum_aligned = prod.alignments.iter().any(|a| {
            a.target.aggregation() == Some(briq_text::AggregationKind::Sum)
                && a.target.value == column_sum(c) as f64
        });
        assert_eq!(sum_aligned, c == 3, "{label}: {:?}", prod.alignments);
    }
}
