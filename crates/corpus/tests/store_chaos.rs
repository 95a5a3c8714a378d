//! Chaos-family equivalence suite for the alignment store (DESIGN.md
//! §15): across all 8 adversarial perturbation families, incremental
//! re-alignment through a warm [`AlignmentStore`] must be bit-identical
//! to a cold full recompute — alignments, filter-stat totals, kept
//! candidates, and diagnostics. The store is only allowed to change
//! *when* work happens, never what it produces, and the adversarial
//! generators (truncated HTML, colspan bombs, non-finite numerics,
//! regex-hostile text, …) are exactly the inputs where a stale or
//! miskeyed cache would slip through a clean-corpus test.

use briq_core::obs::{names, Recorder};
use briq_core::pipeline::{AlignOpts, AlignOutput, Briq, BriqConfig};
use briq_core::store::{text_fingerprint, AlignmentStore, StoreOptions};
use briq_core::Budget;
use briq_corpus::corpus::{generate_corpus, CorpusConfig};
use briq_corpus::perturb::{adversarial_documents, perturb_document, Adversary, Perturbation};
use briq_table::Document;

/// Align `doc` through `store` under document key `key`.
fn stored(
    briq: &Briq,
    store: &AlignmentStore,
    key: u64,
    doc: &Document,
    budget: Budget,
) -> AlignOutput {
    briq.align_with(
        doc,
        &AlignOpts {
            budget,
            store: Some((store, key)),
            ..AlignOpts::default()
        },
    )
}

/// Assert `got` matches the full-recompute `full` on every output
/// surface: alignments, filter stats, candidates, and diagnostics.
fn assert_same(got: &AlignOutput, full: &AlignOutput, label: &str) {
    assert_eq!(got.alignments, full.alignments, "{label} alignments");
    assert_eq!(got.stats, full.stats, "{label} filter stats");
    assert_eq!(got.candidates, full.candidates, "{label} candidates");
    assert_eq!(
        got.diagnostics.items, full.diagnostics.items,
        "{label} diagnostics"
    );
}

fn briq() -> Briq {
    Briq::untrained(BriqConfig::default())
}

/// The full-recompute oracle: `doc` aligned with no store, through the
/// plain pipeline, returning the same output surface as the store path.
fn storeless(briq: &Briq, doc: &Document, budget: Budget) -> AlignOutput {
    briq.align_with(
        doc,
        &AlignOpts {
            budget,
            ..AlignOpts::default()
        },
    )
}

/// Warm-unchanged: every chaos family's documents, aligned cold through
/// the store and then re-aligned warm, match the full recompute on
/// every output surface — and the warm pass skips classify, filter,
/// and resolve entirely (it opens none of their spans and scores no
/// pair).
#[test]
fn warm_unchanged_matches_full_recompute_across_all_families() {
    let briq = briq();
    let budget = Budget::default();
    for kind in Adversary::ALL {
        for seed in [11u64, 29] {
            let docs = adversarial_documents(kind, seed);
            let store = AlignmentStore::with_options(&briq, &StoreOptions::default()).unwrap();
            for (i, doc) in docs.iter().enumerate() {
                // Cold pass populates the cache.
                stored(&briq, &store, i as u64, doc, budget);
            }
            for (i, doc) in docs.iter().enumerate() {
                let warm = stored(&briq, &store, i as u64, doc, budget);
                let full = storeless(&briq, doc, budget);
                assert_same(
                    &warm,
                    &full,
                    &format!("{}: seed {seed} doc {i}", kind.name()),
                );

                let rec = Recorder::enabled();
                briq.align_with(
                    doc,
                    &AlignOpts {
                        budget,
                        recorder: Some(&rec),
                        store: Some((&store, i as u64)),
                        ..AlignOpts::default()
                    },
                );
                let trace = rec.finish().expect("an enabled recorder yields a trace");
                let skipped = [
                    names::SPAN_CLASSIFY,
                    names::SPAN_FILTER,
                    names::SPAN_GRAPH,
                    names::SPAN_RESOLVE,
                ];
                assert!(
                    trace.spans.iter().all(|s| !skipped.contains(&s.name))
                        && trace.metrics.counter(names::PAIRS_SCORED) == 0,
                    "{}: seed {seed} doc {i} warm hit must skip classify/filter/resolve",
                    kind.name()
                );
            }
            if !docs.is_empty() {
                assert!(
                    store.hits() > 0,
                    "{}: seed {seed} no warm hits",
                    kind.name()
                );
            }
        }
    }
}

/// Mutation under stable identity: warm the store on one seed of each
/// family, then serve the *next* seed's documents under the same keys —
/// every content difference must invalidate and re-align to exactly the
/// full recompute, across every output surface.
#[test]
fn mutated_documents_match_full_recompute_across_all_families() {
    let briq = briq();
    let budget = Budget::default();
    for kind in Adversary::ALL {
        let seed = 43u64;
        let store = AlignmentStore::with_options(&briq, &StoreOptions::default()).unwrap();
        for (i, doc) in adversarial_documents(kind, seed).iter().enumerate() {
            stored(&briq, &store, i as u64, doc, budget);
        }
        let mutated = adversarial_documents(kind, seed + 1);
        for (i, doc) in mutated.iter().enumerate() {
            let inc = stored(&briq, &store, i as u64, doc, budget);
            let full = storeless(&briq, doc, budget);
            assert_same(&inc, &full, &format!("{}: mutated doc {i}", kind.name()));
        }
    }
}

/// The numeral-perturbation families feed the fingerprint contract:
/// perturbing a document changes its text fingerprint iff it changed
/// the text (Original is a no-op; Truncated/Rounded may be no-ops on
/// documents whose numerals are fixed points of the transform).
#[test]
fn perturbation_families_move_text_fingerprint_iff_text_changes() {
    let corpus = generate_corpus(&CorpusConfig {
        n_documents: 24,
        seed: 97,
        ..Default::default()
    });
    let mut changed = 0usize;
    for ld in &corpus.documents {
        for p in Perturbation::ALL {
            let perturbed = perturb_document(ld, p);
            assert_eq!(
                ld.document.text == perturbed.document.text,
                text_fingerprint(&ld.document.text) == text_fingerprint(&perturbed.document.text),
                "{}: fingerprint must change iff text changes",
                p.name()
            );
            if ld.document.text != perturbed.document.text {
                changed += 1;
            }
        }
    }
    assert!(changed > 0, "perturbations never changed any document");
}
