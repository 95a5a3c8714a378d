//! Property: the retrieval index never loses a pair that matters. For
//! any document — drawn from every adversarial perturbation family with
//! proptest-chosen seeds — every candidate the exhaustive oracle keeps
//! after filtering must have been in the index's retrieved set for that
//! mention. Recall over surviving pairs is exactly 1.0 by construction;
//! this test hunts for a counterexample.

use std::collections::BTreeSet;

use briq_core::pipeline::{Briq, BriqConfig};
use briq_core::retrieval::{CandidateIndex, RetrievalScratch};
use briq_core::Budget;
use briq_corpus::corpus::{generate_corpus, CorpusConfig};
use briq_corpus::perturb::{adversarial_documents, Adversary};
use briq_table::Document;
use proptest::prelude::*;

/// Check one document: retrieve per mention, then assert the oracle's
/// surviving candidates all came from the retrieved set.
fn assert_superset(briq: &Briq, doc: &Document, budget: &Budget, label: &str) {
    let (sd, _) = briq.score_document_budgeted(doc, budget);
    let theta = briq.cfg.filter.value_diff_threshold;
    let index = CandidateIndex::build(&sd.targets, theta);
    let (candidates, _) = briq.filter(&sd);
    let mut scratch = RetrievalScratch::default();
    for (mi, mention) in sd.mentions.iter().enumerate() {
        index.retrieve(
            mention.quantity.value,
            mention.quantity.unit,
            &sd.tags[mi],
            &mut scratch,
        );
        let retrieved: BTreeSet<usize> = scratch
            .near
            .iter()
            .chain(scratch.far.iter())
            .copied()
            .collect();
        for c in &candidates[mi] {
            assert!(
                retrieved.contains(&c.target),
                "{label} doc {} mention {mi}: surviving target {} (score {}) \
                 was not retrieved ({} of {} targets retrieved)",
                doc.id,
                c.target,
                c.score,
                retrieved.len(),
                sd.targets.len()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Superset holds on every adversarial family at arbitrary seeds.
    #[test]
    fn retrieved_set_covers_surviving_pairs_adversarial(
        family in 0usize..Adversary::ALL.len(),
        seed in 0u64..10_000,
    ) {
        let kind = Adversary::ALL[family];
        let briq = Briq::untrained(BriqConfig::default());
        let budget = Budget {
            max_virtual_cells_per_table: 120,
            max_graph_edges: 1_500,
        };
        for doc in adversarial_documents(kind, seed) {
            assert_superset(&briq, &doc, &budget, &format!("{kind:?}"));
        }
    }

    /// And on well-formed corpus documents at arbitrary seeds.
    #[test]
    fn retrieved_set_covers_surviving_pairs_corpus(seed in 0u64..10_000) {
        let briq = Briq::untrained(BriqConfig::default());
        let docs = generate_corpus(&CorpusConfig {
            n_documents: 4,
            seed,
            ..Default::default()
        })
        .documents;
        let budget = Budget::unlimited();
        for ld in &docs {
            assert_superset(&briq, &ld.document, &budget, "corpus");
        }
    }
}
