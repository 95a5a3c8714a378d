//! Fault-injection chaos harness: ≥1000 adversarial documents through the
//! budgeted `align_checked` path. The contract under test:
//!
//! * zero panics, no matter how hostile the page;
//! * every budget is respected (virtual cells per table, graph edges);
//! * every degraded item emits a structured diagnostic, and the
//!   diagnostics serialize as valid JSONL;
//! * clean documents produce alignments bit-identical to the classic
//!   unbudgeted `align`.

use briq::substrates::corpus::corpus::{generate_corpus, CorpusConfig};
use briq::substrates::corpus::perturb::{adversarial_documents, Adversary};
use briq::{
    align_batch, AlignOpts, Alignment, BatchConfig, Briq, BriqConfig, Budget, DegradedAction,
    Diagnostic, Diagnostics, Document, Stage, Table, TableMentionKind,
};

/// Align `doc` under `budget`: alignments plus diagnostics.
fn align_budgeted(briq: &Briq, doc: &Document, budget: Budget) -> (Vec<Alignment>, Diagnostics) {
    let out = briq.align_with(
        doc,
        &AlignOpts {
            budget,
            ..AlignOpts::default()
        },
    );
    (out.alignments, out.diagnostics)
}

/// Tight enough that the hostile families actually hit the caps.
fn chaos_budget() -> Budget {
    Budget {
        max_virtual_cells_per_table: 120,
        max_graph_edges: 1_500,
        max_rwr_iterations: 40,
    }
}

#[test]
fn thousand_adversarial_documents_never_panic_and_respect_budgets() {
    let briq = Briq::untrained(BriqConfig::default());
    let budget = chaos_budget();

    let mut processed = 0usize;
    let mut degraded_docs = 0usize;
    let mut fanout_truncations = 0usize;
    let mut seed = 0u64;

    while processed < 1000 {
        for kind in Adversary::ALL {
            for doc in adversarial_documents(kind, seed) {
                let (alignments, diags) = align_budgeted(&briq, &doc, budget);
                for a in &alignments {
                    assert!(
                        a.score.is_finite(),
                        "{kind:?} seed {seed}: non-finite score"
                    );
                    assert!(a.mention_end <= doc.text.len());
                }
                if !diags.is_clean() {
                    degraded_docs += 1;
                    // Every diagnostic must serialize as one valid JSON
                    // object per line.
                    let jsonl = diags.to_jsonl();
                    assert_eq!(jsonl.lines().count(), diags.items.len());
                    for line in jsonl.lines() {
                        let d: Diagnostic = briq_json::from_str(line)
                            .unwrap_or_else(|e| panic!("bad JSONL {line:?}: {e:?}"));
                        assert!(!d.error.is_empty());
                        assert!(!d.scope.is_empty());
                    }
                }
                if kind == Adversary::VirtualCellFanout
                    && diags.items.iter().any(|d| {
                        d.stage == Stage::VirtualCells && d.action == DegradedAction::Truncated
                    })
                {
                    fanout_truncations += 1;
                }
                // Budget enforcement, verified on a sample to keep the
                // harness fast: the scored document never carries more
                // virtual cells per table than allowed.
                if processed.is_multiple_of(17) {
                    let (sd, _) = briq.score_document_budgeted(&doc, &budget);
                    for (ti, _) in doc.tables.iter().enumerate() {
                        let virtuals = sd
                            .targets
                            .iter()
                            .filter(|t| t.table == ti && t.kind != TableMentionKind::SingleCell)
                            .count();
                        assert!(
                            virtuals <= budget.max_virtual_cells_per_table,
                            "{kind:?} seed {seed}: {virtuals} virtual cells"
                        );
                    }
                }
                processed += 1;
            }
        }
        seed += 1;
    }

    assert!(processed >= 1000, "only {processed} documents");
    // The harness is only meaningful if the budgets actually bite.
    assert!(degraded_docs > 0, "no document ever degraded");
    assert!(
        fanout_truncations > 0,
        "fanout family never hit the virtual-cell budget"
    );
}

/// The batch engine under fire: every adversarial family, all in one
/// parallel batch. The pool must (a) never panic, (b) keep each hostile
/// document's degradation isolated to that document, and (c) return
/// results bit-identical to running `align_with` sequentially —
/// for any worker count.
#[test]
fn adversarial_batch_is_deterministic_and_isolated() {
    let briq = Briq::untrained(BriqConfig::default());
    let budget = chaos_budget();

    let mut docs: Vec<Document> = Vec::new();
    for seed in 0..8 {
        for kind in Adversary::ALL {
            docs.extend(adversarial_documents(kind, seed));
        }
    }
    assert!(
        docs.len() >= 48,
        "only {} adversarial documents",
        docs.len()
    );

    let sequential: Vec<_> = docs
        .iter()
        .map(|d| align_budgeted(&briq, d, budget))
        .collect();

    for jobs in [1usize, 3, 8] {
        // Tracing on: recording is observation-only, so even the
        // adversarial batch must stay bit-identical to the untraced
        // sequential path below.
        let cfg = BatchConfig {
            budget,
            trace: true,
            ..BatchConfig::with_jobs(jobs)
        };
        let report = align_batch(&briq, &docs, &cfg);
        assert_eq!(report.documents.len(), docs.len());
        for (i, (dr, (alignments, diags))) in report.documents.iter().zip(&sequential).enumerate() {
            assert_eq!(dr.index, i, "jobs {jobs}: out of order");
            assert_eq!(
                &dr.alignments, alignments,
                "jobs {jobs} doc {i}: alignments diverged"
            );
            assert_eq!(
                &dr.diagnostics, diags,
                "jobs {jobs} doc {i}: diagnostics diverged"
            );
        }
        // The batch must degrade exactly where the sequential path does —
        // no more (cross-document contamination), no less (missed caps).
        let degraded: Vec<usize> = report
            .documents
            .iter()
            .filter(|d| !d.diagnostics.is_clean())
            .map(|d| d.index)
            .collect();
        let expected: Vec<usize> = sequential
            .iter()
            .enumerate()
            .filter(|(_, (_, diags))| !diags.is_clean())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(degraded, expected, "jobs {jobs}");
        assert!(!degraded.is_empty(), "chaos batch never hit a budget");

        // The combined JSONL stream parses line-by-line and carries the
        // batch index prefix for attribution.
        let combined = report.combined_diagnostics();
        for line in combined.to_jsonl().lines() {
            let d: Diagnostic =
                briq_json::from_str(line).unwrap_or_else(|e| panic!("bad JSONL {line:?}: {e:?}"));
            assert!(
                d.scope.starts_with("doc "),
                "unattributed scope {:?}",
                d.scope
            );
        }
    }
}

#[test]
fn degenerate_tables_are_isolated_per_table() {
    let briq = Briq::untrained(BriqConfig::default());
    // One healthy table between two degenerate ones: the document must
    // still align against the healthy table, with one Skipped diagnostic
    // per degenerate table.
    let doc = Document::new(
        0,
        "Depression was reported by 38 patients in the trial.",
        vec![
            Table::from_grid("", Vec::new()),
            Table::from_grid(
                "",
                vec![
                    vec!["effect".into(), "total".into()],
                    vec!["Rash".into(), "35".into()],
                    vec!["Depression".into(), "38".into()],
                ],
            ),
            Table::from_grid("", vec![Vec::new(), Vec::new()]),
        ],
    );
    let (alignments, diags) = briq.align_checked(&doc);
    let skipped: Vec<&Diagnostic> = diags
        .items
        .iter()
        .filter(|d| d.stage == Stage::Extraction && d.action == DegradedAction::Skipped)
        .collect();
    assert_eq!(skipped.len(), 2, "{diags:?}");
    assert!(skipped.iter().any(|d| d.scope == "table 0"));
    assert!(skipped.iter().any(|d| d.scope == "table 2"));
    // Fault isolation: the healthy table still aligns.
    assert!(
        alignments
            .iter()
            .any(|a| a.target.table == 1 && a.mention_raw.starts_with("38")),
        "{alignments:?}"
    );
}

#[test]
fn clean_documents_align_bit_identically_under_checking() {
    let briq = Briq::untrained(BriqConfig::default());
    let corpus = generate_corpus(&CorpusConfig {
        n_documents: 40,
        seed: 99,
        ..Default::default()
    });
    let mut compared = 0usize;
    for ld in &corpus.documents {
        let plain = briq.align(&ld.document);
        // Default budget: generous caps that clean documents never hit.
        let (checked, diags) = briq.align_checked(&ld.document);
        assert_eq!(plain, checked, "doc {} diverged: {diags:?}", ld.document.id);
        // Unlimited budget: the exact same code path as `align`.
        let (unlimited, _) = align_budgeted(&briq, &ld.document, Budget::unlimited());
        assert_eq!(plain, unlimited, "doc {}", ld.document.id);
        compared += plain.len();
    }
    assert!(compared > 0, "corpus produced no alignments to compare");
}
