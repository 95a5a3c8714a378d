//! Helpers shared by the suites that compare the production path with
//! its reference. The two paths number their targets differently: the
//! reference builds every aggregate kind, production only the kinds some
//! mention of the document is tagged with (DESIGN.md §13). So candidates
//! are compared by what their target is, `(table, kind, cells)`, never by
//! its index.

use briq_core::filtering::Candidate;
use briq_core::pipeline::ScoredDocument;
use briq_table::{TableMention, TableMentionKind};

/// A target's identity, independent of its place in a target list.
pub type TargetId = (usize, TableMentionKind, Vec<(usize, usize)>);

/// The identity of `t`.
pub fn target_id(t: &TableMention) -> TargetId {
    (t.table, t.kind, t.cells.clone())
}

/// The production path's targets for the document `sd` scored, which
/// keeps every kind: the reference list minus the aggregates whose kind
/// no mention is tagged with, in the same order.
pub fn production_targets(sd: &ScoredDocument) -> Vec<TableMention> {
    sd.targets
        .iter()
        .filter(|t| {
            t.aggregation()
                .is_none_or(|k| sd.tags.iter().any(|tags| tags.contains(&k)))
        })
        .cloned()
        .collect()
}

/// Per mention, each candidate's target identity (read from `targets`,
/// the list its indices point into) and score bits.
pub fn candidates_by_id(
    candidates: &[Vec<Candidate>],
    targets: &[TableMention],
) -> Vec<Vec<(TargetId, u64)>> {
    candidates
        .iter()
        .map(|cs| {
            cs.iter()
                .map(|c| (target_id(&targets[c.target]), c.score.to_bits()))
                .collect()
        })
        .collect()
}
