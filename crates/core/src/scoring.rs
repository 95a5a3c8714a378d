//! Batched candidate-scoring engine: block-wise flat-forest traversal and
//! exact bound-based pruning (DESIGN.md §10).
//!
//! [`ScoringEngine`] scores the candidate rows the retrieval index
//! selects on the alignment hot path. Every retrieved row is either
//! scored exactly once — through [`briq_ml::FlatForest::score_block`]
//! (trees in the outer loop, rows in the inner loop), through
//! [`briq_ml::FlatForest::score_block_bounded`], or by the heuristic
//! prior — or pruned.
//!
//! Pruning is *exact*, never approximate: a row's scoring is abandoned
//! only when the forest's remaining-vote upper bound proves its score is
//! strictly below the smallest value at which downstream filtering
//! ([`crate::filtering::filter_mention_pruned`]) could keep the pair or
//! let it influence the mention-type vote. Alignments, candidates, and
//! filter statistics are therefore byte-identical to the exhaustive
//! reference path (`use_index: false`), which never enters the engine.

use briq_table::{TableMention, TableMentionKind};
use briq_text::cues::{AggregationKind, ApproxIndicator};

use crate::classifier::PairClassifier;
use crate::features::{FeatureMask, PairFeaturizer, FEATURE_COUNT};
use crate::filtering::FilterConfig;
use crate::mention::TextMention;
use crate::pipeline::heuristic_prior_masked;

/// The smallest classifier score at which filtering could still keep the
/// pair `(mention, target)` — derived from the already-filled feature row
/// and the exact keep conditions of `filter_mention_pruned`:
///
/// * `row[5]` is `relative_difference(x.value, t.value)`, the quantity
///   the value/unit pruning step compares against `value_diff_threshold`;
/// * `row[7] == 3.0` (both units specified and different) is exactly the
///   condition under which `unit_ok` fails.
///
/// A score strictly below the returned cut makes the keep decision
/// `false` without computing the score. `+∞` means the pair can never be
/// kept; `-∞` means it is kept at any score and must be computed. The
/// retrieval path derives its cuts from the near/far split instead and
/// checks them against this in debug builds.
fn static_cut(
    row: &[f64],
    target: &TableMention,
    tags: &[AggregationKind],
    cfg: &FilterConfig,
) -> f64 {
    let unit_ok = row[7] != 3.0;
    let value_far = row[5] > cfg.value_diff_threshold;
    match target.kind {
        TableMentionKind::SingleCell => {
            if !unit_ok {
                f64::INFINITY
            } else if value_far {
                cfg.score_floor.max(cfg.score_threshold)
            } else {
                cfg.score_floor
            }
        }
        TableMentionKind::Aggregate(k) => {
            if !tags.contains(&k) || !unit_ok {
                f64::INFINITY
            } else if value_far {
                cfg.score_threshold
            } else {
                f64::NEG_INFINITY
            }
        }
    }
}

/// Whether filtering could keep the pair at *any* score — and, equally,
/// whether the pair participates in [`crate::filtering::mention_type`]'s
/// majority vote: unit-compatible (`row[7] != 3.0`, the `StrongMismatch`
/// encode), and for aggregates a matching tagger prediction. This is the
/// exact set [`crate::retrieval::CandidateIndex::retrieve`] returns
/// (asserted per row in debug builds), so every row the engine scores is
/// viable and every computed score feeds the mention-type vote bound.
fn is_viable(row: &[f64], target: &TableMention, tags: &[AggregationKind]) -> bool {
    row[7] != 3.0
        && match target.kind {
            TableMentionKind::SingleCell => true,
            TableMentionKind::Aggregate(k) => tags.contains(&k),
        }
}

/// The fifth-highest value of `scores`, or `-∞` when there are fewer than
/// five — the strict threshold below which a pair can never enter the
/// top-5 majority vote of [`crate::filtering::mention_type`].
fn fifth_highest(scores: impl Iterator<Item = f64>) -> f64 {
    let mut top = [f64::NEG_INFINITY; 5];
    let mut n = 0usize;
    for s in scores {
        n += 1;
        let mut lo = 0;
        for (i, v) in top.iter().enumerate().skip(1) {
            if v.total_cmp(&top[lo]).is_lt() {
                lo = i;
            }
        }
        if s.total_cmp(&top[lo]).is_gt() {
            top[lo] = s;
        }
    }
    if n < 5 {
        return f64::NEG_INFINITY;
    }
    let mut min = top[0];
    for &v in &top[1..] {
        if v.total_cmp(&min).is_lt() {
            min = v;
        }
    }
    min
}

/// Per-document batched scorer. Construct once per document, then for
/// each mention: [`ScoringEngine::fill_rows_selected`] with the
/// retrieved candidates, then one of the scoring entry points, then read
/// [`ScoringEngine::computed`] / [`ScoringEngine::pruned_targets`] and
/// hand both to [`crate::filtering::filter_mention_pruned`].
///
/// Every retrieved row is scored exactly once — by phase A, phase B or
/// the heuristic — or pruned; no score is cached across rows, mentions
/// or documents. The buffers live for the whole document, so later
/// mentions reuse the capacity earlier ones grew, and are dropped with
/// it.
#[derive(Default)]
pub struct ScoringEngine {
    /// The current mention's row matrix (`sel.len() × FEATURE_COUNT`):
    /// the near rows, then the far rows.
    rows: Vec<f64>,
    /// Per-row pruning cuts for the bounded kernel (far rows only).
    cuts: Vec<f64>,
    /// Block-scoring output buffer, one slot per row.
    out: Vec<f64>,
    /// Per-row pruned flags from the bounded kernel (far rows only).
    pruned_flags: Vec<bool>,
    /// Exactly scored `(target index, score)` pairs of the current
    /// mention, in no particular order (filtering sorts under a total
    /// order, so ordering cannot leak into results).
    computed: Vec<(usize, f64)>,
    /// Target indices whose scoring was provably cut short.
    pruned: Vec<usize>,
    /// Selected-target map: row `k` of the filled matrix is pair
    /// `(mention, sel[k])`.
    sel: Vec<usize>,
    /// How many leading entries of `sel` retrieval classified as near.
    n_near: usize,
    pairs_pruned: u64,
    rows_scored_exhaustive: u64,
    rows_scored_bounded: u64,
}

impl ScoringEngine {
    /// An empty engine; buffers grow to the document's shape on first use.
    pub fn new() -> ScoringEngine {
        ScoringEngine::default()
    }

    /// Fill the row matrix with only the retrieved targets for mention
    /// `mi`: `near` then `far`, as returned by
    /// [`crate::retrieval::CandidateIndex::retrieve`]. Pair with the
    /// `*_selected` scoring entry points.
    pub fn fill_rows_selected(
        &mut self,
        fz: &mut PairFeaturizer,
        mi: usize,
        near: &[usize],
        far: &[usize],
    ) {
        self.sel.clear();
        self.sel.extend_from_slice(near);
        self.sel.extend_from_slice(far);
        self.n_near = near.len();
        fz.fill_rows_for(mi, &self.sel, &mut self.rows);
    }

    /// Exactly scored `(target index, score)` pairs of the last-scored
    /// mention.
    pub fn computed(&self) -> &[(usize, f64)] {
        &self.computed
    }

    /// Target indices of the last-scored mention whose scoring was
    /// abandoned by an exact bound.
    pub fn pruned_targets(&self) -> &[usize] {
        &self.pruned
    }

    /// Rows whose forest traversal was cut short so far (whole document).
    pub fn pairs_pruned(&self) -> u64 {
        self.pairs_pruned
    }

    /// Emit the engine's whole-document counters into an observability
    /// recorder (a no-op on a disabled recorder): pruned traversals, and
    /// how many rows each scoring phase fully evaluated (exhaustive
    /// phase A or the heuristic vs. the bounded phase-B kernel).
    pub fn record_into(&self, rec: &crate::obs::Recorder) {
        use crate::obs::names;
        rec.count(names::PAIRS_PRUNED, self.pairs_pruned);
        rec.count(names::ROWS_SCORED_EXHAUSTIVE, self.rows_scored_exhaustive);
        rec.count(names::ROWS_SCORED_BOUNDED, self.rows_scored_bounded);
    }

    /// Score the untrained heuristic prior over the retrieved candidate
    /// rows filled by [`ScoringEngine::fill_rows_selected`] (row position
    /// `i` belongs to target `sel[i]`), every row exactly — the
    /// heuristic costs about as much as evaluating the bound, so pruning
    /// cannot pay for itself there.
    pub fn score_heuristic_selected(&mut self, mask: &FeatureMask) {
        self.computed.clear();
        self.pruned.clear();
        for (&ti, row) in self.sel.iter().zip(self.rows.chunks_exact(FEATURE_COUNT)) {
            self.computed.push((ti, heuristic_prior_masked(row, mask)));
        }
        self.rows_scored_exhaustive += self.sel.len() as u64;
    }

    /// Score the retrieved candidate rows (filled by
    /// [`ScoringEngine::fill_rows_selected`]) through the trained forest
    /// in two phases.
    ///
    /// Phase A scores the near rows — whose keep cut is at or below the
    /// score floor, so they must be computed — exactly, through
    /// [`briq_ml::FlatForest::score_block`]. Every retrieved row is viable
    /// by the retrieval recall contract (unit-compatible single cells and
    /// tagged, unit-compatible aggregates — exactly the pairs the
    /// mention-type vote polls), so the fifth-highest phase-A score bounds
    /// the vote: a pair scoring strictly below it can never enter the
    /// top-5 (at least five computed pairs outrank it under the vote's
    /// total order). Phase B may therefore abandon a far row once the
    /// forest's remaining-vote bound falls below `min(static keep cut,
    /// fifth-highest)` — or below the static cut alone when the mention's
    /// approximation modifier decides the vote without looking at scores.
    /// Far rows' static cuts follow from their kind alone — asserted
    /// against `static_cut` over the actual feature row in debug builds.
    pub fn score_trained_selected(
        &mut self,
        x: &TextMention,
        targets: &[TableMention],
        tags: &[AggregationKind],
        clf: &PairClassifier,
        cfg: &FilterConfig,
    ) {
        let flat = clf.flat();
        let n_near = self.n_near;
        self.computed.clear();
        self.pruned.clear();
        self.out.clear();
        self.out.resize(self.sel.len(), 0.0);
        let (near_rows, far_rows) = self.rows.split_at(n_near * FEATURE_COUNT);
        let (near_out, far_out) = self.out.split_at_mut(n_near);
        let (near_tis, far_tis) = self.sel.split_at(n_near);

        let checked = self.sel.iter().zip(self.rows.chunks_exact(FEATURE_COUNT));
        for (pos, (&ti, row)) in checked.enumerate() {
            debug_assert!(is_viable(row, &targets[ti], tags));
            debug_assert!(
                (pos < n_near) == (static_cut(row, &targets[ti], tags, cfg) <= cfg.score_floor)
                    || cfg.score_threshold <= cfg.score_floor,
                "retrieval near/far split must match the static cut"
            );
        }

        flat.score_block(near_rows, FEATURE_COUNT, near_out);
        self.rows_scored_exhaustive += n_near as u64;
        self.computed
            .extend(near_tis.iter().copied().zip(near_out.iter().copied()));

        if far_tis.is_empty() {
            return;
        }

        // The mention-type vote inspects candidate scores only for
        // unmodified mentions; otherwise the modifier decides and the
        // static cut alone is exact.
        let fifth = if x.quantity.approx == ApproxIndicator::None {
            fifth_highest(self.computed.iter().map(|&(_, s)| s))
        } else {
            f64::INFINITY
        };

        self.cuts.clear();
        for (&ti, row) in far_tis.iter().zip(far_rows.chunks_exact(FEATURE_COUNT)) {
            // A far single cell survives only at/above the score
            // threshold (and never below the floor); a far tagged
            // aggregate only at/above the threshold.
            let cut = match targets[ti].kind {
                TableMentionKind::SingleCell => cfg.score_floor.max(cfg.score_threshold),
                TableMentionKind::Aggregate(_) => cfg.score_threshold,
            };
            debug_assert_eq!(
                cut,
                static_cut(row, &targets[ti], tags, cfg),
                "kind-derived far cut must match the row's static cut"
            );
            self.cuts.push(cut.min(fifth));
        }
        self.pruned_flags.clear();
        self.pruned_flags.resize(far_tis.len(), false);
        flat.score_block_bounded(
            far_rows,
            FEATURE_COUNT,
            &self.cuts,
            far_out,
            &mut self.pruned_flags,
        );
        for ((&ti, &s), &pruned) in far_tis.iter().zip(far_out.iter()).zip(&self.pruned_flags) {
            if pruned {
                self.pairs_pruned += 1;
                self.pruned.push(ti);
            } else {
                self.rows_scored_bounded += 1;
                self.computed.push((ti, s));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifth_highest_thresholds() {
        assert_eq!(fifth_highest([].into_iter()), f64::NEG_INFINITY);
        assert_eq!(
            fifth_highest([0.9, 0.8, 0.7, 0.6].into_iter()),
            f64::NEG_INFINITY,
            "fewer than five scores must not enable vote pruning"
        );
        assert_eq!(fifth_highest([0.9, 0.8, 0.7, 0.6, 0.5].into_iter()), 0.5);
        assert_eq!(
            fifth_highest([0.1, 0.9, 0.8, 0.2, 0.7, 0.6, 0.5].into_iter()),
            0.5
        );
        // Duplicates: the fifth-highest of the multiset.
        assert_eq!(
            fifth_highest([0.9, 0.9, 0.9, 0.9, 0.9, 0.1].into_iter()),
            0.9
        );
    }
}
