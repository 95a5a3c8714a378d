//! Batched candidate-scoring engine: unique-row deduplication, block-wise
//! flat-forest traversal, and exact bound-based pruning (DESIGN.md §10).
//!
//! [`ScoringEngine`] scores the candidate rows the retrieval index
//! selects on the alignment hot path. Per document it keeps a score cache
//! keyed on the raw f64 bits of each 12-feature row (scores are pure
//! functions of the row, so a cache hit is bit-identical by construction)
//! and scores the remaining distinct rows through
//! [`briq_ml::FlatForest::score_block`] (trees in the outer loop, rows in
//! the inner loop) and [`briq_ml::FlatForest::score_block_bounded`].
//!
//! Pruning is *exact*, never approximate: a row's scoring is abandoned
//! only when the forest's remaining-vote upper bound proves its score is
//! strictly below the smallest value at which downstream filtering
//! ([`crate::filtering::filter_mention_pruned`]) could keep the pair or
//! let it influence the mention-type vote. Alignments, candidates, and
//! filter statistics are therefore byte-identical to the exhaustive
//! reference path (`use_index: false`), which never enters the engine.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use briq_table::{TableMention, TableMentionKind};
use briq_text::cues::{AggregationKind, ApproxIndicator};

use crate::classifier::PairClassifier;
use crate::features::{FeatureMask, PairFeaturizer, FEATURE_COUNT};
use crate::filtering::FilterConfig;
use crate::mention::TextMention;
use crate::pipeline::heuristic_prior_masked;

/// FxHash-style mixer for row-bit keys: the standard SipHash is pure
/// overhead for short fixed-width keys that are already high-entropy f64
/// bit patterns.
#[derive(Default)]
pub struct RowHasher(u64);

impl Hasher for RowHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// A feature row keyed by its exact bit pattern. Distinct bit patterns of
/// equal values (`-0.0` vs `0.0`) hash apart, which only costs a cache
/// miss — never correctness.
type RowKey = [u64; FEATURE_COUNT];

fn row_key(row: &[f64]) -> RowKey {
    let mut key = [0u64; FEATURE_COUNT];
    for (k, v) in key.iter_mut().zip(row) {
        *k = v.to_bits();
    }
    key
}

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
/// All buffers (including the dedup cache) live for the whole document,
/// so repeated mentions reuse capacity and identical rows across mentions
/// score once.
pub struct ScoringEngine {
    /// Bit-exact row → score cache; pruned rows are never inserted
    /// (their score was not computed).
    cache: HashMap<RowKey, f64, BuildHasherDefault<RowHasher>>,
    /// The current mention's row matrix (`targets × FEATURE_COUNT`).
    rows: Vec<f64>,
    /// Gathered distinct rows pending one block-scoring call.
    block: Vec<f64>,
    /// Target index of each gathered block row.
    block_tis: Vec<usize>,
    /// Per-row pruning cuts for the bounded kernel.
    cuts: Vec<f64>,
    /// Block-scoring output buffer.
    out: Vec<f64>,
    /// Per-row pruned flags from the bounded kernel.
    pruned_flags: Vec<bool>,
    /// Exactly scored `(target index, score)` pairs of the current
    /// mention, in no particular order (filtering sorts under a total
    /// order, so ordering cannot leak into results).
    computed: Vec<(usize, f64)>,
    /// Target indices whose scoring was provably cut short.
    pruned: Vec<usize>,
    /// Row positions deferred to the bounded phase.
    deferred: Vec<usize>,
    /// Selected-target map: row `k` of the filled matrix is pair
    /// `(mention, sel[k])`.
    sel: Vec<usize>,
    /// How many leading entries of `sel` retrieval classified as near.
    n_near: usize,
    rows_deduped: u64,
    pairs_pruned: u64,
    rows_scored_exhaustive: u64,
    rows_scored_bounded: u64,
}

impl Default for ScoringEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl ScoringEngine {
    /// An empty engine; buffers grow to the document's shape on first use.
    pub fn new() -> ScoringEngine {
        ScoringEngine {
            cache: HashMap::default(),
            rows: Vec::new(),
            block: Vec::new(),
            block_tis: Vec::new(),
            cuts: Vec::new(),
            out: Vec::new(),
            pruned_flags: Vec::new(),
            computed: Vec::new(),
            pruned: Vec::new(),
            deferred: Vec::new(),
            sel: Vec::new(),
            n_near: 0,
            rows_deduped: 0,
            pairs_pruned: 0,
            rows_scored_exhaustive: 0,
            rows_scored_bounded: 0,
        }
    }

    /// Reset the engine to a fresh-document state while keeping every
    /// buffer's capacity. Clears the score cache (per-document state) and
    /// zeroes the counters, so a pooled engine produces output and
    /// observability counters bit-identical to a cold-constructed one
    /// regardless of which documents this worker scored before.
    pub fn reset(&mut self) {
        self.cache.clear();
        self.rows.clear();
        self.block.clear();
        self.block_tis.clear();
        self.cuts.clear();
        self.out.clear();
        self.pruned_flags.clear();
        self.computed.clear();
        self.pruned.clear();
        self.deferred.clear();
        self.sel.clear();
        self.n_near = 0;
        self.rows_deduped = 0;
        self.pairs_pruned = 0;
        self.rows_scored_exhaustive = 0;
        self.rows_scored_bounded = 0;
    }

    /// Approximate heap bytes retained by the engine's buffers (capacity,
    /// not length) — the arena's footprint accounting.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        // A hashbrown bucket holds the (key, value) pair plus one control
        // byte; close enough for a monitoring figure.
        self.cache.capacity() * (size_of::<RowKey>() + size_of::<f64>() + 1)
            + (self.rows.capacity()
                + self.block.capacity()
                + self.cuts.capacity()
                + self.out.capacity())
                * size_of::<f64>()
            + (self.block_tis.capacity()
                + self.pruned.capacity()
                + self.deferred.capacity()
                + self.sel.capacity())
                * size_of::<usize>()
            + self.computed.capacity() * size_of::<(usize, f64)>()
            + self.pruned_flags.capacity()
    }

    /// Grow some buffer capacity so pooling tests can observe it
    /// surviving a take/put round trip.
    #[cfg(test)]
    pub(crate) fn fill_capacity_probe(&mut self) {
        self.rows.reserve(256);
        self.computed.reserve(32);
    }

    /// Phase A: exact scoring of the gathered block
    /// ([`briq_ml::FlatForest::score_block`]).
    fn score_block_phase_a(&mut self, flat: &briq_ml::FlatForest) {
        let n = self.block_tis.len();
        self.out.clear();
        self.out.resize(n, 0.0);
        flat.score_block(&self.block, FEATURE_COUNT, &mut self.out);
        self.rows_scored_exhaustive += n as u64;
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

    /// Rows answered from the dedup cache so far (whole document).
    pub fn rows_deduped(&self) -> u64 {
        self.rows_deduped
    }

    /// Rows whose forest traversal was cut short so far (whole document).
    pub fn pairs_pruned(&self) -> u64 {
        self.pairs_pruned
    }

    /// Emit the engine's whole-document counters into an observability
    /// recorder (a no-op on a disabled recorder): dedup hits, pruned
    /// traversals, and how many rows each scoring phase fully evaluated
    /// (exhaustive phase A vs. the bounded phase-B kernel).
    pub fn record_into(&self, rec: &crate::obs::Recorder) {
        use crate::obs::names;
        rec.count(names::ROWS_DEDUPED, self.rows_deduped);
        rec.count(names::PAIRS_PRUNED, self.pairs_pruned);
        rec.count(names::ROWS_SCORED_EXHAUSTIVE, self.rows_scored_exhaustive);
        rec.count(names::ROWS_SCORED_BOUNDED, self.rows_scored_bounded);
    }

    /// Score the untrained heuristic prior over the retrieved candidate
    /// rows filled by [`ScoringEngine::fill_rows_selected`] (row position
    /// `i` belongs to target `sel[i]`), with dedup only — the heuristic
    /// costs about as much as evaluating the bound, so pruning cannot pay
    /// for itself there.
    pub fn score_heuristic_selected(&mut self, mask: &FeatureMask) {
        self.computed.clear();
        self.pruned.clear();
        for (pos, row) in self.rows.chunks_exact(FEATURE_COUNT).enumerate() {
            let ti = self.sel[pos];
            let key = row_key(row);
            let s = match self.cache.get(&key) {
                Some(&s) => {
                    self.rows_deduped += 1;
                    s
                }
                None => {
                    let s = heuristic_prior_masked(row, mask);
                    self.cache.insert(key, s);
                    self.rows_scored_exhaustive += 1;
                    s
                }
            };
            self.computed.push((ti, s));
        }
    }

    /// Score the retrieved candidate rows (filled by
    /// [`ScoringEngine::fill_rows_selected`]) through the trained forest
    /// in two phases.
    ///
    /// Phase A scores the near rows — whose keep cut is at or below the
    /// score floor, so they must be computed — exactly, through the dedup
    /// cache and [`briq_ml::FlatForest::score_block`]. Every retrieved row is viable
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
        self.computed.clear();
        self.pruned.clear();
        self.deferred.clear();
        self.block.clear();
        self.block_tis.clear();

        for (pos, row) in self.rows.chunks_exact(FEATURE_COUNT).enumerate() {
            let ti = self.sel[pos];
            debug_assert!(is_viable(row, &targets[ti], tags));
            if let Some(&s) = self.cache.get(&row_key(row)) {
                self.rows_deduped += 1;
                self.computed.push((ti, s));
                continue;
            }
            let near = pos < self.n_near;
            debug_assert!(
                near == (static_cut(row, &targets[ti], tags, cfg) <= cfg.score_floor)
                    || cfg.score_threshold <= cfg.score_floor,
                "retrieval near/far split must match the static cut"
            );
            if near {
                self.block.extend_from_slice(row);
                self.block_tis.push(ti);
            } else {
                self.deferred.push(pos);
            }
        }

        self.score_block_phase_a(flat);
        for (i, &ti) in self.block_tis.iter().enumerate() {
            let s = self.out[i];
            self.cache.insert(
                row_key(&self.block[i * FEATURE_COUNT..(i + 1) * FEATURE_COUNT]),
                s,
            );
            self.computed.push((ti, s));
        }

        if self.deferred.is_empty() {
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

        self.block.clear();
        self.block_tis.clear();
        self.cuts.clear();
        for i in 0..self.deferred.len() {
            let pos = self.deferred[i];
            let ti = self.sel[pos];
            let row = &self.rows[pos * FEATURE_COUNT..(pos + 1) * FEATURE_COUNT];
            // Rows that gained a cache entry during phase A resolve as
            // dedup hits.
            if let Some(&s) = self.cache.get(&row_key(row)) {
                self.rows_deduped += 1;
                self.computed.push((ti, s));
                continue;
            }
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
            self.block.extend_from_slice(row);
            self.block_tis.push(ti);
            self.cuts.push(cut.min(fifth));
        }
        self.score_deferred_block(flat);
    }

    /// Phase-B tail: run the bounded kernel over the gathered block and
    /// fold survivors into `computed` and pruned rows into `pruned`.
    fn score_deferred_block(&mut self, flat: &briq_ml::FlatForest) {
        let n = self.block_tis.len();
        self.out.clear();
        self.out.resize(n, 0.0);
        self.pruned_flags.clear();
        self.pruned_flags.resize(n, false);
        flat.score_block_bounded(
            &self.block,
            FEATURE_COUNT,
            &self.cuts,
            &mut self.out,
            &mut self.pruned_flags,
        );
        for (i, &ti) in self.block_tis.iter().enumerate() {
            if self.pruned_flags[i] {
                self.pairs_pruned += 1;
                self.pruned.push(ti);
            } else {
                self.rows_scored_bounded += 1;
                let s = self.out[i];
                let row = &self.block[i * FEATURE_COUNT..(i + 1) * FEATURE_COUNT];
                self.cache.insert(row_key(row), s);
                self.computed.push((ti, s));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

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

    #[test]
    fn row_keys_are_bit_exact() {
        let a = [0.0f64; FEATURE_COUNT];
        let mut b = [0.0f64; FEATURE_COUNT];
        b[3] = -0.0;
        assert_ne!(row_key(&a), row_key(&b), "-0.0 and 0.0 must key apart");
        assert_eq!(row_key(&a), row_key(a.as_ref()));
    }

    #[test]
    fn row_hasher_spreads_keys() {
        let build = BuildHasherDefault::<RowHasher>::default();
        let mut row = [0.5f64; FEATURE_COUNT];
        let h1 = build.hash_one(row_key(&row));
        row[0] = 0.5000001;
        let h2 = build.hash_one(row_key(&row));
        assert_ne!(h1, h2);
    }
}
