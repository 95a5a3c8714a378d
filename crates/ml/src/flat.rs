//! Flattened structure-of-arrays forest layout for allocation-free scoring.
//!
//! [`crate::tree::DecisionTree`] stores an enum-per-node `Vec`, which is
//! the right shape for growing but costs a discriminant branch and a
//! scattered load per hop when scoring. [`FlatForest`] re-lays every tree
//! of a [`RandomForest`] into four parallel arrays — feature index
//! (`u16`, with [`LEAF`] as the sentinel), threshold (doubling as the
//! leaf probability on leaf nodes), and left/right child offsets
//! (`u32`) — so a traversal is a tight loop over index arithmetic with
//! no enum matching and no per-call allocation.
//!
//! The flattening can also *bake in* a feature mask: a split on a dropped
//! feature is resolved at build time by splicing in whichever child the
//! zeroed feature value would select (`0.0 <= threshold` goes left). This
//! is bit-identical to zeroing the masked columns of the input row before
//! a recursive traversal, for any forest, which is exactly what
//! `FeatureMask::apply` used to do per call on an owned copy.
//!
//! Three scoring entry points share the layout:
//!
//! * [`FlatForest::predict_proba_slice`] — one row, trees in index
//!   order;
//! * [`FlatForest::score_block`] — a whole row block with the **tree
//!   loop outermost**, so each tree's arrays stay hot across the block;
//!   summation order per row matches `predict_proba_slice` exactly, so
//!   block scores are bit-identical to row-at-a-time scores;
//! * [`FlatForest::score_block_bounded`] — `score_block` plus exact
//!   early abandonment: per-subtree `max_leaf` bounds and per-tree
//!   `suffix_possible` vote bounds let a row stop as soon as its final
//!   score *provably* falls below a caller-supplied cut. Rows at or
//!   above the cut come out bit-identical; rows below it are reported
//!   as pruned, never mis-scored.
//!
//! `briq_core`'s scoring engine drives the block kernels on the
//! alignment hot path and reports their effect through the
//! observability counters `rows_deduped` / `pairs_pruned` /
//! `rows_scored_exhaustive` / `rows_scored_bounded` (DESIGN.md §11).

use crate::forest::RandomForest;
use crate::tree::{DecisionTree, Node};

/// Sentinel feature index marking a leaf node.
pub const LEAF: u16 = u16::MAX;

/// A [`RandomForest`] flattened into parallel arrays for scoring.
///
/// Invariants: `feature`, `threshold`, `left`, and `right` all have the
/// same length; every entry of `roots` and every child offset of a
/// non-leaf node is a valid index into them; leaf nodes carry their
/// probability in `threshold`.
#[derive(Debug, Clone, Default)]
pub struct FlatForest {
    feature: Vec<u16>,
    threshold: Vec<f64>,
    left: Vec<u32>,
    right: Vec<u32>,
    roots: Vec<u32>,
    /// Per node: the maximum leaf probability reachable in its subtree,
    /// computed at flatten time. A subtree with `max_leaf < 0.5` can never
    /// produce a "related" vote, so traversal may stop at its root.
    max_leaf: Vec<f64>,
    /// `suffix_possible[t]` = number of trees in `t..n_trees` whose root
    /// `max_leaf >= 0.5`, i.e. an upper bound on the votes the remaining
    /// trees can still contribute. Length `n_trees + 1` (last entry 0).
    suffix_possible: Vec<u32>,
}

impl FlatForest {
    /// Flatten `forest` keeping every feature.
    pub fn from_forest(forest: &RandomForest) -> FlatForest {
        Self::from_forest_masked(forest, |_| true)
    }

    /// Flatten `forest`, baking the feature mask `keep` into the layout:
    /// splits on features with `keep(feature) == false` are replaced by
    /// the subtree a zeroed feature value would reach.
    pub fn from_forest_masked(forest: &RandomForest, keep: impl Fn(usize) -> bool) -> FlatForest {
        let mut flat = FlatForest::default();
        for tree in forest.trees() {
            flat.push_tree(tree, &keep);
        }
        flat
    }

    /// Flatten a single tree (one root), keeping every feature.
    pub fn from_tree(tree: &DecisionTree) -> FlatForest {
        let mut flat = FlatForest::default();
        flat.push_tree(tree, &|_| true);
        flat
    }

    fn push_tree(&mut self, tree: &DecisionTree, keep: &impl Fn(usize) -> bool) {
        let nodes = tree.nodes();
        debug_assert!(!nodes.is_empty(), "a grown tree always has a root");
        let root = self.emit(nodes, 0, keep);
        self.roots.push(root);
        self.rebuild_suffix_bounds();
    }

    /// Recompute `suffix_possible` from the per-root `max_leaf` bounds.
    fn rebuild_suffix_bounds(&mut self) {
        self.suffix_possible.clear();
        self.suffix_possible.resize(self.roots.len() + 1, 0);
        for t in (0..self.roots.len()).rev() {
            let possible = (self.max_leaf[self.roots[t] as usize] >= 0.5) as u32;
            self.suffix_possible[t] = self.suffix_possible[t + 1] + possible;
        }
    }

    /// Emit the subtree rooted at `id` into the flat arrays; returns its
    /// flat offset. Recursion depth is bounded by the tree-growing
    /// `max_depth`, which is small by construction.
    fn emit(&mut self, nodes: &[Node], id: usize, keep: &impl Fn(usize) -> bool) -> u32 {
        match &nodes[id] {
            Node::Leaf { prob } => {
                let at = self.push_node(LEAF, *prob);
                self.left[at as usize] = at;
                self.right[at as usize] = at;
                at
            }
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                if !keep(*feature) {
                    // A masked feature reads as 0.0; resolve the branch now.
                    let next = if 0.0 <= *threshold { *left } else { *right };
                    return self.emit(nodes, next, keep);
                }
                assert!(
                    *feature < LEAF as usize,
                    "feature index {feature} exceeds the u16 layout"
                );
                let at = self.push_node(*feature as u16, *threshold);
                let l = self.emit(nodes, *left, keep);
                let r = self.emit(nodes, *right, keep);
                self.left[at as usize] = l;
                self.right[at as usize] = r;
                self.max_leaf[at as usize] =
                    self.max_leaf[l as usize].max(self.max_leaf[r as usize]);
                at
            }
        }
    }

    fn push_node(&mut self, feature: u16, threshold: f64) -> u32 {
        let at = self.feature.len();
        assert!(at < u32::MAX as usize, "forest exceeds the u32 layout");
        self.feature.push(feature);
        self.threshold.push(threshold);
        self.left.push(0);
        self.right.push(0);
        // Leaves carry their probability; splits are patched after both
        // children have been emitted.
        self.max_leaf
            .push(if feature == LEAF { threshold } else { 0.0 });
        at as u32
    }

    /// Leaf probability tree `tree` assigns to `x`. No allocation.
    pub fn tree_leaf(&self, tree: usize, x: &[f64]) -> f64 {
        let mut at = self.roots[tree] as usize;
        loop {
            let f = self.feature[at];
            if f == LEAF {
                return self.threshold[at];
            }
            at = if x[f as usize] <= self.threshold[at] {
                self.left[at] as usize
            } else {
                self.right[at] as usize
            };
        }
    }

    /// Fraction of trees voting "related" — identical arithmetic to
    /// [`RandomForest::predict_proba`], with no copy and no allocation.
    /// An empty forest returns the uninformative 0.5.
    pub fn predict_proba_slice(&self, x: &[f64]) -> f64 {
        if self.roots.is_empty() {
            return 0.5;
        }
        let mut votes = 0usize;
        for t in 0..self.roots.len() {
            if self.tree_leaf(t, x) >= 0.5 {
                votes += 1;
            }
        }
        votes as f64 / self.roots.len() as f64
    }

    /// Hard prediction at threshold 0.5 (majority vote).
    pub fn predict_slice(&self, x: &[f64]) -> bool {
        self.predict_proba_slice(x) >= 0.5
    }

    /// Whether `tree` (rooted at flat offset `at`) votes "related" for
    /// `x`. Equivalent to `tree_leaf(..) >= 0.5`, but abandons any
    /// subtree whose `max_leaf` bound already rules the vote out.
    #[inline]
    fn vote_from(&self, mut at: usize, x: &[f64]) -> bool {
        loop {
            if self.max_leaf[at] < 0.5 {
                return false;
            }
            let f = self.feature[at];
            if f == LEAF {
                return self.threshold[at] >= 0.5;
            }
            at = if x[f as usize] <= self.threshold[at] {
                self.left[at] as usize
            } else {
                self.right[at] as usize
            };
        }
    }

    /// Score a block of rows laid out row-major with the given `stride`
    /// (`rows.len() == out.len() * stride`). Trees form the outer loop so
    /// each tree's nodes stay hot across the whole block; per-row results
    /// are bit-identical to [`FlatForest::predict_proba_slice`] (votes
    /// accumulate as exact small integers in f64, divided once at the
    /// end). An empty forest scores every row 0.5.
    pub fn score_block(&self, rows: &[f64], stride: usize, out: &mut [f64]) {
        assert!(stride > 0, "stride must be positive");
        assert_eq!(rows.len(), out.len() * stride, "rows/out shape mismatch");
        if self.roots.is_empty() {
            out.fill(0.5);
            return;
        }
        out.fill(0.0);
        for &root in &self.roots {
            for (o, row) in out.iter_mut().zip(rows.chunks_exact(stride)) {
                if self.vote_from(root as usize, row) {
                    *o += 1.0;
                }
            }
        }
        let n_trees = self.roots.len() as f64;
        for o in out.iter_mut() {
            *o /= n_trees;
        }
    }

    /// Score a block of rows with per-row pruning cuts: row `i` is
    /// abandoned (`pruned[i] = true`, `out[i]` unspecified) as soon as
    /// `(votes_so_far + suffix_possible) / n_trees` falls strictly below
    /// `cuts[i]`, which proves the exact score would also be `< cuts[i]`.
    /// Rows that survive receive their exact score, bit-identical to
    /// [`FlatForest::predict_proba_slice`]. Returns the number of rows
    /// pruned. A cut of `f64::NEG_INFINITY` disables pruning for a row;
    /// `f64::INFINITY` prunes it before any tree is evaluated.
    pub fn score_block_bounded(
        &self,
        rows: &[f64],
        stride: usize,
        cuts: &[f64],
        out: &mut [f64],
        pruned: &mut [bool],
    ) -> usize {
        assert!(stride > 0, "stride must be positive");
        assert_eq!(rows.len(), out.len() * stride, "rows/out shape mismatch");
        assert_eq!(cuts.len(), out.len(), "cuts/out shape mismatch");
        assert_eq!(pruned.len(), out.len(), "pruned/out shape mismatch");
        if self.roots.is_empty() {
            out.fill(0.5);
            pruned.fill(false);
            return 0;
        }
        let n_trees = self.roots.len() as f64;
        let mut n_pruned = 0usize;
        let rows_iter = rows.chunks_exact(stride).zip(cuts.iter());
        for ((row, &cut), (o, p)) in rows_iter.zip(out.iter_mut().zip(pruned.iter_mut())) {
            let mut votes = 0u32;
            let mut cut_hit = false;
            for (&root, &possible) in self.roots.iter().zip(self.suffix_possible.iter()) {
                // Upper bound on the final score before evaluating this
                // tree: every not-yet-scored tree that *can* vote does.
                if ((votes + possible) as f64) / n_trees < cut {
                    cut_hit = true;
                    break;
                }
                if self.vote_from(root as usize, row) {
                    votes += 1;
                }
            }
            *p = cut_hit;
            if cut_hit {
                n_pruned += 1;
            } else {
                *o = votes as f64 / n_trees;
            }
        }
        n_pruned
    }

    /// Score a block of rows with [`LANE_WIDTH`] rows per tree traversed
    /// in lockstep: a small SoA frontier of node indices steps every
    /// live lane once per round, with a branchless array select for the
    /// child hop, so the per-hop branch misprediction of one row's
    /// traversal overlaps the loads of its lane mates.
    ///
    /// **Bit-identical** to [`FlatForest::score_block`] on any forest and
    /// block: per (tree, row) the vote is the same exact boolean
    /// (the per-tree `max_leaf` early abandon of the row-at-a-time walk
    /// included — a lane parks as soon as its subtree bound rules the
    /// vote out), and per row the votes accumulate as the same exact
    /// `+1.0` sequence in tree order, divided once at the end.
    /// `crates/ml/tests/flat_equivalence.rs` proves it by proptest.
    pub fn score_lanes(&self, rows: &[f64], stride: usize, out: &mut [f64]) {
        assert!(stride > 0, "stride must be positive");
        assert_eq!(rows.len(), out.len() * stride, "rows/out shape mismatch");
        if self.roots.is_empty() {
            out.fill(0.5);
            return;
        }
        out.fill(0.0);
        for &root in &self.roots {
            let root = root as usize;
            let lanes_rows = rows.chunks(stride * LANE_WIDTH);
            for (outs, lane_rows) in out.chunks_mut(LANE_WIDTH).zip(lanes_rows) {
                let k = outs.len();
                let mut at = [root; LANE_WIDTH];
                let mut dead = [false; LANE_WIDTH];
                loop {
                    let mut moved = false;
                    for l in 0..k {
                        if dead[l] {
                            continue;
                        }
                        let a = at[l];
                        // Same early abandon as `vote_from`: a subtree
                        // that can never reach a >= 0.5 leaf votes false.
                        if self.max_leaf[a] < 0.5 {
                            dead[l] = true;
                            continue;
                        }
                        let f = self.feature[a];
                        if f == LEAF {
                            continue;
                        }
                        moved = true;
                        let row = &lane_rows[l * stride..(l + 1) * stride];
                        // Branchless child select; `<=` goes left, so a
                        // NaN feature goes right — exactly `vote_from`.
                        let go_left = (row[f as usize] <= self.threshold[a]) as usize;
                        at[l] = [self.right[a], self.left[a]][go_left] as usize;
                    }
                    if !moved {
                        break;
                    }
                }
                for l in 0..k {
                    if !dead[l] && self.threshold[at[l]] >= 0.5 {
                        outs[l] += 1.0;
                    }
                }
            }
        }
        let n_trees = self.roots.len() as f64;
        for o in out.iter_mut() {
            *o /= n_trees;
        }
    }

    /// Number of flattened trees.
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// Total node count across all trees (diagnostics).
    pub fn n_nodes(&self) -> usize {
        self.feature.len()
    }
}

/// Rows traversed in lockstep per lane group by
/// [`FlatForest::score_lanes`].
pub const LANE_WIDTH: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::forest::RandomForestConfig;
    use crate::tree::TreeConfig;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn noisy(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new();
        for _ in 0..n {
            let x: f64 = rng.random_range(0.0..1.0);
            let y: f64 = rng.random_range(0.0..1.0);
            let z: f64 = rng.random_range(0.0..1.0);
            d.push(vec![x, y, z], x + 0.3 * y > 0.6);
        }
        d
    }

    #[test]
    fn flat_matches_recursive_on_random_probes() {
        let data = noisy(300, 11);
        let rf = RandomForest::fit(
            &data,
            RandomForestConfig {
                n_trees: 24,
                ..Default::default()
            },
        );
        let flat = FlatForest::from_forest(&rf);
        assert_eq!(flat.n_trees(), rf.n_trees());
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..500 {
            let x = [
                rng.random_range(-0.2..1.2),
                rng.random_range(-0.2..1.2),
                rng.random_range(-0.2..1.2),
            ];
            assert_eq!(flat.predict_proba_slice(&x), rf.predict_proba(&x));
            assert_eq!(flat.predict_slice(&x), rf.predict(&x));
        }
    }

    #[test]
    fn mask_baking_equals_zeroing_features() {
        let data = noisy(300, 13);
        let rf = RandomForest::fit(
            &data,
            RandomForestConfig {
                n_trees: 24,
                ..Default::default()
            },
        );
        // Drop feature 1: baked traversal must equal a recursive traversal
        // over the row with that column zeroed.
        let flat = FlatForest::from_forest_masked(&rf, |f| f != 1);
        let mut rng = StdRng::seed_from_u64(14);
        for _ in 0..500 {
            let x = [
                rng.random_range(-0.2..1.2),
                rng.random_range(-0.2..1.2),
                rng.random_range(-0.2..1.2),
            ];
            let zeroed = [x[0], 0.0, x[2]];
            assert_eq!(flat.predict_proba_slice(&x), rf.predict_proba(&zeroed));
        }
    }

    #[test]
    fn single_tree_leaf_matches_recursive() {
        let data = noisy(200, 15);
        let mut rng = StdRng::seed_from_u64(16);
        let tree = DecisionTree::fit(&data, TreeConfig::default(), &mut rng);
        let flat = FlatForest::from_tree(&tree);
        for _ in 0..200 {
            let x = [
                rng.random_range(-0.2..1.2),
                rng.random_range(-0.2..1.2),
                rng.random_range(-0.2..1.2),
            ];
            assert_eq!(flat.tree_leaf(0, &x), tree.predict_proba(&x));
        }
    }

    #[test]
    fn empty_forest_predicts_half() {
        let flat = FlatForest::default();
        assert_eq!(flat.predict_proba_slice(&[1.0]), 0.5);
    }

    fn random_block(n_rows: usize, stride: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n_rows * stride)
            .map(|_| rng.random_range(-0.2..1.2))
            .collect()
    }

    #[test]
    fn score_block_matches_per_row_scoring() {
        let data = noisy(300, 21);
        let rf = RandomForest::fit(
            &data,
            RandomForestConfig {
                n_trees: 24,
                ..Default::default()
            },
        );
        let flat = FlatForest::from_forest(&rf);
        for n_rows in [0usize, 1, 7, 64, 200] {
            let rows = random_block(n_rows, 3, 22 + n_rows as u64);
            let mut out = vec![f64::NAN; n_rows];
            flat.score_block(&rows, 3, &mut out);
            for (o, row) in out.iter().zip(rows.chunks_exact(3)) {
                assert_eq!(o.to_bits(), flat.predict_proba_slice(row).to_bits());
            }
        }
    }

    #[test]
    fn bounded_scoring_is_exact_or_provably_below_cut() {
        let data = noisy(300, 23);
        let rf = RandomForest::fit(
            &data,
            RandomForestConfig {
                n_trees: 17,
                ..Default::default()
            },
        );
        let flat = FlatForest::from_forest(&rf);
        let n_rows = 150;
        let rows = random_block(n_rows, 3, 24);
        let mut rng = StdRng::seed_from_u64(25);
        let cuts: Vec<f64> = (0..n_rows)
            .map(|i| match i % 4 {
                0 => f64::NEG_INFINITY,
                1 => f64::INFINITY,
                _ => rng.random_range(0.0..1.0),
            })
            .collect();
        let mut out = vec![f64::NAN; n_rows];
        let mut pruned = vec![false; n_rows];
        let n_pruned = flat.score_block_bounded(&rows, 3, &cuts, &mut out, &mut pruned);
        assert_eq!(n_pruned, pruned.iter().filter(|&&p| p).count());
        assert!(n_pruned > 0, "infinite cuts must prune");
        let mut saw_survivor_above_cut = false;
        for i in 0..n_rows {
            let exact = flat.predict_proba_slice(&rows[i * 3..(i + 1) * 3]);
            if pruned[i] {
                assert!(exact < cuts[i], "pruned row {i} had score {exact} >= cut");
            } else {
                assert_eq!(out[i].to_bits(), exact.to_bits(), "row {i}");
                if exact >= cuts[i] {
                    saw_survivor_above_cut = true;
                }
            }
            if cuts[i] == f64::NEG_INFINITY {
                assert!(!pruned[i], "NEG_INFINITY cut must never prune");
            }
            if cuts[i] == f64::INFINITY {
                assert!(pruned[i], "INFINITY cut must always prune");
            }
        }
        assert!(saw_survivor_above_cut);
    }

    #[test]
    fn score_lanes_bit_equals_score_block() {
        let data = noisy(300, 31);
        let rf = RandomForest::fit(
            &data,
            RandomForestConfig {
                n_trees: 24,
                ..Default::default()
            },
        );
        let flat = FlatForest::from_forest(&rf);
        // Row counts around the lane width: empty, partial lane, exact
        // multiples, and a ragged tail.
        for n_rows in [0usize, 1, 5, 8, 9, 16, 63, 200] {
            let rows = random_block(n_rows, 3, 32 + n_rows as u64);
            let mut block = vec![f64::NAN; n_rows];
            let mut lanes = vec![f64::NAN; n_rows];
            flat.score_block(&rows, 3, &mut block);
            flat.score_lanes(&rows, 3, &mut lanes);
            for i in 0..n_rows {
                assert_eq!(block[i].to_bits(), lanes[i].to_bits(), "row {i}");
            }
        }
    }

    #[test]
    fn score_lanes_handles_nan_features_like_block() {
        let data = noisy(200, 33);
        let rf = RandomForest::fit(&data, RandomForestConfig::default());
        let flat = FlatForest::from_forest(&rf);
        let mut rows = random_block(20, 3, 34);
        for i in (0..rows.len()).step_by(7) {
            rows[i] = f64::NAN;
        }
        let mut block = vec![0.0; 20];
        let mut lanes = vec![0.0; 20];
        flat.score_block(&rows, 3, &mut block);
        flat.score_lanes(&rows, 3, &mut lanes);
        for i in 0..20 {
            assert_eq!(block[i].to_bits(), lanes[i].to_bits(), "row {i}");
        }
    }

    #[test]
    fn empty_forest_lanes_predicts_half() {
        let flat = FlatForest::default();
        let mut out = [f64::NAN; 3];
        flat.score_lanes(&[0.0, 1.0, 2.0], 1, &mut out);
        assert_eq!(out, [0.5, 0.5, 0.5]);
    }

    #[test]
    fn empty_forest_block_paths() {
        let flat = FlatForest::default();
        let rows = [0.0, 1.0];
        let mut out = [f64::NAN; 2];
        flat.score_block(&rows, 1, &mut out);
        assert_eq!(out, [0.5, 0.5]);
        let mut pruned = [true; 2];
        let n = flat.score_block_bounded(&rows, 1, &[0.9, 0.1], &mut out, &mut pruned);
        assert_eq!(n, 0);
        assert_eq!(out, [0.5, 0.5]);
        assert_eq!(pruned, [false, false]);
    }
}
