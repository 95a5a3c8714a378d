//! Flattened preorder forest layout for allocation-free scoring.
//!
//! [`crate::tree::DecisionTree`] stores an enum-per-node `Vec`, which is
//! the right shape for growing but costs a discriminant branch and a
//! scattered load per hop when scoring. [`FlatForest`] re-lays every tree
//! of a [`RandomForest`] into one array of 16-byte nodes (threshold,
//! right-child offset, feature index, kind) in preorder: a split's left
//! child is the next node, so a traversal is a tight loop over one array
//! with no enum matching on the source tree and no per-call allocation.
//!
//! A forest only ever asks a tree for its vote (leaf probability
//! `>= 0.5`), so leaves keep the vote, not the probability, and any
//! subtree whose reachable leaves all vote the same way is emitted as a
//! single leaf. A walk therefore stops at the first node whose vote is
//! decided, and a tree that can never vote "related" is one no-leaf.
//!
//! The flattening can also *bake in* what the caller already knows about
//! a feature of every row it will score ([`Known`]: `x == c`, `x <= v`
//! or `x > v`): a split the knowledge decides is resolved at build time
//! by splicing in the child every such row would reach. A feature mask
//! is the special case `x == 0.0` on each dropped feature, bit-identical
//! to zeroing those columns before a recursive traversal, which is what
//! `FeatureMask::apply` used to do per call on an owned copy. A layout
//! built under constraints votes exactly as the unconstrained one, tree
//! by tree, on every row that satisfies them, and walks fewer splits.
//!
//! Scoring entry points:
//!
//! * [`FlatForest::predict_proba_slice`] — one row, trees in index
//!   order;
//! * [`FlatForest::score_block`] — a whole row block with the **tree
//!   loop outermost**, so each tree's nodes stay hot across the block;
//!   summation order per row matches `predict_proba_slice` exactly, so
//!   block scores are bit-identical to row-at-a-time scores;
//! * [`FlatForest::score_bounded`] — one row, plus exact early
//!   abandonment: per-tree `suffix_possible` vote bounds let a row stop
//!   as soon as its final score *provably* falls below a caller-supplied
//!   cut. The bound may come from the layout a constrained one was built
//!   beside, so a row prunes at exactly the tree it would there. Rows at
//!   or above the cut come out bit-identical; rows below it are reported
//!   as pruned, never mis-scored.
//!
//! `briq_core`'s scoring engine drives `predict_proba_slice` and
//! `score_bounded` through per-row-class layouts on the alignment hot
//! path and reports their effect through the observability counters
//! `pairs_pruned` / `rows_scored_exhaustive` / `rows_scored_bounded`
//! (DESIGN.md §10, §11).

use crate::forest::RandomForest;
use crate::tree::{DecisionTree, Node};

/// What a flat node is: a split, or a leaf voting "related" or not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Split,
    Yes,
    No,
}

/// One node of the preorder layout. A split's left child is the next
/// node; leaves ignore every field but `kind`.
#[derive(Debug, Clone, Copy)]
struct FlatNode {
    /// `x[feature] <= threshold` goes left (so a NaN feature goes right).
    threshold: f64,
    /// Offset of the right child.
    right: u32,
    feature: u16,
    kind: Kind,
}

const _: () = assert!(std::mem::size_of::<FlatNode>() == 16);

/// What every row a layout will score is known to hold for one feature.
/// A feature the ablation mask drops reads `Equals(0.0)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Known {
    /// `x == c` (so a NaN `c` is a NaN feature).
    Equals(f64),
    /// `x <= v` (so `x` is not NaN).
    AtMost(f64),
    /// `x > v` (so `x` is not NaN).
    Above(f64),
}

impl Known {
    /// Whether every value that satisfies `self` goes left at a split on
    /// `threshold` (`x <= threshold`): `Some(true)`, `Some(false)` when
    /// every such value goes right, `None` when values on both sides do.
    fn goes_left(self, threshold: f64) -> Option<bool> {
        match self {
            Known::Equals(c) => Some(c <= threshold),
            Known::AtMost(v) => (v <= threshold).then_some(true),
            Known::Above(v) => (v >= threshold).then_some(false),
        }
    }
}

impl FlatNode {
    fn leaf(vote: bool) -> FlatNode {
        FlatNode {
            threshold: 0.0,
            right: 0,
            feature: 0,
            kind: if vote { Kind::Yes } else { Kind::No },
        }
    }
}

/// A [`RandomForest`] flattened into one preorder node array for scoring.
///
/// Invariants: every entry of `roots` and every `right` offset of a split
/// is a valid index into `nodes`, and a split is never the last node.
#[derive(Debug, Clone, Default)]
pub struct FlatForest {
    nodes: Vec<FlatNode>,
    roots: Vec<u32>,
    /// `suffix_possible[t]` = number of trees in `t..n_trees` that can
    /// vote "related" at all (their root is not a no-leaf), i.e. an upper
    /// bound on the votes the remaining trees can still contribute.
    /// Length `n_trees + 1` (last entry 0).
    suffix_possible: Vec<u32>,
}

impl FlatForest {
    /// Flatten `forest` keeping every feature.
    pub fn from_forest(forest: &RandomForest) -> FlatForest {
        Self::from_forest_known(forest, |_| None)
    }

    /// Flatten `forest`, baking the feature mask `keep` into the layout:
    /// splits on features with `keep(feature) == false` are replaced by
    /// the subtree a zeroed feature value would reach. The same as
    /// [`FlatForest::from_forest_known`] with `Known::Equals(0.0)` on
    /// every dropped feature.
    pub fn from_forest_masked(forest: &RandomForest, keep: impl Fn(usize) -> bool) -> FlatForest {
        Self::from_forest_known(forest, |f| (!keep(f)).then_some(Known::Equals(0.0)))
    }

    /// Flatten `forest` for rows that satisfy `known(feature)` on every
    /// feature it returns `Some` for: each split the knowledge decides is
    /// replaced by the subtree every such row reaches. On those rows each
    /// tree votes as it does in [`FlatForest::from_forest`]'s layout;
    /// other rows get no guarantee.
    pub fn from_forest_known(
        forest: &RandomForest,
        known: impl Fn(usize) -> Option<Known>,
    ) -> FlatForest {
        Self::from_trees(forest.trees(), &known)
    }

    /// Flatten a single tree (one root), keeping every feature.
    pub fn from_tree(tree: &DecisionTree) -> FlatForest {
        Self::from_trees(std::slice::from_ref(tree), &|_| None)
    }

    fn from_trees(trees: &[DecisionTree], known: &impl Fn(usize) -> Option<Known>) -> FlatForest {
        let mut flat = FlatForest::default();
        for tree in trees {
            flat.push_tree(tree.nodes(), known);
        }
        flat.suffix_possible = vec![0; flat.roots.len() + 1];
        for t in (0..flat.roots.len()).rev() {
            let possible = (flat.nodes[flat.roots[t] as usize].kind != Kind::No) as u32;
            flat.suffix_possible[t] = flat.suffix_possible[t + 1] + possible;
        }
        flat
    }

    /// Emit one tree in preorder. Relies on the shape every
    /// [`DecisionTree`] has (grown in preorder, or checked when read from
    /// JSON): a root at 0 and each child after its parent. The walk uses
    /// an explicit stack, so tree depth never becomes recursion depth.
    fn push_tree(&mut self, nodes: &[Node], known: &impl Fn(usize) -> Option<Known>) {
        // The child every row takes at a split its known feature decides.
        let known_branch = |node: &Node| match node {
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => known(*feature)?
                .goes_left(*threshold)
                .map(|l| if l { *left } else { *right }),
            Node::Leaf { .. } => None,
        };
        // `uniform[id]`: the vote every leaf reachable from `id` casts, or
        // `None` when they disagree. Children come after their parent, so
        // one reverse pass sees each child before its parent.
        let mut uniform: Vec<Option<bool>> = vec![None; nodes.len()];
        for id in (0..nodes.len()).rev() {
            uniform[id] = match (&nodes[id], known_branch(&nodes[id])) {
                (_, Some(next)) => uniform[next],
                (Node::Leaf { prob }, None) => Some(*prob >= 0.5),
                (Node::Split { left, right, .. }, None) if uniform[*left] == uniform[*right] => {
                    uniform[*left]
                }
                (Node::Split { .. }, None) => None,
            };
        }

        self.roots.push(self.next_offset());
        // (source node, flat split whose right child it becomes)
        let mut stack: Vec<(usize, Option<usize>)> = vec![(0, None)];
        while let Some((mut id, parent)) = stack.pop() {
            while let Some(next) = known_branch(&nodes[id]) {
                id = next;
            }
            let at = self.next_offset();
            if let Some(p) = parent {
                self.nodes[p].right = at;
            }
            if let Some(vote) = uniform[id] {
                self.nodes.push(FlatNode::leaf(vote));
                continue;
            }
            let Node::Split {
                feature,
                threshold,
                left,
                right,
            } = &nodes[id]
            else {
                unreachable!("a leaf always votes one way");
            };
            self.nodes.push(FlatNode {
                threshold: *threshold,
                right: 0,
                feature: u16::try_from(*feature).expect("feature index exceeds the u16 layout"),
                kind: Kind::Split,
            });
            stack.push((*right, Some(at as usize)));
            stack.push((*left, None));
        }
    }

    fn next_offset(&self) -> u32 {
        let at = self.nodes.len();
        assert!(at < u32::MAX as usize, "forest exceeds the u32 layout");
        at as u32
    }

    /// Whether tree `tree` votes "related" for `x`, i.e. whether its leaf
    /// probability is `>= 0.5`. No allocation.
    pub fn tree_vote(&self, tree: usize, x: &[f64]) -> bool {
        self.vote_from(self.roots[tree], x)
    }

    /// Fraction of trees voting "related" — identical arithmetic to
    /// [`RandomForest::predict_proba`], with no copy and no allocation.
    /// An empty forest returns the uninformative 0.5.
    pub fn predict_proba_slice(&self, x: &[f64]) -> f64 {
        if self.roots.is_empty() {
            return 0.5;
        }
        let votes = self
            .roots
            .iter()
            .filter(|&&root| self.vote_from(root, x))
            .count();
        votes as f64 / self.roots.len() as f64
    }

    /// Hard prediction at threshold 0.5 (majority vote).
    pub fn predict_slice(&self, x: &[f64]) -> bool {
        self.predict_proba_slice(x) >= 0.5
    }

    /// Walk from flat offset `root` to the first leaf: its vote.
    #[inline]
    fn vote_from(&self, root: u32, x: &[f64]) -> bool {
        let mut at = root as usize;
        loop {
            let node = &self.nodes[at];
            match node.kind {
                Kind::Split => {
                    at = if x[node.feature as usize] <= node.threshold {
                        at + 1
                    } else {
                        node.right as usize
                    };
                }
                Kind::Yes => return true,
                Kind::No => return false,
            }
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
                if self.vote_from(root, row) {
                    *o += 1.0;
                }
            }
        }
        let n_trees = self.roots.len() as f64;
        for o in out.iter_mut() {
            *o /= n_trees;
        }
    }

    /// Score one row with a pruning cut: the row is abandoned (`None`)
    /// as soon as `(votes_so_far + suffix_possible) / n_trees` falls
    /// strictly below `cut`, which proves the exact score would also be
    /// `< cut`. A row that survives receives its exact score,
    /// bit-identical to [`FlatForest::predict_proba_slice`]. A cut of
    /// `f64::NEG_INFINITY` disables pruning; `f64::INFINITY` prunes before
    /// any tree is walked. An empty forest scores 0.5 and never prunes.
    ///
    /// The trees are walked in `self`, the remaining-vote bound is read
    /// from `bound`: `self` itself, or the layout of the same forest that
    /// `self` was built beside under [`Known`] constraints `x` satisfies.
    /// There every tree votes as in `bound`, so the row prunes at exactly
    /// the tree, and survives with exactly the score, it would in `bound`.
    pub fn score_bounded(&self, x: &[f64], cut: f64, bound: &FlatForest) -> Option<f64> {
        assert_eq!(
            self.roots.len(),
            bound.roots.len(),
            "a layout is bounded by a layout of the same forest"
        );
        if self.roots.is_empty() {
            return Some(0.5);
        }
        let n_trees = self.roots.len() as f64;
        let mut votes = 0u32;
        for (&root, &possible) in self.roots.iter().zip(&bound.suffix_possible) {
            // Upper bound on the final score before walking this tree:
            // every not-yet-walked tree that *can* vote does.
            if ((votes + possible) as f64) / n_trees < cut {
                return None;
            }
            votes += u32::from(self.vote_from(root, x));
        }
        Some(votes as f64 / n_trees)
    }

    /// Number of flattened trees.
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// Total node count across all trees (diagnostics).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }
}

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
    fn single_tree_vote_matches_recursive() {
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
            assert_eq!(flat.tree_vote(0, &x), tree.predict(&x));
        }
    }

    #[test]
    fn same_vote_subtrees_collapse_to_one_leaf() {
        let data = noisy(300, 17);
        let rf = RandomForest::fit(
            &data,
            RandomForestConfig {
                n_trees: 24,
                ..Default::default()
            },
        );
        let source: usize = rf.trees().iter().map(DecisionTree::n_nodes).sum();
        let flat = FlatForest::from_forest(&rf);
        assert!(
            flat.n_nodes() < source,
            "{} flat nodes from {source}",
            flat.n_nodes()
        );
        // No split is left with two leaves that vote the same way.
        for (at, node) in flat.nodes.iter().enumerate() {
            if node.kind == Kind::Split {
                let (left, right) = (
                    flat.nodes[at + 1].kind,
                    flat.nodes[node.right as usize].kind,
                );
                assert!(left == Kind::Split || left != right, "split {at}");
            }
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
        let mut saw_survivor_above_cut = false;
        for (row, &cut) in rows.chunks_exact(3).zip(&cuts) {
            let exact = flat.predict_proba_slice(row);
            match flat.score_bounded(row, cut, &flat) {
                None => assert!(exact < cut, "pruned row had score {exact} >= cut {cut}"),
                Some(s) => {
                    assert_eq!(s.to_bits(), exact.to_bits(), "{row:?}");
                    saw_survivor_above_cut |= exact >= cut;
                }
            }
            if cut == f64::NEG_INFINITY {
                assert!(flat.score_bounded(row, cut, &flat).is_some());
            }
            if cut == f64::INFINITY {
                assert!(flat.score_bounded(row, cut, &flat).is_none());
            }
        }
        assert!(saw_survivor_above_cut);
    }

    /// The row-outermost block kernel `score_bounded` replaced, kept as
    /// its reference.
    fn score_block_bounded_reference(
        flat: &FlatForest,
        rows: &[f64],
        stride: usize,
        cuts: &[f64],
        out: &mut [f64],
        pruned: &mut [bool],
    ) -> usize {
        if flat.roots.is_empty() {
            out.fill(0.5);
            pruned.fill(false);
            return 0;
        }
        let n_trees = flat.roots.len() as f64;
        let mut n_pruned = 0usize;
        let rows_iter = rows.chunks_exact(stride).zip(cuts.iter());
        for ((row, &cut), (o, p)) in rows_iter.zip(out.iter_mut().zip(pruned.iter_mut())) {
            let mut votes = 0u32;
            let mut cut_hit = false;
            for (&root, &possible) in flat.roots.iter().zip(flat.suffix_possible.iter()) {
                if ((votes + possible) as f64) / n_trees < cut {
                    cut_hit = true;
                    break;
                }
                if flat.vote_from(root, row) {
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

    #[test]
    fn score_bounded_reproduces_the_block_kernel() {
        for (seed, n_trees) in [(31u64, 1usize), (32, 9), (33, 40)] {
            let rf = RandomForest::fit(
                &noisy(300, seed),
                RandomForestConfig {
                    n_trees,
                    seed,
                    ..Default::default()
                },
            );
            let flat = FlatForest::from_forest(&rf);
            let n_rows = 400;
            let mut rows = random_block(n_rows, 3, seed + 100);
            rows[..6].copy_from_slice(&[f64::NAN, -0.0, 0.0, f64::INFINITY, 0.5, -1.0]);
            let mut rng = StdRng::seed_from_u64(seed + 200);
            let cuts: Vec<f64> = (0..n_rows)
                .map(|i| match i % 5 {
                    0 => f64::NEG_INFINITY,
                    1 => f64::INFINITY,
                    2 => (rng.random_range(0..=n_trees) as f64) / n_trees as f64,
                    _ => rng.random_range(-0.1..1.1),
                })
                .collect();
            let mut out = vec![f64::NAN; n_rows];
            let mut pruned = vec![false; n_rows];
            let n_pruned =
                score_block_bounded_reference(&flat, &rows, 3, &cuts, &mut out, &mut pruned);
            let mut n = 0;
            for (i, (row, &cut)) in rows.chunks_exact(3).zip(&cuts).enumerate() {
                let got = flat.score_bounded(row, cut, &flat);
                assert_eq!(got.is_none(), pruned[i], "row {i}");
                if let Some(s) = got {
                    assert_eq!(s.to_bits(), out[i].to_bits(), "row {i}");
                }
                n += usize::from(got.is_none());
            }
            assert_eq!(n, n_pruned);
        }
    }

    #[test]
    fn empty_forest_block_paths() {
        let flat = FlatForest::default();
        let rows = [0.0, 1.0];
        let mut out = [f64::NAN; 2];
        flat.score_block(&rows, 1, &mut out);
        assert_eq!(out, [0.5, 0.5]);
        for cut in [f64::NEG_INFINITY, 0.1, 0.9, f64::INFINITY] {
            assert_eq!(flat.score_bounded(&rows, cut, &flat), Some(0.5));
        }
    }

    #[test]
    fn known_features_splice_like_the_mask() {
        let data = noisy(300, 27);
        let rf = RandomForest::fit(
            &data,
            RandomForestConfig {
                n_trees: 24,
                ..Default::default()
            },
        );
        let plain = FlatForest::from_forest(&rf);
        // Feature 0 known on each side of 0.5, feature 2 known exactly.
        let mut rng = StdRng::seed_from_u64(28);
        for (f0, f2) in [(Known::AtMost(0.5), 0.25), (Known::Above(0.5), 0.75)] {
            let known = |f| match f {
                0 => Some(f0),
                2 => Some(Known::Equals(f2)),
                _ => None,
            };
            let layout = FlatForest::from_forest_known(&rf, known);
            assert!(layout.n_nodes() < plain.n_nodes());
            for _ in 0..500 {
                let x0 = rng.random_range(-0.2..1.2);
                if (x0 <= 0.5) != (f0 == Known::AtMost(0.5)) {
                    continue;
                }
                let x = [x0, rng.random_range(-0.2..1.2), f2];
                for t in 0..rf.n_trees() {
                    assert_eq!(layout.tree_vote(t, &x), plain.tree_vote(t, &x), "{x:?}");
                }
            }
        }
    }
}
