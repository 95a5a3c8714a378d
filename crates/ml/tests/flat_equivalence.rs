//! Property tests: the flattened preorder forest layout ([`FlatForest`])
//! is observationally identical to the recursive tree representation —
//! for arbitrary fitted forests, arbitrary probes, and arbitrary feature
//! masks baked at flatten time — and so is every scoring entry point on
//! hand-built forests whose subtrees vote as a whole, on probes that are
//! NaN or sit exactly on a threshold.

use briq_ml::flat::FlatForest;
use briq_ml::tree::{DecisionTree, TreeConfig};
use briq_ml::{Dataset, RandomForest, RandomForestConfig};
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

/// A random binary-labeled dataset with `n` rows over `nf` features.
fn random_dataset(n: usize, nf: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut d = Dataset::new();
    for _ in 0..n {
        let row: Vec<f64> = (0..nf).map(|_| rng.random_range(-1.0..1.0)).collect();
        // Label correlates with the first feature, with noise, so trees
        // actually grow splits.
        let label = row[0] + rng.random_range(-0.4..0.4) > 0.0;
        d.push(row, label);
    }
    d
}

proptest! {
    /// Flat traversal of an arbitrary fitted forest returns exactly the
    /// recursive probability on arbitrary probes.
    #[test]
    fn flat_forest_equals_recursive(
        seed in 0u64..500,
        n in 12usize..80,
        nf in 1usize..6,
        n_trees in 1usize..12,
        probe_seed in 0u64..100,
    ) {
        let data = random_dataset(n, nf, seed);
        let rf = RandomForest::fit(
            &data,
            RandomForestConfig { n_trees, seed, ..Default::default() },
        );
        let flat = FlatForest::from_forest(&rf);
        prop_assert_eq!(flat.n_trees(), rf.n_trees());
        let mut rng = StdRng::seed_from_u64(probe_seed);
        for _ in 0..25 {
            let x: Vec<f64> = (0..nf).map(|_| rng.random_range(-2.0..2.0)).collect();
            prop_assert_eq!(
                flat.predict_proba_slice(&x).to_bits(),
                rf.predict_proba(&x).to_bits()
            );
            prop_assert_eq!(flat.predict_slice(&x), rf.predict(&x));
        }
    }

    /// A single fitted tree flattens to the same vote as its recursive
    /// traversal.
    #[test]
    fn flat_tree_equals_recursive(
        seed in 0u64..500,
        n in 5usize..60,
        nf in 1usize..5,
    ) {
        let data = random_dataset(n, nf, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let tree = DecisionTree::fit(&data, TreeConfig::default(), &mut rng);
        let flat = FlatForest::from_tree(&tree);
        for _ in 0..25 {
            let x: Vec<f64> = (0..nf).map(|_| rng.random_range(-2.0..2.0)).collect();
            prop_assert_eq!(flat.tree_vote(0, &x), tree.predict(&x));
        }
    }

    /// Block-wise scoring (trees outer, rows inner) is bit-identical to
    /// per-row scoring for arbitrary forests and block sizes.
    #[test]
    fn score_block_equals_per_row_score(
        seed in 0u64..400,
        n in 12usize..80,
        nf in 1usize..6,
        n_trees in 1usize..12,
        n_rows in 0usize..64,
    ) {
        let data = random_dataset(n, nf, seed);
        let rf = RandomForest::fit(
            &data,
            RandomForestConfig { n_trees, seed, ..Default::default() },
        );
        let flat = FlatForest::from_forest(&rf);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB10C);
        let rows: Vec<f64> = (0..n_rows * nf).map(|_| rng.random_range(-2.0..2.0)).collect();
        let mut out = vec![f64::NAN; n_rows];
        flat.score_block(&rows, nf, &mut out);
        for (o, row) in out.iter().zip(rows.chunks_exact(nf)) {
            prop_assert_eq!(o.to_bits(), flat.predict_proba_slice(row).to_bits());
        }
    }

    /// Bounded block scoring either returns the exact per-row score or
    /// prunes a row whose exact score is provably below its cut.
    #[test]
    fn bounded_block_prunes_only_below_cut(
        seed in 0u64..400,
        n in 12usize..80,
        nf in 1usize..6,
        n_trees in 1usize..12,
        n_rows in 1usize..48,
        cut_seed in 0u64..100,
    ) {
        let data = random_dataset(n, nf, seed);
        let rf = RandomForest::fit(
            &data,
            RandomForestConfig { n_trees, seed, ..Default::default() },
        );
        let flat = FlatForest::from_forest(&rf);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC07);
        let rows: Vec<f64> = (0..n_rows * nf).map(|_| rng.random_range(-2.0..2.0)).collect();
        let mut cut_rng = StdRng::seed_from_u64(cut_seed);
        let cuts: Vec<f64> = (0..n_rows)
            .map(|i| match i % 3 {
                0 => f64::NEG_INFINITY,
                _ => cut_rng.random_range(-0.1..1.1),
            })
            .collect();
        let mut out = vec![f64::NAN; n_rows];
        let mut pruned = vec![false; n_rows];
        let n_pruned = flat.score_block_bounded(&rows, nf, &cuts, &mut out, &mut pruned);
        prop_assert_eq!(n_pruned, pruned.iter().filter(|&&p| p).count());
        for i in 0..n_rows {
            let exact = flat.predict_proba_slice(&rows[i * nf..(i + 1) * nf]);
            if pruned[i] {
                prop_assert!(exact < cuts[i], "row {} score {} >= cut {}", i, exact, cuts[i]);
            } else {
                prop_assert_eq!(out[i].to_bits(), exact.to_bits());
            }
        }
    }

    /// Baking a feature mask into the flat layout equals zeroing the
    /// masked features of every probe before recursive traversal.
    #[test]
    fn mask_baking_equals_input_zeroing(
        seed in 0u64..300,
        n in 12usize..60,
        nf in 2usize..6,
        mask_bits in 0usize..63,
    ) {
        let data = random_dataset(n, nf, seed);
        let rf = RandomForest::fit(
            &data,
            RandomForestConfig { n_trees: 6, seed, ..Default::default() },
        );
        let keep = |f: usize| mask_bits & (1 << f) != 0;
        let flat = FlatForest::from_forest_masked(&rf, keep);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5A5A);
        for _ in 0..25 {
            let x: Vec<f64> = (0..nf).map(|_| rng.random_range(-2.0..2.0)).collect();
            let zeroed: Vec<f64> = x
                .iter()
                .enumerate()
                .map(|(f, &v)| if keep(f) { v } else { 0.0 })
                .collect();
            prop_assert_eq!(
                flat.predict_proba_slice(&x).to_bits(),
                rf.predict_proba(&zeroed).to_bits()
            );
        }
    }
}

/// A forest loaded through its JSON form from per-tree node lists in
/// tree-growing preorder.
fn forest_from_nodes(trees: &[&[Node]]) -> RandomForest {
    let tree = |nodes: &[Node]| {
        let nodes: Vec<String> = nodes
            .iter()
            .map(|n| match *n {
                Node::Split(feature, threshold, left, right) => format!(
                    r#"{{"Split":{{"feature":{feature},"threshold":{threshold},"left":{left},"right":{right}}}}}"#
                ),
                Node::Leaf(prob) => format!(r#"{{"Leaf":{{"prob":{prob}}}}}"#),
            })
            .collect();
        format!(r#"{{"nodes":[{}]}}"#, nodes.join(","))
    };
    let trees: Vec<String> = trees.iter().map(|t| tree(t)).collect();
    briq_json::from_str(&format!(r#"{{"trees":[{}]}}"#, trees.join(",")))
        .expect("a well-formed forest loads")
}

/// `Split(feature, threshold, left, right)` or `Leaf(prob)`.
#[derive(Clone, Copy)]
enum Node {
    Split(usize, f64, usize, usize),
    Leaf(f64),
}

use Node::{Leaf, Split};

// Hand-built trees over three features, in tree-growing preorder.

/// Its left subtree votes "related" as a whole; its right subtree mixes.
const TREE0: &[Node] = &[
    Split(0, 0.5, 1, 6),
    Split(1, 0.25, 2, 5),
    Split(2, -1.0, 3, 4),
    Leaf(0.9),
    Leaf(0.5),
    Leaf(0.75),
    Split(1, 0.25, 7, 8),
    Leaf(0.1),
    Leaf(0.6),
];

/// Can never vote "related".
const TREE1: &[Node] = &[
    Split(0, 0.0, 1, 2),
    Leaf(0.2),
    Split(1, 1.0, 3, 4),
    Leaf(0.4999),
    Leaf(0.0),
];

/// Always votes "related".
const TREE2: &[Node] = &[Split(2, 0.5, 1, 2), Leaf(1.0), Leaf(0.5)];

/// Its whole right subtree votes no, behind a split on feature 2.
const TREE3: &[Node] = &[
    Split(2, 0.0, 1, 2),
    Leaf(0.8),
    Split(0, 0.5, 3, 4),
    Leaf(0.3),
    Split(1, -0.5, 5, 6),
    Leaf(0.2),
    Leaf(0.0),
];

fn whole_vote_forest() -> RandomForest {
    forest_from_nodes(&[TREE0, TREE1, TREE2, TREE3])
}

/// Every combination of NaN, ±0, ±∞, each threshold of the hand-built
/// trees, and one value just above 0.5.
fn edge_probes() -> Vec<[f64; 3]> {
    let values = [
        f64::NAN,
        f64::NEG_INFINITY,
        -1.0,
        -0.5,
        0.0,
        -0.0,
        0.25,
        0.5,
        0.5 + f64::EPSILON,
        1.0,
        f64::INFINITY,
    ];
    let mut probes = Vec::new();
    for &a in &values {
        for &b in &values {
            for &c in &values {
                probes.push([a, b, c]);
            }
        }
    }
    probes
}

#[test]
fn whole_vote_subtrees_collapse() {
    let rf = whole_vote_forest();
    let flat = FlatForest::from_forest(&rf);
    // Tree 0: 9 nodes become 5 (its left subtree is one yes-leaf);
    // tree 1 becomes one no-leaf, tree 2 one yes-leaf; tree 3: 7 become 3.
    assert_eq!(flat.n_nodes(), 5 + 1 + 1 + 3);
}

#[test]
fn every_entry_point_matches_recursive_on_edge_probes() {
    let rf = whole_vote_forest();
    // Unmasked, then with feature 1 baked out (read as 0.0).
    for (flat, dropped) in [
        (FlatForest::from_forest(&rf), None),
        (FlatForest::from_forest_masked(&rf, |f| f != 1), Some(1)),
    ] {
        let probes = edge_probes();
        let reference = |x: &[f64; 3]| {
            let mut x = *x;
            if let Some(f) = dropped {
                x[f] = 0.0;
            }
            rf.predict_proba(&x)
        };
        for x in &probes {
            assert_eq!(
                flat.predict_proba_slice(x).to_bits(),
                reference(x).to_bits(),
                "{x:?}"
            );
        }
        let rows: Vec<f64> = probes.iter().flatten().copied().collect();
        let mut out = vec![f64::NAN; probes.len()];
        flat.score_block(&rows, 3, &mut out);
        for (o, x) in out.iter().zip(&probes) {
            assert_eq!(o.to_bits(), reference(x).to_bits(), "{x:?}");
        }
        for cut in [f64::NEG_INFINITY, 0.0, 0.25, 0.5, 0.75, 1.0, f64::INFINITY] {
            let cuts = vec![cut; probes.len()];
            let mut pruned = vec![false; probes.len()];
            flat.score_block_bounded(&rows, 3, &cuts, &mut out, &mut pruned);
            for ((o, &p), x) in out.iter().zip(&pruned).zip(&probes) {
                let exact = reference(x);
                if p {
                    assert!(exact < cut, "{x:?} pruned at cut {cut} with score {exact}");
                } else {
                    assert_eq!(o.to_bits(), exact.to_bits(), "{x:?} at cut {cut}");
                }
            }
        }
    }
}

#[test]
fn bounded_pruning_sees_trees_that_cannot_vote() {
    // Trees 0, 2, 1 in that order; tree 1 can never vote "related". For
    // this row tree 0 votes no and tree 2 yes, so its score is 1/3. Once
    // tree 0 has voted no, at most tree 2 can still vote: the bound is
    // 1/3 < 0.5 and the row is pruned before tree 2 is walked. A bound
    // that counted tree 1 as able to vote would stay at 2/3 and never
    // prune the row.
    let flat = FlatForest::from_forest(&forest_from_nodes(&[TREE0, TREE2, TREE1]));
    let rows = [0.6, 0.0, 0.0];
    assert_eq!(flat.predict_proba_slice(&rows), 1.0 / 3.0);
    let mut out = [f64::NAN];
    let mut pruned = [false];
    let n = flat.score_block_bounded(&rows, 3, &[0.5], &mut out, &mut pruned);
    assert_eq!((n, pruned[0]), (1, true));
    let n = flat.score_block_bounded(&rows, 3, &[1.0 / 3.0], &mut out, &mut pruned);
    assert_eq!((n, pruned[0], out[0]), (0, false, 1.0 / 3.0));
}
