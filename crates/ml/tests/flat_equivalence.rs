//! Property tests: the flattened preorder forest layout ([`FlatForest`])
//! is observationally identical to the recursive tree representation —
//! for arbitrary fitted forests, arbitrary probes, and arbitrary feature
//! masks baked at flatten time — and so is every scoring entry point on
//! hand-built forests whose subtrees vote as a whole, on probes that are
//! NaN or sit exactly on a threshold. A layout built under [`Known`]
//! constraints votes tree by tree as the plain layout on every probe
//! that satisfies them, and the bounded kernel walking it under the
//! plain layout's bound prunes and scores exactly as the plain one.

use briq_json::{ToJson, Value};
use briq_ml::flat::{FlatForest, Known};
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

/// Every split threshold of `rf`, in tree and node order.
fn thresholds(rf: &RandomForest) -> Vec<f64> {
    fn walk(v: &Value, out: &mut Vec<f64>) {
        match v {
            Value::Object(fields) => {
                for (k, v) in fields {
                    match (k.as_str(), v) {
                        ("threshold", Value::Num(t)) => out.push(*t),
                        _ => walk(v, out),
                    }
                }
            }
            Value::Array(items) => items.iter().for_each(|v| walk(v, out)),
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk(&rf.to_json(), &mut out);
    out
}

/// A value to know a feature at, or to probe it with: one of the forest's
/// split thresholds, ±0.0, or a random value.
fn edge_value(rng: &mut StdRng, thresholds: &[f64]) -> f64 {
    match rng.random_range(0..4) {
        0 if !thresholds.is_empty() => thresholds[rng.random_range(0..thresholds.len())],
        1 => 0.0,
        2 => -0.0,
        _ => rng.random_range(-2.0..2.0),
    }
}

/// A random constraint on one feature: none, `==` (a NaN now and then),
/// `<=` or `>`, each at an edge value.
fn random_known(rng: &mut StdRng, thresholds: &[f64]) -> Option<Known> {
    let v = edge_value(rng, thresholds);
    match rng.random_range(0..7) {
        0 | 1 => None,
        2 => Some(Known::Equals(f64::NAN)),
        3 => Some(Known::Equals(v)),
        4 => Some(Known::AtMost(v)),
        _ => Some(Known::Above(v)),
    }
}

/// A probe value that satisfies `known`: the constraint's own value where
/// it satisfies it, else an edge value on the right side, else a random
/// one.
fn satisfying(rng: &mut StdRng, known: Option<Known>, thresholds: &[f64]) -> f64 {
    let edge = edge_value(rng, thresholds);
    match known {
        None => edge,
        Some(Known::Equals(c)) => c,
        Some(Known::AtMost(v)) => match rng.random_range(0..3) {
            0 => v,
            1 if edge <= v => edge,
            _ => v - rng.random_range(0.0..1.0),
        },
        Some(Known::Above(v)) => match rng.random_range(0..3) {
            0 => v.next_up(),
            1 if edge > v => edge,
            _ => v + rng.random_range(1e-9..1.0),
        },
    }
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

    /// Bounded scoring either returns the exact per-row score or prunes
    /// a row whose exact score is provably below its cut.
    #[test]
    fn bounded_scoring_prunes_only_below_cut(
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
        for (i, (row, &cut)) in rows.chunks_exact(nf).zip(&cuts).enumerate() {
            let exact = flat.predict_proba_slice(row);
            match flat.score_bounded(row, cut, &flat) {
                None => prop_assert!(exact < cut, "row {} score {} >= cut {}", i, exact, cut),
                Some(s) => prop_assert_eq!(s.to_bits(), exact.to_bits()),
            }
        }
    }

    /// A layout built under arbitrary per-feature constraints votes tree
    /// by tree as the plain layout on every probe that satisfies them —
    /// probes on the constraint's own value, on split thresholds, at ±0.0
    /// or NaN included — and the bounded kernel walking it under the
    /// plain layout's bound prunes the same probes, with the same scores.
    #[test]
    fn known_layout_votes_as_plain(
        seed in 0u64..400,
        n in 12usize..80,
        nf in 1usize..6,
        n_trees in 1usize..12,
        known_seed in 0u64..1000,
    ) {
        let data = random_dataset(n, nf, seed);
        let rf = RandomForest::fit(
            &data,
            RandomForestConfig { n_trees, seed, ..Default::default() },
        );
        let splits = thresholds(&rf);
        let mut rng = StdRng::seed_from_u64(known_seed);
        let known: Vec<Option<Known>> = (0..nf).map(|_| random_known(&mut rng, &splits)).collect();
        let plain = FlatForest::from_forest(&rf);
        let layout = FlatForest::from_forest_known(&rf, |f| known[f]);
        prop_assert_eq!(layout.n_trees(), plain.n_trees());
        prop_assert!(layout.n_nodes() <= plain.n_nodes());
        for _ in 0..40 {
            let x: Vec<f64> = known.iter().map(|&k| satisfying(&mut rng, k, &splits)).collect();
            for t in 0..plain.n_trees() {
                prop_assert_eq!(layout.tree_vote(t, &x), plain.tree_vote(t, &x), "tree {} {:?} {:?}", t, known, x);
            }
            prop_assert_eq!(
                layout.predict_proba_slice(&x).to_bits(),
                rf.predict_proba(&x).to_bits()
            );
            for cut in [f64::NEG_INFINITY, rng.random_range(-0.1..1.1), 0.5, f64::INFINITY] {
                prop_assert_eq!(
                    layout.score_bounded(&x, cut, &plain).map(f64::to_bits),
                    plain.score_bounded(&x, cut, &plain).map(f64::to_bits)
                );
            }
        }
    }

    /// Mask baking is the `== 0.0` constraint on every dropped feature:
    /// the same layout, node for node.
    #[test]
    fn mask_baking_is_known_zero(
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
        let masked = FlatForest::from_forest_masked(&rf, keep);
        let known = FlatForest::from_forest_known(&rf, |f| (!keep(f)).then_some(Known::Equals(0.0)));
        prop_assert_eq!(masked.n_nodes(), known.n_nodes());
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0E0E);
        for _ in 0..25 {
            let x: Vec<f64> = (0..nf).map(|_| rng.random_range(-2.0..2.0)).collect();
            for t in 0..rf.n_trees() {
                prop_assert_eq!(masked.tree_vote(t, &x), known.tree_vote(t, &x));
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
            for x in &probes {
                let exact = reference(x);
                match flat.score_bounded(x, cut, &flat) {
                    None => assert!(exact < cut, "{x:?} pruned at cut {cut} with score {exact}"),
                    Some(s) => assert_eq!(s.to_bits(), exact.to_bits(), "{x:?} at cut {cut}"),
                }
            }
        }
    }
}

#[test]
fn known_layouts_match_plain_on_edge_probes() {
    let rf = whole_vote_forest();
    let plain = FlatForest::from_forest(&rf);
    let probes = edge_probes();
    // Each constraint at each threshold of the hand-built trees (and
    // ±0.0), on each feature.
    for f in 0..3 {
        for v in [-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0] {
            for known in [Known::Equals(v), Known::AtMost(v), Known::Above(v)] {
                let layout = FlatForest::from_forest_known(&rf, |g| (g == f).then_some(known));
                let holds = |x: f64| match known {
                    Known::Equals(c) => x == c,
                    Known::AtMost(c) => x <= c,
                    Known::Above(c) => x > c,
                };
                for x in probes.iter().filter(|x| holds(x[f])) {
                    for t in 0..plain.n_trees() {
                        assert_eq!(
                            layout.tree_vote(t, x),
                            plain.tree_vote(t, x),
                            "tree {t} {known:?} on feature {f} at {x:?}"
                        );
                    }
                    for cut in [f64::NEG_INFINITY, 0.25, 0.5, 0.75, f64::INFINITY] {
                        assert_eq!(
                            layout.score_bounded(x, cut, &plain).map(f64::to_bits),
                            plain.score_bounded(x, cut, &plain).map(f64::to_bits),
                            "{known:?} on feature {f} at {x:?}, cut {cut}"
                        );
                    }
                }
            }
        }
    }
    // Knowing feature 2 > 0.0 sends tree 3's root right, into its
    // whole-no subtree: its 3 flat nodes become one no-leaf.
    let layout = FlatForest::from_forest_known(&rf, |f| (f == 2).then_some(Known::Above(0.0)));
    assert_eq!(layout.n_nodes(), 5 + 1 + 1 + 1);
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
    assert_eq!(flat.score_bounded(&rows, 0.5, &flat), None);
    assert_eq!(flat.score_bounded(&rows, 1.0 / 3.0, &flat), Some(1.0 / 3.0));
}
