//! Edge-case tests for the ML substrate.

use briq_ml::dataset::Dataset;
use briq_ml::entropy::{normalized_entropy, shannon_entropy};
use briq_ml::gridsearch::{grid_search, product};
use briq_ml::kappa::fleiss_kappa;
use briq_ml::metrics::{precision_recall_f1, roc_auc, Prf};
use briq_ml::split::random_split;
use briq_ml::tree::{DecisionTree, TreeConfig};
use briq_ml::{RandomForest, RandomForestConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn tree_with_constant_labels() {
    let mut d = Dataset::new();
    for i in 0..20 {
        d.push(vec![i as f64], true);
    }
    let t = DecisionTree::fit(&d, TreeConfig::default(), &mut StdRng::seed_from_u64(0));
    assert_eq!(t.n_nodes(), 1);
    assert_eq!(t.predict_proba(&[3.0]), 1.0);
}

#[test]
fn tree_with_single_example() {
    let mut d = Dataset::new();
    d.push(vec![1.0], false);
    let t = DecisionTree::fit(&d, TreeConfig::default(), &mut StdRng::seed_from_u64(0));
    assert!(!t.predict(&[1.0]));
}

#[test]
fn forest_handles_nan_free_extremes() {
    let mut d = Dataset::new();
    d.push(vec![f64::MAX], true);
    d.push(vec![f64::MIN], false);
    d.push(vec![0.0], false);
    d.push(vec![1e300], true);
    let rf = RandomForest::fit(
        &d,
        RandomForestConfig {
            n_trees: 8,
            ..Default::default()
        },
    );
    let p = rf.predict_proba(&[f64::MAX]);
    assert!((0.0..=1.0).contains(&p));
}

#[test]
fn forest_more_trees_smoother_probabilities() {
    let mut d = Dataset::new();
    let mut rng_v = 0u64;
    for i in 0..200 {
        rng_v = rng_v.wrapping_mul(6364136223846793005).wrapping_add(1);
        let x = (rng_v >> 33) as f64 / (u32::MAX as f64 / 2.0);
        d.push(vec![x], (i % 3) == 0 && x > 0.7);
    }
    let small = RandomForest::fit(
        &d,
        RandomForestConfig {
            n_trees: 2,
            ..Default::default()
        },
    );
    let large = RandomForest::fit(
        &d,
        RandomForestConfig {
            n_trees: 128,
            ..Default::default()
        },
    );
    // granularity: a 2-tree forest can only output {0, .5, 1}
    let p = small.predict_proba(&[0.8]);
    assert!(p == 0.0 || p == 0.5 || p == 1.0);
    let q = large.predict_proba(&[0.8]);
    assert!((0.0..=1.0).contains(&q));
}

#[test]
fn prf_empty_input() {
    let prf = precision_recall_f1(&[], &[]);
    assert_eq!(prf, Prf::default());
}

#[test]
fn auc_single_example_each_class() {
    assert_eq!(roc_auc(&[0.9, 0.1], &[true, false]), 1.0);
    assert_eq!(roc_auc(&[0.1, 0.9], &[true, false]), 0.0);
    assert_eq!(roc_auc(&[0.5, 0.5], &[true, false]), 0.5);
}

#[test]
fn entropy_of_two_point_distribution() {
    let h = shannon_entropy(&[0.5, 0.5]);
    assert!((h - std::f64::consts::LN_2).abs() < 1e-12);
    assert!((normalized_entropy(&[0.5, 0.5]) - 1.0).abs() < 1e-12);
}

#[test]
fn kappa_two_categories_three_raters() {
    // items where 2/3 agree every time
    let ratings = vec![vec![2, 1], vec![1, 2], vec![2, 1], vec![1, 2]];
    let k = fleiss_kappa(&ratings).unwrap();
    assert!(k < 0.5); // weak agreement
}

#[test]
fn split_sizes_round_sensibly() {
    let s = random_split(7, 0.1, 0.1, 0);
    assert_eq!(s.train.len() + s.validation.len() + s.test.len(), 7);
    let s = random_split(0, 0.1, 0.1, 0);
    assert!(s.train.is_empty() && s.test.is_empty());
}

#[test]
fn grid_search_single_candidate() {
    let (i, score) = grid_search(&[42], |_| 3.5).unwrap();
    assert_eq!(i, 0);
    assert_eq!(score, 3.5);
}

#[test]
fn product_sizes_multiply() {
    let g = product(&[vec![1, 2, 3], vec![4, 5], vec![6]]);
    assert_eq!(g.len(), 6);
    assert!(g.iter().all(|row| row.len() == 3));
}

#[test]
fn class_weights_preserve_total_mass_multi() {
    let mut d = Dataset::new();
    for i in 0..100 {
        d.push(vec![i as f64], i < 10);
    }
    d.apply_class_weights();
    let total: f64 = d.weights.iter().sum();
    assert!((total - 100.0).abs() < 1e-9);
    // minority weight > majority weight
    assert!(d.weights[0] > d.weights[50]);
}

#[test]
fn deep_tree_respects_leaf_weight() {
    let mut d = Dataset::new();
    for i in 0..64 {
        d.push(vec![i as f64], i % 2 == 0);
    }
    let cfg = TreeConfig {
        min_leaf_weight: 16.0,
        ..Default::default()
    };
    let t = DecisionTree::fit(&d, cfg, &mut StdRng::seed_from_u64(1));
    // with a 16-example floor, at most 64/16·2−1 = 7 nodes
    assert!(t.n_nodes() <= 7, "{}", t.n_nodes());
}
