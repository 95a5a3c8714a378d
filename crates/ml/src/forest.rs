//! Random Forest: bagged CART trees with vote-fraction probabilities.
//!
//! §IV-A: "An RF classifier consists of an ensemble of decision trees,
//! each trained on an independent bootstrap sample of the training data.
//! The final prediction … is obtained based on the majority vote of the
//! individual trees, returning the fraction of votes for the 'related'
//! class as the probability." Vote fractions are well calibrated
//! (Niculescu-Mizil & Caruana), which the global-resolution stage relies
//! on when mixing priors into the random walk.

use crate::dataset::Dataset;
use crate::tree::{DecisionTree, Node, TreeConfig};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Random Forest configuration.
#[derive(Debug, Clone, Copy)]
pub struct RandomForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree growing configuration. With `mtry == 0` the forest uses
    /// `ceil(sqrt(n_features))` per split, the standard default.
    pub tree: TreeConfig,
    /// RNG seed (bootstrap sampling and feature subsetting).
    pub seed: u64,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        RandomForestConfig {
            n_trees: 128,
            tree: TreeConfig::default(),
            seed: 42,
        }
    }
}

/// A trained Random Forest binary classifier.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
}

impl RandomForest {
    /// Train on `data`. Instance weights in the dataset are respected by
    /// the per-tree Gini computations.
    pub fn fit(data: &Dataset, cfg: RandomForestConfig) -> RandomForest {
        Self::fit_masked(data, cfg, |_| true)
    }

    /// [`RandomForest::fit`] with a feature filter: features where
    /// `keep(f)` is false are never chosen as splits. Bit-identical to
    /// fitting on a copy of `data` with the dropped columns zeroed — the
    /// RNG stream, tree structure, and predictions all match — without
    /// duplicating the feature matrix.
    pub fn fit_masked(
        data: &Dataset,
        cfg: RandomForestConfig,
        keep: impl Fn(usize) -> bool,
    ) -> RandomForest {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let n = data.len();
        let mut tree_cfg = cfg.tree;
        if tree_cfg.mtry == 0 {
            tree_cfg.mtry = (data.n_features() as f64).sqrt().ceil() as usize;
        }
        let trees = (0..cfg.n_trees)
            .map(|_| {
                let sample: Vec<usize> = (0..n).map(|_| rng.random_range(0..n.max(1))).collect();
                DecisionTree::fit_on_masked(data, &sample, tree_cfg, &mut rng, &keep)
            })
            .collect();
        RandomForest { trees }
    }

    /// Fraction of trees voting "related" — the calibrated probability.
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        if self.trees.is_empty() {
            return 0.5;
        }
        let votes = self.trees.iter().filter(|t| t.predict(x)).count();
        votes as f64 / self.trees.len() as f64
    }

    /// Hard prediction at threshold 0.5 (majority vote).
    pub fn predict(&self, x: &[f64]) -> bool {
        self.predict_proba(x) >= 0.5
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The grown trees, for the flattened layout in [`crate::flat`].
    pub(crate) fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Check that every split reads a column of a `width`-feature row,
    /// naming the first tree and node that does not. Model loading runs
    /// this, so a bad feature index fails the load instead of every
    /// later prediction.
    pub fn check_width(&self, width: usize) -> Result<(), String> {
        for (t, tree) in self.trees.iter().enumerate() {
            for (id, node) in tree.nodes().iter().enumerate() {
                if let Node::Split { feature, .. } = node {
                    if *feature >= width {
                        return Err(format!(
                            "tree {t}: node {id}: split feature {feature} is out of range for {width}-feature rows"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_separable(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new();
        for _ in 0..n {
            let x: f64 = rng.random_range(0.0..1.0);
            let noise: f64 = rng.random_range(-0.15..0.15);
            let y: f64 = rng.random_range(0.0..1.0);
            d.push(vec![x, y], x + noise > 0.5);
        }
        d
    }

    #[test]
    fn beats_chance_on_noisy_data() {
        let train = noisy_separable(400, 1);
        let test = noisy_separable(200, 2);
        let rf = RandomForest::fit(
            &train,
            RandomForestConfig {
                n_trees: 32,
                ..Default::default()
            },
        );
        let correct = test
            .features
            .iter()
            .zip(&test.labels)
            .filter(|(x, &y)| rf.predict(x) == y)
            .count();
        let acc = correct as f64 / test.len() as f64;
        assert!(acc > 0.8, "accuracy {acc}");
    }

    #[test]
    fn probabilities_in_unit_interval_and_monotone_signal() {
        let train = noisy_separable(400, 3);
        let rf = RandomForest::fit(&train, RandomForestConfig::default());
        let lo = rf.predict_proba(&[0.05, 0.5]);
        let hi = rf.predict_proba(&[0.95, 0.5]);
        assert!((0.0..=1.0).contains(&lo));
        assert!((0.0..=1.0).contains(&hi));
        assert!(hi > lo, "hi={hi} lo={lo}");
    }

    #[test]
    fn deterministic_given_seed() {
        let train = noisy_separable(100, 4);
        let a = RandomForest::fit(
            &train,
            RandomForestConfig {
                seed: 9,
                ..Default::default()
            },
        );
        let b = RandomForest::fit(
            &train,
            RandomForestConfig {
                seed: 9,
                ..Default::default()
            },
        );
        for x in [[0.3, 0.2], [0.7, 0.9]] {
            assert_eq!(a.predict_proba(&x), b.predict_proba(&x));
        }
    }

    #[test]
    fn class_weighting_improves_minority_score() {
        // 5% positive class concentrated in [0.45, 0.75); same data with
        // and without class weighting.
        let mut rng = StdRng::seed_from_u64(5);
        let mut unweighted = Dataset::new();
        for _ in 0..400 {
            let pos = rng.random_range(0..20) == 0;
            let x: f64 = if pos {
                rng.random_range(0.45..0.75)
            } else {
                rng.random_range(0.0..1.0)
            };
            unweighted.push(vec![x], pos);
        }
        let mut weighted = unweighted.clone();
        weighted.apply_class_weights();
        let rf_u = RandomForest::fit(&unweighted, RandomForestConfig::default());
        let rf_w = RandomForest::fit(&weighted, RandomForestConfig::default());
        // Averaged over in-band points, the weighted forest scores the
        // minority class higher.
        let probe: Vec<f64> = (0..20).map(|i| 0.46 + i as f64 * 0.014).collect();
        let mean = |rf: &RandomForest| {
            probe.iter().map(|&x| rf.predict_proba(&[x])).sum::<f64>() / probe.len() as f64
        };
        assert!(
            mean(&rf_w) > mean(&rf_u),
            "w={} u={}",
            mean(&rf_w),
            mean(&rf_u)
        );
    }

    #[test]
    fn empty_forest_predicts_half() {
        let rf = RandomForest { trees: Vec::new() };
        assert_eq!(rf.predict_proba(&[1.0]), 0.5);
    }

    #[test]
    fn fit_masked_equals_fit_on_zeroed_columns() {
        let train = noisy_separable(300, 7);
        let mut zeroed = train.clone();
        for row in &mut zeroed.features {
            row[1] = 0.0;
        }
        let cfg = RandomForestConfig {
            n_trees: 16,
            seed: 21,
            ..Default::default()
        };
        let via_copy = RandomForest::fit(&zeroed, cfg);
        let via_mask = RandomForest::fit_masked(&train, cfg, |f| f != 1);
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..200 {
            let x = [rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)];
            let zeroed_x = [x[0], 0.0];
            assert_eq!(
                via_mask.predict_proba(&zeroed_x),
                via_copy.predict_proba(&zeroed_x)
            );
            // The masked forest never split on the dropped feature, so its
            // value cannot influence the prediction.
            assert_eq!(
                via_mask.predict_proba(&x),
                via_mask.predict_proba(&zeroed_x)
            );
        }
    }
}

briq_json::json_struct!(RandomForestConfig {
    n_trees,
    tree,
    seed
});

impl briq_json::ToJson for RandomForest {
    fn to_json(&self) -> briq_json::Value {
        briq_json::Value::Object(vec![("trees".to_string(), self.trees.to_json())])
    }
}

// Hand-written so that a malformed tree's error names its index.
impl briq_json::FromJson for RandomForest {
    fn from_json(v: &briq_json::Value) -> briq_json::Result<Self> {
        let trees = v
            .get("trees")
            .and_then(briq_json::Value::as_array)
            .ok_or_else(|| briq_json::JsonError::new("expected RandomForest object with trees"))?;
        let trees = trees
            .iter()
            .enumerate()
            .map(|(t, tree)| {
                DecisionTree::from_json(tree)
                    .map_err(|e| briq_json::JsonError::new(format!("tree {t}: {e}")))
            })
            .collect::<briq_json::Result<_>>()?;
        Ok(RandomForest { trees })
    }
}
