//! The mention-pair classifier (§IV): a class-weighted Random Forest over
//! the 12-feature vectors, with an ablation mask.

use briq_ml::{Dataset, FlatForest, RandomForest, RandomForestConfig};

use crate::features::{FeatureMask, FEATURE_COUNT};

/// A trained mention-pair classifier.
///
/// Scoring runs on a flattened copy of the forest with the ablation mask
/// baked in ([`FlatForest::from_forest_masked`]), so [`PairClassifier::score`]
/// neither copies the feature row nor allocates — bit-identical to the
/// former copy-mask-traverse path. The recursive forest is kept alongside
/// for serialization and diagnostics.
#[derive(Debug, Clone)]
pub struct PairClassifier {
    forest: RandomForest,
    mask: FeatureMask,
    flat: FlatForest,
}

impl PairClassifier {
    /// Train on a dataset of 12-feature vectors. The mask restricts which
    /// features trees may split on and is remembered for scoring — the
    /// training matrix is NOT copied to apply it. Class weights should
    /// already be applied to `data` (see [`Dataset::apply_class_weights`]).
    pub fn train(data: &Dataset, rf: RandomForestConfig, mask: FeatureMask) -> PairClassifier {
        let forest = RandomForest::fit_masked(data, rf, |f| mask.keeps(f));
        Self::from_parts(forest, mask)
    }

    /// Assemble a classifier from a forest and its mask, building the
    /// mask-baked flat scoring layout.
    fn from_parts(forest: RandomForest, mask: FeatureMask) -> PairClassifier {
        let flat = FlatForest::from_forest_masked(&forest, |f| mask.keeps(f));
        PairClassifier { forest, mask, flat }
    }

    /// Confidence that the pair is related, in `[0, 1]`. Allocation-free:
    /// the mask is pre-baked into the flat forest layout.
    pub fn score(&self, features: &[f64]) -> f64 {
        self.flat.predict_proba_slice(features)
    }

    /// The ablation mask in force.
    pub fn mask(&self) -> FeatureMask {
        self.mask
    }

    /// The mask-baked flat scoring layout — the batched entry point for
    /// [`FlatForest::score_block`] and [`FlatForest::score_block_bounded`]
    /// (see [`crate::scoring`]). Scoring through it is bit-identical to
    /// [`PairClassifier::score`] row by row.
    pub fn flat(&self) -> &FlatForest {
        &self.flat
    }

    /// The underlying recursive forest (reference scoring path for the
    /// equivalence suite, and diagnostics).
    pub fn forest(&self) -> &RandomForest {
        &self.forest
    }

    /// Number of trees (diagnostics).
    pub fn n_trees(&self) -> usize {
        self.forest.n_trees()
    }
}

// The serialized form stays `{forest, mask}` exactly as `json_struct!`
// produced before the flat layout existed — the flat layout is derived
// state, rebuilt on deserialization once every split is known to read a
// column of the 12-feature row.
impl briq_json::ToJson for PairClassifier {
    fn to_json(&self) -> briq_json::Value {
        briq_json::Value::Object(vec![
            ("forest".to_string(), self.forest.to_json()),
            ("mask".to_string(), self.mask.to_json()),
        ])
    }
}

impl briq_json::FromJson for PairClassifier {
    fn from_json(v: &briq_json::Value) -> briq_json::Result<Self> {
        let obj = v
            .as_object()
            .ok_or_else(|| briq_json::JsonError::new("expected PairClassifier object"))?;
        let forest: RandomForest = briq_json::field(obj, "forest")?;
        forest
            .check_width(FEATURE_COUNT)
            .map_err(|e| briq_json::JsonError::new(format!("field \"forest\": {e}")))?;
        let mask: FeatureMask = briq_json::field(obj, "mask")?;
        Ok(Self::from_parts(forest, mask))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic pair data: "related" iff value distance (f6 at index 5)
    /// is small and surface similarity (f1 at index 0) is high.
    fn synth(n: usize, seed: u64) -> Dataset {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut d = Dataset::new();
        for _ in 0..n {
            let related = rng.random_bool(0.3);
            let mut row = vec![0.0; FEATURE_COUNT];
            row[0] = if related {
                rng.random_range(0.7..1.0)
            } else {
                rng.random_range(0.0..0.8)
            };
            row[5] = if related {
                rng.random_range(0.0..0.1)
            } else {
                rng.random_range(0.05..1.0)
            };
            row[1] = rng.random_range(0.0..1.0);
            d.push(row, related);
        }
        d.apply_class_weights();
        d
    }

    #[test]
    fn learns_synthetic_signal() {
        let train = synth(500, 1);
        let clf = PairClassifier::train(&train, RandomForestConfig::default(), FeatureMask::all());
        let mut strong = vec![0.0; FEATURE_COUNT];
        strong[0] = 0.95;
        strong[5] = 0.01;
        let mut weak = vec![0.0; FEATURE_COUNT];
        weak[0] = 0.2;
        weak[5] = 0.8;
        assert!(clf.score(&strong) > 0.6, "{}", clf.score(&strong));
        assert!(clf.score(&weak) < 0.4, "{}", clf.score(&weak));
    }

    #[test]
    fn mask_disables_features_at_scoring_time() {
        let train = synth(500, 2);
        let mask = FeatureMask {
            surface: false,
            context: true,
            quantity: false,
        };
        let clf = PairClassifier::train(&train, RandomForestConfig::default(), mask);
        // With surface and quantity masked, the two probe rows that only
        // differ in f1/f6 must score identically.
        let mut a = vec![0.0; FEATURE_COUNT];
        a[0] = 0.95;
        a[5] = 0.01;
        let mut b = vec![0.0; FEATURE_COUNT];
        b[0] = 0.1;
        b[5] = 0.9;
        assert_eq!(clf.score(&a), clf.score(&b));
        assert_eq!(clf.mask(), mask);
    }

    #[test]
    fn flat_scoring_matches_reference_forest_path() {
        let train = synth(500, 4);
        let mask = FeatureMask {
            surface: true,
            context: false,
            quantity: true,
        };
        let clf = PairClassifier::train(&train, RandomForestConfig::default(), mask);
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..300 {
            let row: Vec<f64> = (0..FEATURE_COUNT)
                .map(|_| rng.random_range(0.0..1.0))
                .collect();
            // Reference path: copy, mask, recursive traversal.
            let mut masked = row.clone();
            clf.mask().apply(&mut masked);
            assert_eq!(clf.score(&row), clf.forest().predict_proba(&masked));
        }
    }

    #[test]
    fn json_round_trip_preserves_scores_and_shape() {
        let train = synth(300, 6);
        let mask = FeatureMask {
            surface: false,
            context: true,
            quantity: true,
        };
        let clf = PairClassifier::train(&train, RandomForestConfig::default(), mask);
        let s = briq_json::to_string(&clf);
        assert!(s.contains("\"forest\""));
        assert!(s.contains("\"mask\""));
        assert!(!s.contains("\"flat\""), "derived state must not serialize");
        let back: PairClassifier = briq_json::from_str(&s).expect("round-trips");
        assert_eq!(back.mask(), clf.mask());
        assert_eq!(back.n_trees(), clf.n_trees());
        let probe = vec![0.4; FEATURE_COUNT];
        assert_eq!(back.score(&probe), clf.score(&probe));
        // Round-tripping again yields identical bytes.
        assert_eq!(briq_json::to_string(&back), s);
    }

    #[test]
    fn scores_bounded() {
        let train = synth(200, 3);
        let clf = PairClassifier::train(&train, RandomForestConfig::default(), FeatureMask::all());
        for _ in 0..10 {
            let row = vec![0.5; FEATURE_COUNT];
            let s = clf.score(&row);
            assert!((0.0..=1.0).contains(&s));
        }
    }
}
