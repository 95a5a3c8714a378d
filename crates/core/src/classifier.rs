//! The mention-pair classifier (§IV): a class-weighted Random Forest over
//! the 12-feature vectors, with an ablation mask.
//!
//! Scoring runs on flat layouts of the forest (DESIGN.md §9): the plain
//! one, with the mask baked in, and — built on the first call to
//! `PairClassifier::row_layouts`, which the alignment engine makes on
//! its first trained mention — one layout per row class the engine can
//! read off a filled row before walking it (`RowLayouts`, DESIGN.md §10).

use std::sync::OnceLock;

use briq_ml::{Dataset, FlatForest, Known, RandomForest, RandomForestConfig};

use crate::features::{FeatureMask, FEATURE_COUNT};

/// Row index of f6, the relative value difference the filter's near/far
/// split compares against `value_diff_threshold`.
const F6: usize = 5;
/// Row index of f8, the unit match code.
const F8: usize = 7;
/// Row index of f12, the aggregate-function match code.
const F12: usize = 11;
/// f8 codes a retrieved row can carry: `StrongMatch`, `WeakMatch`,
/// `WeakMismatch`. Retrieval never hands over `StrongMismatch` (3).
const UNIT_CODES: usize = 3;
/// f12 codes: all four match degrees.
const AGG_CODES: usize = 4;

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
    /// Built on first use, never serialized.
    row_layouts: OnceLock<RowLayouts>,
}

/// Flat layouts of one classifier's forest, one per class of feature row:
/// the near or far side of the f6 split (`f6 <= split` or `f6 > split`)
/// × the f8 unit-match code (0–2) × the f12 aggregate-match code (0–3),
/// each with the mask baked in as well ([`FlatForest::from_forest_known`]).
/// A row's class is read off the row itself, so scoring a row through
/// [`RowLayouts::pick`]'s layout is exact for any row: every tree votes as
/// it does in the plain layout, and a row no layout was built for takes
/// the plain one.
#[derive(Debug, Clone)]
pub(crate) struct RowLayouts {
    /// The f6 value the near/far sides were split at.
    split: f64,
    /// Indexed by `(far * UNIT_CODES + f8) * AGG_CODES + f12`.
    layouts: Vec<FlatForest>,
}

impl RowLayouts {
    fn build(forest: &RandomForest, mask: FeatureMask, split: f64) -> RowLayouts {
        let mut layouts = Vec::with_capacity(2 * UNIT_CODES * AGG_CODES);
        for far in [false, true] {
            for unit in 0..UNIT_CODES {
                for agg in 0..AGG_CODES {
                    layouts.push(FlatForest::from_forest_known(forest, |f| match f {
                        // A masked feature reads 0.0 whatever the row holds.
                        _ if !mask.keeps(f) => Some(Known::Equals(0.0)),
                        F6 if far => Some(Known::Above(split)),
                        F6 => Some(Known::AtMost(split)),
                        F8 => Some(Known::Equals(unit as f64)),
                        F12 => Some(Known::Equals(agg as f64)),
                        _ => None,
                    }));
                }
            }
        }
        RowLayouts { split, layouts }
    }

    /// The layout built for `row`'s class, or `None` — score through the
    /// plain layout — when its f6 is NaN or its f8 or f12 is not a code a
    /// layout was built for.
    pub(crate) fn pick(&self, row: &[f64]) -> Option<&FlatForest> {
        let far = if row[F6] <= self.split {
            0
        } else if row[F6] > self.split {
            1
        } else {
            return None;
        };
        let unit = code(row[F8], UNIT_CODES)?;
        let agg = code(row[F12], AGG_CODES)?;
        self.layouts
            .get((far * UNIT_CODES + unit) * AGG_CODES + agg)
    }
}

/// `v` as a code below `n`, when it is exactly one.
fn code(v: f64, n: usize) -> Option<usize> {
    // `as` saturates (NaN reads 0), so the round trip rejects everything
    // but the exact codes.
    let c = v as usize;
    (c < n && c as f64 == v).then_some(c)
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
        PairClassifier {
            forest,
            mask,
            flat,
            row_layouts: OnceLock::new(),
        }
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

    /// The mask-baked flat scoring layout — the entry point for
    /// [`FlatForest::score_block`] on the reference paths, and the bound
    /// [`FlatForest::score_bounded`] reads in [`crate::scoring`]. Scoring
    /// through it is bit-identical to [`PairClassifier::score`] row by row.
    pub fn flat(&self) -> &FlatForest {
        &self.flat
    }

    /// The per-class layouts. The first call builds them with the near/far
    /// sides split at `split` (a few ms and ~1.5 MB for a 128-tree model);
    /// later calls return those, whatever `split` they pass — a row is
    /// classed against the split its layouts were built at, so a moved
    /// `value_diff_threshold` costs speed, never exactness.
    pub(crate) fn row_layouts(&self, split: f64) -> &RowLayouts {
        self.row_layouts
            .get_or_init(|| RowLayouts::build(&self.forest, self.mask, split))
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

    /// A row with the given f6, f8 and f12, every other feature `fill`.
    fn class_row(f6: f64, f8: f64, f12: f64, fill: f64) -> Vec<f64> {
        let mut row = vec![fill; FEATURE_COUNT];
        (row[F6], row[F8], row[F12]) = (f6, f8, f12);
        row
    }

    #[test]
    fn pick_takes_the_plain_layout_off_the_codes() {
        let clf = PairClassifier::train(
            &synth(300, 7),
            RandomForestConfig::default(),
            FeatureMask::all(),
        );
        let layouts = clf.row_layouts(0.35);
        assert!(layouts.pick(&class_row(0.1, 2.0, 3.0, 0.5)).is_some());
        assert!(layouts.pick(&class_row(0.35, -0.0, 0.0, 0.5)).is_some());
        for row in [
            class_row(f64::NAN, 0.0, 0.0, 0.5),
            class_row(0.1, 3.0, 0.0, 0.5),
            class_row(0.1, 1.5, 0.0, 0.5),
            class_row(0.1, 0.0, 2.5, 0.5),
            class_row(0.1, -1.0, 0.0, 0.5),
            class_row(0.1, 0.0, 4.0, 0.5),
            class_row(0.1, f64::NAN, 0.0, 0.5),
            class_row(0.1, 0.0, f64::INFINITY, 0.5),
        ] {
            assert!(layouts.pick(&row).is_none(), "{row:?}");
        }
    }

    #[test]
    fn row_layouts_are_built_once_and_cloned() {
        let clf = PairClassifier::train(
            &synth(300, 8),
            RandomForestConfig::default(),
            FeatureMask::all(),
        );
        let first = clf.row_layouts(0.35);
        assert!(std::ptr::eq(first, clf.row_layouts(0.9)));
        assert_eq!(clf.clone().row_layouts(0.9).split, 0.35);
        // 0.5 is on the far side of the split the layouts were built at.
        let picked = first.pick(&class_row(0.5, 0.0, 1.0, 0.5));
        assert!(picked.is_some_and(|l| std::ptr::eq(l, &first.layouts[UNIT_CODES * AGG_CODES + 1])));
    }

    #[test]
    fn picked_layouts_vote_as_the_plain_one() {
        use rand::prelude::*;
        let train = synth(500, 9);
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        for mask in [
            FeatureMask::all(),
            FeatureMask {
                context: false,
                ..FeatureMask::all()
            },
            FeatureMask {
                quantity: false,
                ..FeatureMask::all()
            },
        ] {
            let clf = PairClassifier::train(&train, RandomForestConfig::default(), mask);
            let layouts = clf.row_layouts(0.05);
            for i in 0..600 {
                let mut row: Vec<f64> = (0..FEATURE_COUNT)
                    .map(|_| rng.random_range(0.0..1.0))
                    .collect();
                row[F6] = if i % 7 == 0 { 0.05 } else { row[F6] * 0.2 };
                row[F8] = rng.random_range(0..UNIT_CODES) as f64;
                row[F12] = rng.random_range(0..AGG_CODES) as f64;
                let layout = layouts.pick(&row).expect("every code has a layout");
                for t in 0..clf.n_trees() {
                    assert_eq!(layout.tree_vote(t, &row), clf.flat().tree_vote(t, &row));
                }
                assert_eq!(layout.predict_proba_slice(&row), clf.score(&row));
            }
        }
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
