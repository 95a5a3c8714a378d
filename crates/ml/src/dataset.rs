//! Feature-matrix dataset with binary labels and instance weights.

/// A supervised binary-classification dataset.
///
/// Features are dense `f64` rows; categorical features are encoded as
/// small integers (trees split numerically, which subsumes one-vs-rest
/// category splits for ordered encodings).
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// Row-major feature matrix.
    pub features: Vec<Vec<f64>>,
    /// Binary labels (`true` = positive / "related").
    pub labels: Vec<bool>,
    /// Per-instance weights (class weighting, §VII-B).
    pub weights: Vec<f64>,
}

impl Dataset {
    /// Create an empty dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one example with weight 1.
    pub fn push(&mut self, features: Vec<f64>, label: bool) {
        self.push_weighted(features, label, 1.0);
    }

    /// Add one weighted example.
    pub fn push_weighted(&mut self, features: Vec<f64>, label: bool, weight: f64) {
        debug_assert!(
            self.features.is_empty() || self.features[0].len() == features.len(),
            "inconsistent feature dimensionality"
        );
        self.features.push(features);
        self.labels.push(label);
        self.weights.push(weight);
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// True when the dataset has no examples.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Number of features per example (0 for an empty dataset).
    pub fn n_features(&self) -> usize {
        self.features.first().map_or(0, Vec::len)
    }

    /// Number of positive examples.
    pub fn n_positive(&self) -> usize {
        self.labels.iter().filter(|&&l| l).count()
    }

    /// Re-weight instances inversely proportional to their class frequency
    /// (§VII-B: "these weights are inversely proportional to the ratio of
    /// the positive or negative labels in the dataset").
    pub fn apply_class_weights(&mut self) {
        let n = self.len() as f64;
        let pos = self.n_positive() as f64;
        let neg = n - pos;
        if pos == 0.0 || neg == 0.0 {
            return;
        }
        let (wp, wn) = (n / (2.0 * pos), n / (2.0 * neg));
        for (w, &l) in self.weights.iter_mut().zip(&self.labels) {
            *w = if l { wp } else { wn };
        }
    }

    /// Select a sub-dataset by example indices (with repetition allowed —
    /// used for bootstrap samples).
    pub fn select(&self, indices: &[usize]) -> Dataset {
        Dataset {
            features: indices.iter().map(|&i| self.features[i].clone()).collect(),
            labels: indices.iter().map(|&i| self.labels[i]).collect(),
            weights: indices.iter().map(|&i| self.weights[i]).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let mut d = Dataset::new();
        d.push(vec![1.0, 0.0], true);
        d.push(vec![0.0, 1.0], false);
        d.push(vec![0.5, 0.5], false);
        d.push(vec![0.9, 0.1], false);
        d
    }

    #[test]
    fn basic_accessors() {
        let d = toy();
        assert_eq!(d.len(), 4);
        assert_eq!(d.n_features(), 2);
        assert_eq!(d.n_positive(), 1);
        assert!(!d.is_empty());
    }

    #[test]
    fn class_weights_balance_total_mass() {
        let mut d = toy();
        d.apply_class_weights();
        let pos_mass: f64 = d
            .weights
            .iter()
            .zip(&d.labels)
            .filter(|(_, &l)| l)
            .map(|(w, _)| w)
            .sum();
        let neg_mass: f64 = d
            .weights
            .iter()
            .zip(&d.labels)
            .filter(|(_, &l)| !l)
            .map(|(w, _)| w)
            .sum();
        assert!((pos_mass - neg_mass).abs() < 1e-9);
        // total mass preserved
        let total: f64 = d.weights.iter().sum();
        assert!((total - 4.0).abs() < 1e-9);
    }

    #[test]
    fn single_class_weighting_is_noop() {
        let mut d = Dataset::new();
        d.push(vec![1.0], true);
        d.push(vec![2.0], true);
        d.apply_class_weights();
        assert_eq!(d.weights, vec![1.0, 1.0]);
    }

    #[test]
    fn select_with_repetition() {
        let d = toy();
        let s = d.select(&[0, 0, 3]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.labels, vec![true, true, false]);
        assert_eq!(s.features[0], s.features[1]);
    }
}
