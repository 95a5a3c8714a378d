//! Seeded random train/validation/test splitting.
//!
//! §VII-B: "The tableS dataset was randomly split into disjoint training
//! (80%), test (10%) and validation sets (10%)."

use rand::prelude::*;
use rand::rngs::StdRng;

/// Index split into train / validation / test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Split {
    /// Training indices.
    pub train: Vec<usize>,
    /// Validation (tuning) indices.
    pub validation: Vec<usize>,
    /// Held-out test indices.
    pub test: Vec<usize>,
}

/// Random split of `n` items by the given fractions (validation gets
/// `val_frac`, test gets `test_frac`, train the rest).
pub fn random_split(n: usize, val_frac: f64, test_frac: f64, seed: u64) -> Split {
    assert!(val_frac >= 0.0 && test_frac >= 0.0 && val_frac + test_frac < 1.0);
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(&mut StdRng::seed_from_u64(seed));
    let n_val = (n as f64 * val_frac).round() as usize;
    let n_test = (n as f64 * test_frac).round() as usize;
    let validation = idx[..n_val].to_vec();
    let test = idx[n_val..n_val + n_test].to_vec();
    let train = idx[n_val + n_test..].to_vec();
    Split {
        train,
        validation,
        test,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn partitions_are_disjoint_and_complete() {
        let s = random_split(100, 0.1, 0.1, 7);
        assert_eq!(s.validation.len(), 10);
        assert_eq!(s.test.len(), 10);
        assert_eq!(s.train.len(), 80);
        let all: BTreeSet<usize> = s
            .train
            .iter()
            .chain(&s.validation)
            .chain(&s.test)
            .copied()
            .collect();
        assert_eq!(all.len(), 100);
    }

    #[test]
    fn deterministic_given_seed() {
        assert_eq!(random_split(50, 0.2, 0.2, 3), random_split(50, 0.2, 0.2, 3));
        assert_ne!(random_split(50, 0.2, 0.2, 3), random_split(50, 0.2, 0.2, 4));
    }

    #[test]
    fn zero_fraction_parts_are_empty() {
        let s = random_split(10, 0.0, 0.0, 1);
        assert!(s.validation.is_empty());
        assert!(s.test.is_empty());
        assert_eq!(s.train.len(), 10);
    }
}
