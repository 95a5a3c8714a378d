//! Evaluation metrics: precision / recall / F1 and ROC-AUC.
//!
//! §VII-C: "The traditional classifier performance metrics like accuracy
//! … are not informative in our setting with high imbalance … Therefore,
//! we use precision, recall and F1 as major metrics."

/// Precision / recall / F1 triple.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Prf {
    /// TP / (TP + FP); 0 when nothing was predicted positive.
    pub precision: f64,
    /// TP / (TP + FN); 0 when there are no positives.
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
}

impl Prf {
    /// Build from confusion counts.
    pub fn from_counts(tp: usize, fp: usize, fn_: usize) -> Prf {
        let precision = if tp + fp > 0 {
            tp as f64 / (tp + fp) as f64
        } else {
            0.0
        };
        let recall = if tp + fn_ > 0 {
            tp as f64 / (tp + fn_) as f64
        } else {
            0.0
        };
        Prf {
            precision,
            recall,
            f1: f1_from(precision, recall),
        }
    }
}

/// Harmonic mean of precision and recall.
pub fn f1_from(precision: f64, recall: f64) -> f64 {
    if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    }
}

/// Precision/recall/F1 of hard predictions against labels.
pub fn precision_recall_f1(predicted: &[bool], labels: &[bool]) -> Prf {
    assert_eq!(predicted.len(), labels.len());
    let mut tp = 0;
    let mut fp = 0;
    let mut fn_ = 0;
    for (&p, &l) in predicted.iter().zip(labels) {
        match (p, l) {
            (true, true) => tp += 1,
            (true, false) => fp += 1,
            (false, true) => fn_ += 1,
            (false, false) => {}
        }
    }
    Prf::from_counts(tp, fp, fn_)
}

/// Area under the ROC curve via the rank statistic (equivalent to the
/// Mann–Whitney U). Ties get half credit. Returns 0.5 when one class is
/// absent.
pub fn roc_auc(scores: &[f64], labels: &[bool]) -> f64 {
    assert_eq!(scores.len(), labels.len());
    let n_pos = labels.iter().filter(|&&l| l).count();
    let n_neg = labels.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return 0.5;
    }
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| {
        scores[a]
            .partial_cmp(&scores[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    // Average ranks over tied score groups.
    let mut rank_sum_pos = 0.0;
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j < order.len() && scores[order[j]] == scores[order[i]] {
            j += 1;
        }
        let avg_rank = ((i + 1 + j) as f64) / 2.0; // ranks are 1-based
        for &k in &order[i..j] {
            if labels[k] {
                rank_sum_pos += avg_rank;
            }
        }
        i = j;
    }
    let u = rank_sum_pos - (n_pos * (n_pos + 1)) as f64 / 2.0;
    u / (n_pos as f64 * n_neg as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions() {
        let labels = [true, false, true, false];
        let prf = precision_recall_f1(&labels, &labels);
        assert_eq!(
            prf,
            Prf {
                precision: 1.0,
                recall: 1.0,
                f1: 1.0
            }
        );
    }

    #[test]
    fn half_precision() {
        let predicted = [true, true, true, true];
        let labels = [true, true, false, false];
        let prf = precision_recall_f1(&predicted, &labels);
        assert_eq!(prf.precision, 0.5);
        assert_eq!(prf.recall, 1.0);
        assert!((prf.f1 - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn no_positive_predictions() {
        let prf = precision_recall_f1(&[false, false], &[true, false]);
        assert_eq!(prf.precision, 0.0);
        assert_eq!(prf.recall, 0.0);
        assert_eq!(prf.f1, 0.0);
    }

    #[test]
    fn from_counts_matches() {
        assert_eq!(
            Prf::from_counts(3, 1, 2),
            precision_recall_f1(
                &[true, true, true, true, false, false],
                &[true, true, true, false, true, true]
            )
        );
    }

    #[test]
    fn auc_perfect_and_inverted() {
        let scores = [0.1, 0.2, 0.8, 0.9];
        let labels = [false, false, true, true];
        assert_eq!(roc_auc(&scores, &labels), 1.0);
        let inv = [true, true, false, false];
        assert_eq!(roc_auc(&scores, &inv), 0.0);
    }

    #[test]
    fn auc_random_is_half() {
        let scores = [0.5, 0.5, 0.5, 0.5];
        let labels = [true, false, true, false];
        assert_eq!(roc_auc(&scores, &labels), 0.5);
    }

    #[test]
    fn auc_with_ties_partial() {
        let scores = [0.1, 0.5, 0.5, 0.9];
        let labels = [false, true, false, true];
        let auc = roc_auc(&scores, &labels);
        assert!((auc - 0.875).abs() < 1e-12, "{auc}");
    }

    #[test]
    fn auc_degenerate_single_class() {
        assert_eq!(roc_auc(&[0.3, 0.4], &[true, true]), 0.5);
    }
}
