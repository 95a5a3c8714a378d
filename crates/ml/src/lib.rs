//! # briq-ml
//!
//! Machine-learning substrate for BriQ, built from scratch:
//!
//! * [`tree`] / [`forest`] — CART decision trees and a class-weighted
//!   Random Forest with calibrated vote-fraction probabilities (§IV-A; the
//!   original system used R `caret` via rpy2),
//! * [`flat`] — flattened preorder forest layout for allocation-free
//!   scoring on the classify hot path,
//! * [`dataset`] — feature-matrix container with instance weights and the
//!   class-imbalance weighting of §VII-B,
//! * [`metrics`] — precision/recall/F1 and ROC-AUC (the paper optimizes
//!   for AUC, §VII-B),
//! * [`entropy`] — Shannon entropy of score distributions (adaptive
//!   filtering §V-B and entropy-ordered resolution §VI-B),
//! * [`kappa`] — Fleiss' kappa for inter-annotator agreement (§VII-A),
//! * [`split`] — seeded random train/validation/test splitting,
//! * [`gridsearch`] — exhaustive hyper-parameter grid search (§VII-C).

#![warn(missing_docs)]

pub mod analysis;
pub mod dataset;
pub mod entropy;
pub mod flat;
pub mod forest;
pub mod gridsearch;
pub mod kappa;
pub mod metrics;
pub mod split;
pub mod tree;

pub use analysis::{calibration_curve, expected_calibration_error, permutation_importance};
pub use dataset::Dataset;
pub use entropy::shannon_entropy;
pub use flat::{FlatForest, Known};
pub use forest::{RandomForest, RandomForestConfig};
pub use kappa::fleiss_kappa;
pub use metrics::{precision_recall_f1, roc_auc, Prf};
pub use tree::{DecisionTree, TreeConfig};
