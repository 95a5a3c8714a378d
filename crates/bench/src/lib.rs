//! # briq-bench
//!
//! Experiment harness reproducing every table of the paper's evaluation
//! (§VIII) on the synthetic corpus, plus the throughput machinery for
//! Table VIII. The `briq-eval` binary drives it; per-layer costs come
//! from the `briq-perf` benchmark (`src/bin/briq-perf/`).

pub mod experiments;
pub mod report;
pub mod throughput;

pub use experiments::{ExperimentSetup, SystemKind};
