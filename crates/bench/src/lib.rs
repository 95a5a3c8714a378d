//! # briq-bench
//!
//! Experiment harness reproducing every table of the paper's evaluation
//! (§VIII) on the synthetic corpus, plus the throughput machinery for
//! Table VIII. The `briq-eval` binary drives it; per-layer costs come
//! from the `briq-perf` benchmark (`src/bin/briq-perf/`). [`cli`] is the
//! one command-line front end of `briq-eval`, `briq-align` and
//! `briq-serve`.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cli;
pub mod experiments;
pub mod report;
pub mod throughput;

pub use experiments::{ExperimentSetup, SystemKind};
