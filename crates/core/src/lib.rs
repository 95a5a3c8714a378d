//! # briq-core
//!
//! The BriQ system ("Bridging Quantities in Tables and Text", ICDE 2019):
//! aligning quantity mentions in text with table cells and virtual cells.
//!
//! The pipeline (§II-B, Fig. 2):
//!
//! 1. **Table-text extraction** (`briq-table` + [`mention`]) — documents,
//!    text mentions, single-cell and virtual-cell table mentions.
//! 2. **Mention-pair classification** ([`features`], [`classifier`],
//!    [`scoring`]) — a class-weighted Random Forest over the 12
//!    judiciously designed features of §IV-B scores every candidate pair,
//!    batched through the bound-based-pruning engine on the alignment
//!    hot path.
//! 3. **Adaptive filtering** ([`tagger`], [`filtering`]) — tag-based
//!    pruning of aggregate candidates, value/unit pruning, and mention-type
//!    and entropy-adaptive top-k selection (§V).
//! 4. **Global resolution** ([`graph_builder`], [`resolution`]) — random
//!    walks with restart over the candidate alignment graph, processing
//!    mentions in increasing entropy order and updating the graph after
//!    every alignment decision (Algorithm 1, §VI).
//!
//! [`pipeline::Briq`] wires the stages together; [`baselines`] provides
//! the two published comparison points (classifier-only RF and
//! random-walk-only RWR).
//!
//! ## Quickstart
//!
//! ```
//! use briq_core::pipeline::{Briq, BriqConfig};
//! use briq_core::training::TrainingExample;
//! # fn main() {
//! // (Training normally uses a corpus; see `briq-corpus`.)
//! let cfg = BriqConfig::default();
//! let briq = Briq::untrained(cfg); // heuristic prior, no learned model
//! let doc = briq_table::Document::new(
//!     0,
//!     "A total of 123 patients reported side effects.",
//!     vec![briq_table::Table::from_grid(
//!         "",
//!         vec![
//!             vec!["effect".into(), "patients".into()],
//!             vec!["Rash".into(), "35".into()],
//!             vec!["Depression".into(), "88".into()],
//!         ],
//!     )],
//! );
//! let alignments = briq.align(&doc);
//! # let _ = alignments;
//! # }
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod baselines;
pub mod batch;
pub mod classifier;
pub mod context;
pub mod error;
pub mod evaluate;
pub mod features;
pub mod filtering;
pub mod graph_builder;
pub mod jaro;
pub mod mention;
pub mod obs;
pub mod pipeline;
pub mod resolution;
pub mod resolution_ilp;
pub mod retrieval;
pub mod scoring;
pub mod serve;
pub mod store;
pub mod tagger;
pub mod training;

pub use batch::{ingest_page, BatchConfig, BatchReport, DocReport, StageTimings, WorkerStats};
pub use error::{
    BriqError, Budget, CancelCause, CancelToken, DegradedAction, Diagnostic, Diagnostics, Stage,
};
pub use features::{FeatureMask, FEATURE_COUNT};
pub use jaro::jaro_winkler;
pub use mention::{Alignment, GoldAlignment};
pub use obs::{DocTrace, MetricsRegistry, Recorder};
pub use pipeline::{AlignOpts, AlignOutput, Briq, BriqConfig};
pub use store::AlignmentStore;
