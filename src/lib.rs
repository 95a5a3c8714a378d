//! # briq
//!
//! Facade crate for the BriQ reproduction ("Bridging Quantities in Tables
//! and Text", ICDE 2019): re-exports the public API of the workspace
//! crates so applications can depend on a single crate.
//!
//! ```
//! use briq::{Briq, BriqConfig, Document, Table};
//!
//! let briq = Briq::untrained(BriqConfig::default());
//! let doc = Document::new(
//!     0,
//!     "A total of 123 patients reported side effects.",
//!     vec![Table::from_grid(
//!         "",
//!         vec![
//!             vec!["effect".into(), "patients".into()],
//!             vec!["Rash".into(), "35".into()],
//!             vec!["Depression".into(), "88".into()],
//!         ],
//!     )],
//! );
//! for a in briq.align(&doc) {
//!     println!("{} -> {:?} ({:.2})", a.mention_raw, a.target.cells, a.score);
//! }
//! ```

pub use briq_core::{
    baselines, batch, classifier, context, error, evaluate, features, filtering, graph_builder,
    jaro_winkler, mention, pipeline, resolution, tagger, training, AlignOpts, AlignOutput,
    Alignment, BatchConfig, BatchReport, Briq, BriqConfig, BriqError, Budget, DegradedAction,
    Diagnostic, Diagnostics, DocReport, FeatureMask, GoldAlignment, Stage, StageTimings,
    WorkerStats,
};
pub use briq_table::{
    html, segment, stats, virtual_cells, CellRef, Document, Orientation, Table, TableMention,
    TableMentionKind,
};
pub use briq_text::{
    chunker, cues, numparse, pos, quantity, sentence, token, units, AggregationKind,
    ApproxIndicator, QuantityMention, Unit,
};

/// Re-export of the substrate crates for advanced use.
pub mod substrates {
    pub use briq_corpus as corpus;
    pub use briq_graph as graph;
    pub use briq_ml as ml;
}
