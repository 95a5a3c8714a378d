//! Error taxonomy, processing budgets, and degraded-mode diagnostics.
//!
//! BriQ runs over scraped web pages, and scraped pages are hostile:
//! unbalanced markup, thousand-column colspan bombs, `1e999` numerics,
//! and tables whose virtual-cell space is quadratic in both dimensions.
//! The pipeline must never panic or hang on such input — it degrades.
//! This module defines the three pieces of that contract:
//!
//! * [`BriqError`] — every substrate failure (table, graph) rolled up
//!   into one document-level taxonomy;
//! * [`Budget`] — hard caps on the super-linear stages (virtual cells per
//!   table, graph edges, RWR iterations);
//! * [`Diagnostics`] — a structured record of every place the pipeline
//!   degraded, one [`Diagnostic`] per skipped/truncated/fallback item,
//!   serializable as JSONL for the `briq-align` CLI.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Unified error type of the BriQ pipeline: one variant per substrate
/// crate plus pipeline-level failures.
#[derive(Debug, Clone, PartialEq)]
pub enum BriqError {
    /// Table modelling or virtual-cell budget failure (`briq-table`).
    Table(briq_table::TableError),
    /// Alignment-graph failure (`briq-graph`).
    Graph(briq_graph::GraphError),
    /// The graph's edge budget was reached during construction;
    /// remaining edges were dropped.
    EdgeBudgetExceeded {
        /// The configured cap.
        max_edges: usize,
    },
    /// A random walk stopped at the iteration cap without meeting its
    /// convergence tolerance.
    RwrNotConverged {
        /// Text-mention index whose walk did not converge.
        mention: usize,
        /// Iterations actually performed.
        iterations: usize,
        /// Residual at the final iteration.
        residual: f64,
    },
    /// A batch worker panicked while aligning one document; the document
    /// was dropped and the rest of the batch completed normally.
    WorkerPanicked {
        /// Batch index of the poisoned document.
        doc: usize,
    },
    /// The request was cancelled cooperatively — its wall-clock deadline
    /// passed or a shutdown drain asked in-flight work to stop. All
    /// partial work is discarded; the document reports zero alignments.
    Cancelled {
        /// Stage at which the cancellation check fired.
        stage: Stage,
        /// Why the request was cancelled.
        cause: CancelCause,
    },
}

impl fmt::Display for BriqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BriqError::Table(e) => write!(f, "table: {e}"),
            BriqError::Graph(e) => write!(f, "graph: {e}"),
            BriqError::EdgeBudgetExceeded { max_edges } => {
                write!(
                    f,
                    "graph edge budget of {max_edges} exceeded, extra edges dropped"
                )
            }
            BriqError::RwrNotConverged {
                mention,
                iterations,
                residual,
            } => write!(
                f,
                "random walk for mention {mention} stopped after {iterations} \
                 iterations with residual {residual:.3e}"
            ),
            BriqError::WorkerPanicked { doc } => {
                write!(
                    f,
                    "batch worker panicked on document {doc}; document skipped"
                )
            }
            BriqError::Cancelled { stage, cause } => {
                write!(
                    f,
                    "request cancelled ({}) during {}; partial work discarded",
                    cause.reason(),
                    stage.name()
                )
            }
        }
    }
}

impl std::error::Error for BriqError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BriqError::Table(e) => Some(e),
            BriqError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<briq_table::TableError> for BriqError {
    fn from(e: briq_table::TableError) -> Self {
        BriqError::Table(e)
    }
}
impl From<briq_graph::GraphError> for BriqError {
    fn from(e: briq_graph::GraphError) -> Self {
        BriqError::Graph(e)
    }
}

/// Hard caps on the pipeline stages whose cost is super-linear in the
/// input. `usize::MAX` everywhere ([`Budget::unlimited`]) reproduces the
/// legacy unbudgeted behaviour bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Virtual-cell candidates generated per table.
    pub max_virtual_cells_per_table: usize,
    /// Edges in the candidate alignment graph.
    pub max_graph_edges: usize,
}

impl Budget {
    /// No caps: identical to the unbudgeted pipeline.
    pub const fn unlimited() -> Budget {
        Budget {
            max_virtual_cells_per_table: usize::MAX,
            max_graph_edges: usize::MAX,
        }
    }
}

impl Default for Budget {
    /// Generous enough that no document of the paper's corpus scale ever
    /// hits a cap, tight enough that adversarial pages stay sub-second.
    fn default() -> Budget {
        Budget {
            max_virtual_cells_per_table: 20_000,
            max_graph_edges: 500_000,
        }
    }
}

/// Pipeline stage where a degradation happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Mention extraction and numeral parsing.
    Extraction,
    /// Virtual-cell generation.
    VirtualCells,
    /// Pair classification and adaptive filtering.
    Classification,
    /// Candidate alignment-graph construction.
    GraphConstruction,
    /// Entropy-ordered random-walk resolution.
    Resolution,
    /// Batch-level scheduling and worker fault isolation.
    Batch,
}

impl Stage {
    /// Stable lower-case stage name, for error messages and wire shapes.
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Extraction => "extraction",
            Stage::VirtualCells => "virtual-cells",
            Stage::Classification => "classification",
            Stage::GraphConstruction => "graph-construction",
            Stage::Resolution => "resolution",
            Stage::Batch => "batch",
        }
    }
}

/// What the pipeline did instead of failing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedAction {
    /// The item was dropped entirely.
    Skipped,
    /// The item was processed with a truncated candidate/edge/iteration
    /// set.
    Truncated,
    /// The item fell back to a cheaper strategy (prior-score ranking).
    Fallback,
    /// The whole request was cancelled (deadline or shutdown drain) and
    /// its partial work discarded.
    Cancelled,
}

/// Why a [`CancelToken`] fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelCause {
    /// The request's wall-clock deadline passed.
    Deadline,
    /// An external cancel flag was raised (shutdown drain, client gone).
    Shutdown,
}

impl CancelCause {
    /// Stable lower-case reason, for error messages and wire shapes.
    pub fn reason(&self) -> &'static str {
        match self {
            CancelCause::Deadline => "deadline exceeded",
            CancelCause::Shutdown => "shutdown drain",
        }
    }
}

/// Cooperative cancellation for one in-flight request: an optional
/// wall-clock deadline plus an optional shared flag an external party
/// (the serve drain, a disconnecting client) can raise at any time.
///
/// The pipeline polls [`CancelToken::cause`] at stage boundaries and at
/// per-mention granularity inside the classify/filter and resolution
/// loops; when it fires, all partial work for the document is discarded
/// and a single `Cancelled` diagnostic is reported instead. A token built
/// with [`CancelToken::none`] (the default on every legacy entry point)
/// never fires, so budgeted and cancellable alignment cannot drift apart.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    deadline: Option<Instant>,
    flag: Option<Arc<AtomicBool>>,
}

impl CancelToken {
    /// A token that never cancels — the default on every classic entry
    /// point; with it, the cancellable pipeline is bit-identical to the
    /// uncancellable one.
    pub const fn none() -> CancelToken {
        CancelToken {
            deadline: None,
            flag: None,
        }
    }

    /// Cancel once the wall clock reaches `deadline`.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken {
            deadline: Some(deadline),
            flag: None,
        }
    }

    /// Cancel after `budget` of wall-clock time from now.
    pub fn deadline_in(budget: Duration) -> CancelToken {
        CancelToken::with_deadline(Instant::now() + budget)
    }

    /// Cancel when `flag` becomes true (e.g. a serve drain raising one
    /// shared flag for every in-flight request).
    pub fn with_flag(flag: Arc<AtomicBool>) -> CancelToken {
        CancelToken {
            deadline: None,
            flag: Some(flag),
        }
    }

    /// This token, additionally cancelled at `deadline`.
    pub fn and_deadline(mut self, deadline: Instant) -> CancelToken {
        self.deadline = Some(deadline);
        self
    }

    /// Why the request should stop, if it should. The external flag wins
    /// over the deadline when both hold, so a drain is reported as a
    /// drain even on requests that were about to time out anyway.
    pub fn cause(&self) -> Option<CancelCause> {
        if let Some(flag) = &self.flag {
            if flag.load(Ordering::Relaxed) {
                return Some(CancelCause::Shutdown);
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Some(CancelCause::Deadline);
            }
        }
        None
    }
}

/// One degraded item: where, what, why, and what was done about it.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stage that degraded.
    pub stage: Stage,
    /// Scope of the degradation, e.g. `table 3` or `mention 7`.
    pub scope: String,
    /// Human-readable error (the `Display` of the underlying
    /// [`BriqError`]).
    pub error: String,
    /// The degraded-mode action taken.
    pub action: DegradedAction,
}

/// Everything that degraded while aligning one document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Diagnostics {
    /// One entry per degraded item, in pipeline order.
    pub items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// Did the document go through without any degradation?
    pub fn is_clean(&self) -> bool {
        self.items.is_empty()
    }

    /// Record a degradation.
    pub fn record(
        &mut self,
        stage: Stage,
        scope: String,
        error: &BriqError,
        action: DegradedAction,
    ) {
        self.items.push(Diagnostic {
            stage,
            scope,
            error: error.to_string(),
            action,
        });
    }

    /// Serialize as JSON Lines: one compact object per diagnostic.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for d in &self.items {
            out.push_str(&briq_json::to_string(d));
            out.push('\n');
        }
        out
    }
}

briq_json::json_unit_enum!(Stage {
    Extraction,
    VirtualCells,
    Classification,
    GraphConstruction,
    Resolution,
    Batch
});
briq_json::json_unit_enum!(DegradedAction {
    Skipped,
    Truncated,
    Fallback,
    Cancelled
});
briq_json::json_struct!(Diagnostic {
    stage,
    scope,
    error,
    action
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_every_variant() {
        let cases: Vec<(BriqError, &str)> = vec![
            (
                BriqError::Table(briq_table::TableError::DegenerateTable { table: 2 }),
                "table: table 2: no data rows or columns",
            ),
            (
                BriqError::Graph(briq_graph::GraphError::NodeOutOfRange { node: 9, len: 3 }),
                "graph: node 9 out of range for graph of 3 nodes",
            ),
            (
                BriqError::EdgeBudgetExceeded { max_edges: 10 },
                "graph edge budget of 10 exceeded, extra edges dropped",
            ),
            (
                BriqError::WorkerPanicked { doc: 12 },
                "batch worker panicked on document 12; document skipped",
            ),
        ];
        for (e, want) in cases {
            assert_eq!(e.to_string(), want);
        }
        let rwr = BriqError::RwrNotConverged {
            mention: 4,
            iterations: 200,
            residual: 0.5,
        };
        let s = rwr.to_string();
        assert!(s.contains("mention 4") && s.contains("200"), "{s}");
    }

    #[test]
    fn from_impls_wrap_substrate_errors() {
        let e: BriqError = briq_graph::GraphError::NodeOutOfRange { node: 1, len: 1 }.into();
        assert!(matches!(e, BriqError::Graph(_)));
        let e: BriqError = briq_table::TableError::VirtualCellBudgetExceeded {
            table: 0,
            max_cells: 5,
        }
        .into();
        assert!(matches!(e, BriqError::Table(_)));
        use std::error::Error as _;
        assert!(e.source().is_some());
    }

    #[test]
    fn unlimited_budget_has_no_caps() {
        let b = Budget::unlimited();
        assert_eq!(b.max_graph_edges, usize::MAX);
        let d = Budget::default();
        assert!(d.max_virtual_cells_per_table < usize::MAX);
    }

    #[test]
    fn diagnostics_jsonl_is_one_object_per_line() {
        let mut diags = Diagnostics::default();
        assert!(diags.is_clean());
        diags.record(
            Stage::VirtualCells,
            "table 0".into(),
            &BriqError::Table(briq_table::TableError::VirtualCellBudgetExceeded {
                table: 0,
                max_cells: 8,
            }),
            DegradedAction::Truncated,
        );
        diags.record(
            Stage::Resolution,
            "mention 3".into(),
            &BriqError::RwrNotConverged {
                mention: 3,
                iterations: 50,
                residual: 1e-2,
            },
            DegradedAction::Fallback,
        );
        assert!(!diags.is_clean());
        let jsonl = diags.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let d: Diagnostic = briq_json::from_str(line).expect("round-trips");
            assert!(!d.error.is_empty());
        }
        assert!(lines[0].contains("VirtualCells") && lines[0].contains("Truncated"));
        assert!(lines[1].contains("Fallback"));
    }

    #[test]
    fn cancel_token_none_never_fires() {
        let t = CancelToken::none();
        assert!(t.cause().is_none());
    }

    #[test]
    fn cancel_token_deadline_fires_exactly_at_the_instant() {
        let future = CancelToken::deadline_in(Duration::from_secs(3600));
        assert!(future.cause().is_none());
        let past = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(past.cause(), Some(CancelCause::Deadline));
    }

    #[test]
    fn cancel_token_flag_fires_and_wins_over_deadline() {
        let flag = Arc::new(AtomicBool::new(false));
        let t = CancelToken::with_flag(flag.clone())
            .and_deadline(Instant::now() - Duration::from_millis(1));
        // Deadline already passed, flag not raised: deadline cause.
        assert_eq!(t.cause(), Some(CancelCause::Deadline));
        flag.store(true, Ordering::SeqCst);
        // Both hold: the external flag wins.
        assert_eq!(t.cause(), Some(CancelCause::Shutdown));
    }

    #[test]
    fn cancelled_error_display_names_stage_and_cause() {
        let e = BriqError::Cancelled {
            stage: Stage::Resolution,
            cause: CancelCause::Deadline,
        };
        let s = e.to_string();
        assert!(
            s.contains("deadline exceeded") && s.contains("resolution"),
            "{s}"
        );
        let e = BriqError::Cancelled {
            stage: Stage::Extraction,
            cause: CancelCause::Shutdown,
        };
        assert!(e.to_string().contains("shutdown drain"));
    }

    #[test]
    fn cancelled_diagnostic_round_trips_as_jsonl() {
        let mut diags = Diagnostics::default();
        diags.record(
            Stage::Classification,
            "document".into(),
            &BriqError::Cancelled {
                stage: Stage::Classification,
                cause: CancelCause::Deadline,
            },
            DegradedAction::Cancelled,
        );
        let jsonl = diags.to_jsonl();
        let d: Diagnostic = briq_json::from_str(jsonl.trim()).expect("round-trips");
        assert_eq!(d.action, DegradedAction::Cancelled);
        assert_eq!(d.stage, Stage::Classification);
    }
}
