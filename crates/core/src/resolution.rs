//! Global resolution by entropy-ordered random walks (Algorithm 1, §VI-B).
//!
//! Text mentions are processed in increasing entropy of their candidate
//! score distributions — easy decisions first. Each decision updates the
//! graph: the chosen text-table edge is kept, all competing edges of that
//! mention are deleted, so later (harder) walks benefit from the added
//! knowledge. A mention whose best `OverallScore` falls below `ε` is left
//! unaligned (the mapping is partial, §II-A).

use briq_graph::{
    try_random_walk_with_restart, ConvergenceReport, CsrGraph, CsrScratch, GraphError, RwrConfig,
};
use briq_ml::entropy::normalized_entropy;

use crate::filtering::Candidate;
use crate::graph_builder::AlignmentGraph;

/// Resolution parameters (Eq. 1 and Algorithm 1).
#[derive(Debug, Clone, Copy)]
pub struct ResolutionConfig {
    /// Weight α of the stationary probability π(t|x).
    pub alpha: f64,
    /// Weight β of the classifier prior σ(t|x).
    pub beta: f64,
    /// Acceptance threshold ε on the overall score.
    pub epsilon: f64,
    /// Additional acceptance floor on the classifier prior σ(t*|x): the
    /// candidate-normalized π̂ always sums to 1 over the candidates, so a
    /// mention with a single weak candidate would pass any ε on π̂ alone.
    /// The σ floor restores the paper's partial-mapping behaviour for
    /// unalignable mentions (tuned on validation like ε).
    pub sigma_min: f64,
    /// Restart probability of the walk.
    pub restart: f64,
    /// Convergence bound of the walk.
    pub tolerance: f64,
    /// Iteration cap of the walk.
    pub max_iterations: usize,
    /// Run walks on the frozen CSR kernel ([`briq_graph::csr`],
    /// DESIGN.md §14). `false` selects the resolution reference path: the
    /// dense walk that rebuilds transition lists per walk and mutates the
    /// adjacency graph. Output is bit-identical either way.
    pub use_csr: bool,
}

impl Default for ResolutionConfig {
    fn default() -> Self {
        ResolutionConfig {
            alpha: 0.5,
            beta: 0.5,
            epsilon: 0.12,
            sigma_min: 0.1,
            restart: 0.12,
            tolerance: 1e-8,
            max_iterations: 100,
            use_csr: true,
        }
    }
}

/// One resolved alignment: `(text mention, table-mention index, score)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resolved {
    /// Text-mention index.
    pub mention: usize,
    /// Table-mention index (into the document's target list).
    pub target: usize,
    /// The final `OverallScore`.
    pub score: f64,
}

/// A degraded-mode event from [`resolve_budgeted`].
#[derive(Debug, Clone, PartialEq)]
pub enum ResolutionEvent {
    /// The mention's walk hit the iteration cap before meeting the
    /// tolerance; its (approximate) stationary vector was still used.
    NotConverged {
        /// Text-mention index.
        mention: usize,
        /// The walk's convergence report.
        report: ConvergenceReport,
    },
    /// The walk itself failed; the mention was decided by classifier
    /// prior alone.
    PriorFallback {
        /// Text-mention index.
        mention: usize,
        /// The underlying graph error.
        error: GraphError,
    },
    /// The request's [`CancelToken`](crate::error::CancelToken) fired
    /// mid-resolution: every resolved alignment so far was discarded and
    /// resolution stopped. This is always the final (and only surviving)
    /// event of a cancelled run.
    Cancelled {
        /// Why the token fired.
        cause: crate::error::CancelCause,
    },
}

/// Run Algorithm 1. `candidates[i]` are the surviving candidates of text
/// mention `i` (their `target` indexes the document's table mentions).
/// The graph is consumed (edges are deleted as decisions are made).
pub fn resolve(
    ag: AlignmentGraph,
    candidates: &[Vec<Candidate>],
    cfg: &ResolutionConfig,
) -> Vec<Resolved> {
    resolve_budgeted(ag, candidates, cfg, usize::MAX).0
}

/// Budgeted Algorithm 1 with per-mention fault isolation. The walk's
/// iteration cap is `cfg.max_iterations` tightened to
/// `max_rwr_iterations`; a walk that fails outright demotes its mention
/// to prior-score ranking instead of aborting the document. Returns the
/// resolved alignments plus one [`ResolutionEvent`] per degraded
/// mention. With an unlimited budget this is bit-identical to the
/// classic [`resolve`].
pub fn resolve_budgeted(
    ag: AlignmentGraph,
    candidates: &[Vec<Candidate>],
    cfg: &ResolutionConfig,
    max_rwr_iterations: usize,
) -> (Vec<Resolved>, Vec<ResolutionEvent>) {
    resolve_observed(
        ag,
        candidates,
        cfg,
        max_rwr_iterations,
        &crate::obs::Recorder::disabled(),
        &crate::error::CancelToken::none(),
    )
}

/// [`resolve_budgeted`] with per-walk observability and cooperative
/// cancellation: every random walk counts into `rwr_walks`, its
/// power-iteration count feeds the `rwr_iterations` histogram, and
/// capped/failed walks increment `rwr_not_converged` / `rwr_fallbacks`.
/// The `cancel` token is polled before every walk; when it fires, all
/// partial resolutions are discarded and a single
/// [`ResolutionEvent::Cancelled`] is returned. The recorder only
/// observes, and a [`CancelToken::none`](crate::error::CancelToken::none)
/// never fires — with both defaulted this *is* [`resolve_budgeted`],
/// bit for bit.
pub fn resolve_observed(
    mut ag: AlignmentGraph,
    candidates: &[Vec<Candidate>],
    cfg: &ResolutionConfig,
    max_rwr_iterations: usize,
    rec: &crate::obs::Recorder,
    cancel: &crate::error::CancelToken,
) -> (Vec<Resolved>, Vec<ResolutionEvent>) {
    use crate::obs::names;
    let m = candidates.len();

    // Entropy of each mention's prior distribution; ascending order.
    let mut order: Vec<usize> = (0..m).filter(|&i| !candidates[i].is_empty()).collect();
    let entropy: Vec<f64> = (0..m)
        .map(|i| {
            let scores: Vec<f64> = candidates[i].iter().map(|c| c.score).collect();
            normalized_entropy(&scores)
        })
        .collect();
    order.sort_by(|&a, &b| {
        entropy[a]
            .partial_cmp(&entropy[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let rwr = RwrConfig {
        restart: cfg.restart,
        tolerance: cfg.tolerance,
        max_iterations: cfg.max_iterations.min(max_rwr_iterations),
    };

    // Walk backend: the CSR kernel freezes the graph once and models
    // Algorithm 1's edge deletions by weight-zeroing; the dense reference
    // (`use_csr: false`) mutates the adjacency graph. Bit-identical by the
    // §14 equivalence contract, proven by the CSR proptests and per run by
    // CI's `--oracle` byte-compare.
    let mut csr = cfg.use_csr.then(|| CsrGraph::from_graph(&ag.graph));
    if let Some(c) = &csr {
        rec.count(names::CSR_NNZ, c.nnz() as u64);
    }
    // One set of walk buffers for the whole document: the first walk
    // sizes them, later walks allocate nothing.
    let mut scratch = CsrScratch::default();
    let mut dense_pi: Vec<f64> = Vec::new();

    let mut out = Vec::new();
    let mut events = Vec::new();
    for &x in &order {
        // Cooperative cancellation at per-mention granularity: a fired
        // token discards everything resolved so far (no partial state
        // escapes a cancelled request) and stops immediately.
        if let Some(cause) = cancel.cause() {
            return (Vec::new(), vec![ResolutionEvent::Cancelled { cause }]);
        }
        // Per-mention fault isolation: a failed walk demotes this mention
        // to prior-only scoring; it never takes the document down.
        rec.count(names::RWR_WALKS, 1);
        let walked = match &csr {
            Some(c) => c.walk_into(ag.text_nodes[x], &rwr, &mut scratch),
            None => match try_random_walk_with_restart(&ag.graph, ag.text_nodes[x], &rwr) {
                Ok((p, report)) => {
                    dense_pi = p;
                    Ok(report)
                }
                Err(e) => Err(e),
            },
        };
        let pi: Option<&[f64]> = match walked {
            Ok(report) => {
                rec.observe(names::RWR_ITERATIONS, report.iterations as f64);
                rec.count(names::RWR_MATVEC_ITERATIONS, report.iterations as u64);
                if !report.converged {
                    rec.count(names::RWR_NOT_CONVERGED, 1);
                    events.push(ResolutionEvent::NotConverged { mention: x, report });
                }
                Some(if csr.is_some() {
                    scratch.distribution()
                } else {
                    &dense_pi
                })
            }
            Err(error) => {
                rec.count(names::RWR_FALLBACKS, 1);
                events.push(ResolutionEvent::PriorFallback { mention: x, error });
                None
            }
        };
        // Normalize π over the candidate set: its raw magnitude depends on
        // how many nodes the walk spreads over, while σ is always a
        // probability in [0, 1]. Without this, the α/β mix of Eq. 1 would
        // weigh the walk differently in small and large documents.
        let pi_total: f64 = match &pi {
            Some(pi) => candidates[x]
                .iter()
                .filter_map(|c| ag.table_node(c.target).map(|tn| pi[tn]))
                .sum(),
            None => 0.0,
        };
        let mut best: Option<(usize, f64, f64)> = None;
        for c in &candidates[x] {
            let Some(tn) = ag.table_node(c.target) else {
                continue;
            };
            let score = match &pi {
                Some(pi) => {
                    let pi_hat = if pi_total > 0.0 {
                        pi[tn] / pi_total
                    } else {
                        0.0
                    };
                    cfg.alpha * pi_hat + cfg.beta * c.score
                }
                // Prior-score fallback: rank by σ alone so the ε gate
                // still compares against a [0, 1] probability.
                None => c.score,
            };
            if best.is_none_or(|(_, s, _)| score > s) {
                best = Some((c.target, score, c.score));
            }
        }
        match best {
            Some((t_star, score, sigma)) if score > cfg.epsilon && sigma >= cfg.sigma_min => {
                // Keep only the chosen edge.
                for c in &candidates[x] {
                    if c.target != t_star {
                        if let Some(tn) = ag.table_node(c.target) {
                            match &mut csr {
                                Some(cg) => {
                                    cg.zero_edge(ag.text_nodes[x], tn);
                                }
                                None => {
                                    ag.graph.remove_edge(ag.text_nodes[x], tn);
                                }
                            }
                        }
                    }
                }
                out.push(Resolved {
                    mention: x,
                    target: t_star,
                    score,
                });
            }
            _ => {
                // No alignment: drop all text-table edges of x.
                for c in &candidates[x] {
                    if let Some(tn) = ag.table_node(c.target) {
                        match &mut csr {
                            Some(cg) => {
                                cg.zero_edge(ag.text_nodes[x], tn);
                            }
                            None => {
                                ag.graph.remove_edge(ag.text_nodes[x], tn);
                            }
                        }
                    }
                }
            }
        }
    }
    out.sort_by_key(|r| r.mention);
    (out, events)
}

// Hand-written (not `json_struct!`) so `use_csr` can default to `true`
// on model files serialized before the field existed.
impl briq_json::ToJson for ResolutionConfig {
    fn to_json(&self) -> briq_json::Value {
        briq_json::Value::Object(vec![
            ("alpha".to_string(), self.alpha.to_json()),
            ("beta".to_string(), self.beta.to_json()),
            ("epsilon".to_string(), self.epsilon.to_json()),
            ("sigma_min".to_string(), self.sigma_min.to_json()),
            ("restart".to_string(), self.restart.to_json()),
            ("tolerance".to_string(), self.tolerance.to_json()),
            ("max_iterations".to_string(), self.max_iterations.to_json()),
            ("use_csr".to_string(), self.use_csr.to_json()),
        ])
    }
}
impl briq_json::FromJson for ResolutionConfig {
    fn from_json(v: &briq_json::Value) -> briq_json::Result<Self> {
        let obj = v
            .as_object()
            .ok_or_else(|| briq_json::JsonError::new("expected ResolutionConfig object"))?;
        Ok(ResolutionConfig {
            alpha: briq_json::field(obj, "alpha")?,
            beta: briq_json::field(obj, "beta")?,
            epsilon: briq_json::field(obj, "epsilon")?,
            sigma_min: briq_json::field(obj, "sigma_min")?,
            restart: briq_json::field(obj, "restart")?,
            tolerance: briq_json::field(obj, "tolerance")?,
            max_iterations: briq_json::field(obj, "max_iterations")?,
            use_csr: briq_json::field_or(obj, "use_csr", true)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph_builder::{build_graph, GraphConfig};
    use crate::mention::TextMention;
    use briq_table::{TableMention, TableMentionKind};
    use briq_text::quantity::QuantityMention;
    use briq_text::units::Unit;

    fn mention(id: usize, value: f64, start: usize) -> TextMention {
        TextMention {
            id,
            quantity: QuantityMention {
                raw: format!("{value}"),
                value,
                unnormalized: value,
                unit: Unit::None,
                precision: 0,
                approx: Default::default(),
                start,
                end: start + 3,
            },
        }
    }

    fn cell(table: usize, r: usize, c: usize, value: f64) -> TableMention {
        TableMention {
            table,
            kind: TableMentionKind::SingleCell,
            cells: vec![(r, c)],
            value,
            unnormalized: value,
            raw: format!("{value}"),
            unit: Unit::None,
            precision: 0,
            orientation: None,
        }
    }

    /// The Fig. 3 situation: mention "11" matches cells in two tables;
    /// a second unambiguous mention "60" pulls the walk toward table 0.
    fn coupled() -> (
        Vec<TextMention>,
        Vec<usize>,
        Vec<TableMention>,
        Vec<Vec<Candidate>>,
    ) {
        let mentions = vec![mention(0, 11.0, 0), mention(1, 60.0, 8)];
        let targets = vec![
            cell(0, 1, 1, 11.0), // table 0 "11"
            cell(0, 2, 1, 60.0), // table 0 "60" — same column
            cell(1, 1, 1, 11.0), // table 1 "11" (ambiguous twin)
            cell(1, 2, 1, 110.0),
        ];
        let candidates = vec![
            vec![
                Candidate {
                    target: 0,
                    score: 0.5,
                },
                Candidate {
                    target: 2,
                    score: 0.5,
                },
            ],
            vec![Candidate {
                target: 1,
                score: 0.9,
            }],
        ];
        (mentions, vec![0, 2], targets, candidates)
    }

    #[test]
    fn joint_inference_disambiguates_tied_priors() {
        let (mentions, pos, targets, candidates) = coupled();
        let ag = build_graph(
            &mentions,
            &pos,
            10,
            &targets,
            &candidates,
            &GraphConfig::default(),
        );
        let out = resolve(ag, &candidates, &ResolutionConfig::default());
        // Mention 1 ("60") resolves first (zero entropy), strengthening
        // table 0; mention 0 must then choose table 0's "11".
        let m0 = out
            .iter()
            .find(|r| r.mention == 0)
            .expect("mention 0 aligned");
        assert_eq!(m0.target, 0, "{out:?}");
    }

    #[test]
    fn epsilon_leaves_weak_mentions_unaligned() {
        let (mentions, pos, targets, candidates) = coupled();
        let ag = build_graph(
            &mentions,
            &pos,
            10,
            &targets,
            &candidates,
            &GraphConfig::default(),
        );
        let cfg = ResolutionConfig {
            epsilon: 10.0,
            ..Default::default()
        };
        let out = resolve(ag, &candidates, &cfg);
        assert!(out.is_empty());
    }

    #[test]
    fn empty_candidates_skipped() {
        let (mentions, pos, targets, mut candidates) = coupled();
        candidates[0].clear();
        let ag = build_graph(
            &mentions,
            &pos,
            10,
            &targets,
            &candidates,
            &GraphConfig::default(),
        );
        let out = resolve(ag, &candidates, &ResolutionConfig::default());
        assert!(out.iter().all(|r| r.mention == 1));
    }

    #[test]
    fn results_sorted_by_mention() {
        let (mentions, pos, targets, candidates) = coupled();
        let ag = build_graph(
            &mentions,
            &pos,
            10,
            &targets,
            &candidates,
            &GraphConfig::default(),
        );
        let out = resolve(ag, &candidates, &ResolutionConfig::default());
        for w in out.windows(2) {
            assert!(w[0].mention < w[1].mention);
        }
    }

    #[test]
    fn unlimited_budget_matches_classic_resolve() {
        let (mentions, pos, targets, candidates) = coupled();
        let cfg = ResolutionConfig::default();
        let gcfg = GraphConfig::default();
        let ag1 = build_graph(&mentions, &pos, 10, &targets, &candidates, &gcfg);
        let ag2 = build_graph(&mentions, &pos, 10, &targets, &candidates, &gcfg);
        let classic = resolve(ag1, &candidates, &cfg);
        let (budgeted, events) = resolve_budgeted(ag2, &candidates, &cfg, usize::MAX);
        assert_eq!(classic, budgeted);
        // Slow convergence may be reported, but nothing falls back: the
        // unlimited-budget path takes exactly the classic decisions.
        assert!(
            events
                .iter()
                .all(|e| matches!(e, ResolutionEvent::NotConverged { .. })),
            "{events:?}"
        );
    }

    #[test]
    fn iteration_cap_reports_non_convergence_without_panicking() {
        let (mentions, pos, targets, candidates) = coupled();
        let ag = build_graph(
            &mentions,
            &pos,
            10,
            &targets,
            &candidates,
            &GraphConfig::default(),
        );
        let cfg = ResolutionConfig {
            tolerance: 0.0,
            ..Default::default()
        };
        let (_, events) = resolve_budgeted(ag, &candidates, &cfg, 1);
        // With a zero tolerance and a single allowed iteration, every
        // mention's walk stops early and says so.
        assert!(!events.is_empty());
        for ev in &events {
            match ev {
                ResolutionEvent::NotConverged { report, .. } => {
                    assert_eq!(report.iterations, 1);
                    assert!(!report.converged);
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    #[test]
    fn single_candidate_mention_aligns_directly() {
        let mentions = vec![mention(0, 42.0, 0)];
        let targets = vec![cell(0, 1, 1, 42.0)];
        let candidates = vec![vec![Candidate {
            target: 0,
            score: 0.8,
        }]];
        let ag = build_graph(
            &mentions,
            &[0],
            5,
            &targets,
            &candidates,
            &GraphConfig::default(),
        );
        let out = resolve(ag, &candidates, &ResolutionConfig::default());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].target, 0);
        assert!(out[0].score > 0.0);
    }
}
