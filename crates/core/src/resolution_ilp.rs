//! Exact joint resolution by branch-and-bound — the ILP alternative the
//! paper evaluated and abandoned (§VI: "We also considered an alternative
//! algorithm based on constraint reasoning with Integer Linear Programming
//! (ILP) and experimented with it, but that approach did not scale
//! sufficiently well").
//!
//! The program assigns to each text mention at most one candidate,
//! maximizing
//!
//! ```text
//!   Σ σ(x, t(x))                        (local priors)
//! + λ_tbl · Σ_{x≠y} [table(t(x)) = table(t(y))]   (table coherence)
//! + λ_line · Σ_{x≠y} [t(x), t(y) share a row/col] (line coherence)
//! ```
//!
//! subject to: distinct mentions may not claim the same single cell.
//! Branch-and-bound explores mention assignments in candidate order with
//! an admissible upper bound; it is exact, and exponential in the worst
//! case — `briq-eval ilp` demonstrates the scaling gap against the
//! random-walk resolution.

use briq_table::{TableMention, TableMentionKind};

use crate::filtering::Candidate;

/// ILP-resolution parameters.
#[derive(Debug, Clone, Copy)]
pub struct IlpConfig {
    /// Bonus for two assigned targets in the same table.
    pub table_coherence: f64,
    /// Bonus for two assigned targets sharing a row or column.
    pub line_coherence: f64,
    /// Minimum prior for the "leave unaligned" decision to lose; mirrors
    /// the ε of Algorithm 1.
    pub epsilon: f64,
    /// Hard cap on explored nodes (returns the best-so-far when hit).
    pub node_budget: usize,
}

impl Default for IlpConfig {
    fn default() -> Self {
        IlpConfig {
            table_coherence: 0.05,
            line_coherence: 0.08,
            epsilon: 0.12,
            node_budget: 2_000_000,
        }
    }
}

/// Result of an exact resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct IlpSolution {
    /// Per mention: chosen table-mention index (None = unaligned).
    pub assignment: Vec<Option<usize>>,
    /// Objective value of the best assignment.
    pub objective: f64,
    /// Nodes explored by branch-and-bound.
    pub nodes: usize,
    /// True when the node budget was exhausted (solution may be
    /// sub-optimal).
    pub budget_exhausted: bool,
}

struct Solver<'a> {
    candidates: &'a [Vec<Candidate>],
    targets: &'a [TableMention],
    cfg: &'a IlpConfig,
    order: Vec<usize>,
    best: f64,
    best_assignment: Vec<Option<usize>>,
    current: Vec<Option<usize>>,
    nodes: usize,
    exhausted: bool,
    /// Upper bound on the pair bonus any single assignment can add.
    pair_bound: f64,
    /// Per-mention maximum candidate prior (for the admissible bound).
    max_prior: Vec<f64>,
}

/// Solve the joint assignment exactly (within the node budget).
pub fn resolve_ilp(
    candidates: &[Vec<Candidate>],
    targets: &[TableMention],
    cfg: &IlpConfig,
) -> IlpSolution {
    let m = candidates.len();
    // Process mentions with fewer candidates first (stronger propagation).
    let mut order: Vec<usize> = (0..m).collect();
    order.sort_by_key(|&i| candidates[i].len());

    let max_prior: Vec<f64> = candidates
        .iter()
        .map(|cs| cs.iter().map(|c| c.score).fold(0.0, f64::max))
        .collect();
    let pair_bound = (m.saturating_sub(1)) as f64 * (cfg.table_coherence + cfg.line_coherence);

    let mut solver = Solver {
        candidates,
        targets,
        cfg,
        order,
        best: f64::NEG_INFINITY,
        best_assignment: vec![None; m],
        current: vec![None; m],
        nodes: 0,
        exhausted: false,
        pair_bound,
        max_prior,
    };
    solver.search(0, 0.0);
    IlpSolution {
        assignment: solver.best_assignment,
        objective: solver.best.max(0.0),
        nodes: solver.nodes,
        budget_exhausted: solver.exhausted,
    }
}

impl<'a> Solver<'a> {
    fn search(&mut self, depth: usize, score: f64) {
        self.nodes += 1;
        if self.nodes >= self.cfg.node_budget {
            self.exhausted = true;
            return;
        }
        if depth == self.order.len() {
            if score > self.best {
                self.best = score;
                self.best_assignment = self.current.clone();
            }
            return;
        }
        // Admissible bound: remaining mentions contribute at most their
        // best prior plus the maximal pair bonus each.
        let remaining: f64 = self.order[depth..]
            .iter()
            .map(|&x| self.max_prior[x] + self.pair_bound)
            .sum();
        if score + remaining <= self.best {
            return;
        }

        let x = self.order[depth];
        // Try candidates in descending prior order (already sorted by the
        // filter), then the "unaligned" branch.
        for ci in 0..self.candidates[x].len() {
            let cand = self.candidates[x][ci];
            if cand.score < self.cfg.epsilon {
                continue;
            }
            if self.conflicts(x, cand.target) {
                continue;
            }
            let gain = cand.score + self.coupling_gain(x, cand.target);
            self.current[x] = Some(cand.target);
            self.search(depth + 1, score + gain);
            self.current[x] = None;
            if self.exhausted {
                return;
            }
        }
        // unaligned branch
        self.search(depth + 1, score);
    }

    /// Another already-assigned mention claims the same single cell.
    fn conflicts(&self, x: usize, target: usize) -> bool {
        let t = &self.targets[target];
        if t.kind != TableMentionKind::SingleCell {
            return false;
        }
        self.current.iter().enumerate().any(|(y, assigned)| {
            y != x
                && assigned.is_some_and(|a| {
                    let u = &self.targets[a];
                    u.kind == TableMentionKind::SingleCell
                        && u.table == t.table
                        && u.cells == t.cells
                })
        })
    }

    /// Coherence bonus of assigning `target` to mention `x` given the
    /// current partial assignment.
    fn coupling_gain(&self, x: usize, target: usize) -> f64 {
        let t = &self.targets[target];
        let mut gain = 0.0;
        for (y, assigned) in self.current.iter().enumerate() {
            if y == x {
                continue;
            }
            let Some(a) = assigned else { continue };
            let u = &self.targets[*a];
            if u.table == t.table {
                gain += self.cfg.table_coherence;
                let share_line = t
                    .cells
                    .iter()
                    .any(|&(r1, c1)| u.cells.iter().any(|&(r2, c2)| r1 == r2 || c1 == c2));
                if share_line {
                    gain += self.cfg.line_coherence;
                }
            }
        }
        gain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use briq_text::units::Unit;

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

    #[test]
    fn picks_best_priors_without_conflicts() {
        let targets = vec![cell(0, 1, 1, 5.0), cell(0, 2, 1, 7.0)];
        let candidates = vec![
            vec![
                Candidate {
                    target: 0,
                    score: 0.9,
                },
                Candidate {
                    target: 1,
                    score: 0.3,
                },
            ],
            vec![
                Candidate {
                    target: 1,
                    score: 0.8,
                },
                Candidate {
                    target: 0,
                    score: 0.4,
                },
            ],
        ];
        let sol = resolve_ilp(&candidates, &targets, &IlpConfig::default());
        assert_eq!(sol.assignment, vec![Some(0), Some(1)]);
        assert!(!sol.budget_exhausted);
    }

    #[test]
    fn cell_conflicts_are_respected() {
        // Both mentions prefer the same cell; the second-best split wins
        // when coherent.
        let targets = vec![cell(0, 1, 1, 5.0), cell(0, 2, 1, 5.0)];
        let candidates = vec![
            vec![
                Candidate {
                    target: 0,
                    score: 0.9,
                },
                Candidate {
                    target: 1,
                    score: 0.85,
                },
            ],
            vec![
                Candidate {
                    target: 0,
                    score: 0.9,
                },
                Candidate {
                    target: 1,
                    score: 0.2,
                },
            ],
        ];
        let sol = resolve_ilp(&candidates, &targets, &IlpConfig::default());
        let a = sol.assignment;
        assert_ne!(
            a[0], a[1],
            "same single cell must not be claimed twice: {a:?}"
        );
    }

    #[test]
    fn table_coherence_breaks_ties() {
        // Mention 0 is tied between tables; mention 1 is firmly in table 0.
        let targets = vec![cell(0, 1, 1, 5.0), cell(1, 1, 1, 5.0), cell(0, 2, 2, 9.0)];
        let candidates = vec![
            vec![
                Candidate {
                    target: 0,
                    score: 0.5,
                },
                Candidate {
                    target: 1,
                    score: 0.5,
                },
            ],
            vec![Candidate {
                target: 2,
                score: 0.9,
            }],
        ];
        let sol = resolve_ilp(&candidates, &targets, &IlpConfig::default());
        assert_eq!(sol.assignment[0], Some(0), "{sol:?}");
    }

    #[test]
    fn epsilon_leaves_weak_mentions_unaligned() {
        let targets = vec![cell(0, 1, 1, 5.0)];
        let candidates = vec![vec![Candidate {
            target: 0,
            score: 0.05,
        }]];
        let sol = resolve_ilp(&candidates, &targets, &IlpConfig::default());
        assert_eq!(sol.assignment, vec![None]);
    }

    #[test]
    fn node_budget_terminates_search() {
        // 8 mentions × 8 candidates each with conflicts → large tree.
        let targets: Vec<TableMention> = (0..8).map(|i| cell(0, 1, i, i as f64)).collect();
        let candidates: Vec<Vec<Candidate>> = (0..8)
            .map(|_| {
                (0..8)
                    .map(|t| Candidate {
                        target: t,
                        score: 0.5 + (t as f64) * 0.01,
                    })
                    .collect()
            })
            .collect();
        let cfg = IlpConfig {
            node_budget: 500,
            ..Default::default()
        };
        let sol = resolve_ilp(&candidates, &targets, &cfg);
        assert!(sol.budget_exhausted);
        assert!(sol.nodes <= 501);
    }

    #[test]
    fn empty_input() {
        let sol = resolve_ilp(&[], &[], &IlpConfig::default());
        assert!(sol.assignment.is_empty());
        assert_eq!(sol.objective, 0.0);
    }
}
