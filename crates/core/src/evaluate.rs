//! Evaluation: precision / recall / F1 against gold alignments, overall
//! and per mention type (Tables II–V), plus post-filter recall (Table VI).

use briq_ml::metrics::Prf;
use briq_table::{TableMention, TableMentionKind};
use std::collections::BTreeMap;

use crate::filtering::Candidate;
use crate::mention::{Alignment, GoldAlignment, TextMention};
use crate::training::matches_target;

/// Confusion counts for one mention type.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// True positives.
    pub tp: usize,
    /// False positives (predicted, no matching gold).
    pub fp: usize,
    /// False negatives (gold, not predicted).
    pub fn_: usize,
}

impl Counts {
    /// Precision/recall/F1 of these counts.
    pub fn prf(&self) -> Prf {
        Prf::from_counts(self.tp, self.fp, self.fn_)
    }
}

/// Evaluation report: overall and per-type counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EvalReport {
    /// Counts per mention-type name ("single-cell", "sum", …).
    pub by_type: BTreeMap<String, Counts>,
}

impl EvalReport {
    /// Add one document's predictions and gold to the report.
    ///
    /// Matching is greedy by score: each gold alignment is matched by at
    /// most one prediction and vice versa.
    pub fn add_document(&mut self, predictions: &[Alignment], gold: &[GoldAlignment]) {
        let mut gold_used = vec![false; gold.len()];
        let mut preds: Vec<&Alignment> = predictions.iter().collect();
        preds.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        for p in preds {
            let hit = gold
                .iter()
                .enumerate()
                .find(|(gi, g)| !gold_used[*gi] && g.matches(p));
            match hit {
                Some((gi, g)) => {
                    gold_used[gi] = true;
                    self.entry(g.kind).tp += 1;
                }
                None => {
                    self.entry(p.target.kind).fp += 1;
                }
            }
        }
        for (gi, g) in gold.iter().enumerate() {
            if !gold_used[gi] {
                self.entry(g.kind).fn_ += 1;
            }
        }
    }

    fn entry(&mut self, kind: TableMentionKind) -> &mut Counts {
        self.by_type.entry(kind.name().to_string()).or_default()
    }

    /// Counts summed over all types.
    pub fn overall_counts(&self) -> Counts {
        self.by_type
            .values()
            .fold(Counts::default(), |acc, c| Counts {
                tp: acc.tp + c.tp,
                fp: acc.fp + c.fp,
                fn_: acc.fn_ + c.fn_,
            })
    }

    /// Overall precision/recall/F1.
    pub fn overall(&self) -> Prf {
        self.overall_counts().prf()
    }

    /// Per-type precision/recall/F1.
    pub fn prf_for(&self, kind: &str) -> Prf {
        self.by_type.get(kind).map(|c| c.prf()).unwrap_or_default()
    }

    /// Merge another report into this one.
    pub fn merge(&mut self, other: &EvalReport) {
        for (k, c) in &other.by_type {
            let e = self.by_type.entry(k.clone()).or_default();
            e.tp += c.tp;
            e.fp += c.fp;
            e.fn_ += c.fn_;
        }
    }
}

/// Post-filter recall (Table VI): the fraction of gold alignments whose
/// target survived adaptive filtering, per type.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FilterRecall {
    /// `(surviving gold targets, total gold targets)` per type name.
    pub by_type: BTreeMap<String, (usize, usize)>,
}

impl FilterRecall {
    /// Record one document.
    pub fn add_document(
        &mut self,
        mentions: &[TextMention],
        candidates: &[Vec<Candidate>],
        targets: &[TableMention],
        gold: &[GoldAlignment],
    ) {
        for g in gold {
            let name = g.kind.name().to_string();
            let e = self.by_type.entry(name).or_insert((0, 0));
            e.1 += 1;
            // Find the text mention covering the gold span.
            let found = mentions.iter().enumerate().any(|(i, x)| {
                let overlap = x.quantity.start < g.mention_end && g.mention_start < x.quantity.end;
                overlap
                    && candidates[i]
                        .iter()
                        .any(|c| matches_target(g, &targets[c.target]))
            });
            if found {
                e.0 += 1;
            }
        }
    }

    /// Recall for a type name.
    pub fn recall(&self, kind: &str) -> Option<f64> {
        let &(hit, total) = self.by_type.get(kind)?;
        if total == 0 {
            None
        } else {
            Some(hit as f64 / total as f64)
        }
    }

    /// Overall post-filter recall.
    pub fn overall(&self) -> f64 {
        let (hit, total) = self
            .by_type
            .values()
            .fold((0, 0), |(h, t), &(a, b)| (h + a, t + b));
        if total == 0 {
            0.0
        } else {
            hit as f64 / total as f64
        }
    }

    /// Merge another tally into this one.
    pub fn merge(&mut self, other: &FilterRecall) {
        for (k, &(h, t)) in &other.by_type {
            let e = self.by_type.entry(k.clone()).or_insert((0, 0));
            e.0 += h;
            e.1 += t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use briq_text::units::Unit;

    fn target(kind: TableMentionKind, cells: Vec<(usize, usize)>) -> TableMention {
        TableMention {
            table: 0,
            kind,
            cells,
            value: 1.0,
            unnormalized: 1.0,
            raw: "1".into(),
            unit: Unit::None,
            precision: 0,
            orientation: None,
        }
    }

    fn pred(
        start: usize,
        kind: TableMentionKind,
        cells: Vec<(usize, usize)>,
        score: f64,
    ) -> Alignment {
        Alignment {
            mention_start: start,
            mention_end: start + 2,
            mention_raw: "1".into(),
            target: target(kind, cells),
            score,
        }
    }

    fn gold(start: usize, kind: TableMentionKind, cells: Vec<(usize, usize)>) -> GoldAlignment {
        GoldAlignment {
            mention_start: start,
            mention_end: start + 2,
            table: 0,
            kind,
            cells,
        }
    }

    #[test]
    fn perfect_document() {
        let mut r = EvalReport::default();
        let sc = TableMentionKind::SingleCell;
        r.add_document(
            &[
                pred(0, sc, vec![(1, 1)], 0.9),
                pred(10, sc, vec![(2, 2)], 0.8),
            ],
            &[gold(0, sc, vec![(1, 1)]), gold(10, sc, vec![(2, 2)])],
        );
        assert_eq!(
            r.overall(),
            Prf {
                precision: 1.0,
                recall: 1.0,
                f1: 1.0
            }
        );
    }

    #[test]
    fn wrong_cell_counts_fp_and_fn() {
        let mut r = EvalReport::default();
        let sc = TableMentionKind::SingleCell;
        r.add_document(
            &[pred(0, sc, vec![(9, 9)], 0.9)],
            &[gold(0, sc, vec![(1, 1)])],
        );
        let c = r.overall_counts();
        assert_eq!((c.tp, c.fp, c.fn_), (0, 1, 1));
        let prf = r.overall();
        assert_eq!(prf.f1, 0.0);
    }

    #[test]
    fn per_type_breakdown() {
        let mut r = EvalReport::default();
        let sc = TableMentionKind::SingleCell;
        let sum = TableMentionKind::Aggregate(briq_text::AggregationKind::Sum);
        r.add_document(
            &[
                pred(0, sc, vec![(1, 1)], 0.9),
                pred(10, sum, vec![(1, 1), (2, 1)], 0.8),
            ],
            &[
                gold(0, sc, vec![(1, 1)]),
                gold(10, sum, vec![(1, 1), (2, 1)]),
            ],
        );
        assert_eq!(r.prf_for("single-cell").f1, 1.0);
        assert_eq!(r.prf_for("sum").f1, 1.0);
        assert_eq!(r.prf_for("diff").f1, 0.0); // unseen type
    }

    #[test]
    fn each_gold_matched_once() {
        let mut r = EvalReport::default();
        let sc = TableMentionKind::SingleCell;
        // Two predictions to the same gold: one tp, one fp.
        r.add_document(
            &[
                pred(0, sc, vec![(1, 1)], 0.9),
                pred(0, sc, vec![(1, 1)], 0.5),
            ],
            &[gold(0, sc, vec![(1, 1)])],
        );
        let c = r.overall_counts();
        assert_eq!((c.tp, c.fp, c.fn_), (1, 1, 0));
    }

    #[test]
    fn merge_reports() {
        let sc = TableMentionKind::SingleCell;
        let mut a = EvalReport::default();
        a.add_document(
            &[pred(0, sc, vec![(1, 1)], 0.9)],
            &[gold(0, sc, vec![(1, 1)])],
        );
        let mut b = EvalReport::default();
        b.add_document(&[], &[gold(0, sc, vec![(1, 1)])]);
        a.merge(&b);
        let c = a.overall_counts();
        assert_eq!((c.tp, c.fp, c.fn_), (1, 0, 1));
    }

    #[test]
    fn filter_recall_counts_survivors() {
        use crate::filtering::Candidate;
        use crate::mention::TextMention;
        use briq_text::quantity::QuantityMention;

        let sc = TableMentionKind::SingleCell;
        let targets = vec![target(sc, vec![(1, 1)]), target(sc, vec![(2, 2)])];
        let mentions = vec![TextMention {
            id: 0,
            quantity: QuantityMention {
                raw: "1".into(),
                value: 1.0,
                unnormalized: 1.0,
                unit: Unit::None,
                precision: 0,
                approx: Default::default(),
                start: 0,
                end: 2,
            },
        }];
        let mut fr = FilterRecall::default();
        // survivor includes the gold target
        fr.add_document(
            &mentions,
            &[vec![Candidate {
                target: 0,
                score: 0.5,
            }]],
            &targets,
            &[gold(0, sc, vec![(1, 1)])],
        );
        // survivor misses the gold target
        fr.add_document(
            &mentions,
            &[vec![Candidate {
                target: 1,
                score: 0.5,
            }]],
            &targets,
            &[gold(0, sc, vec![(1, 1)])],
        );
        assert_eq!(fr.recall("single-cell"), Some(0.5));
        assert_eq!(fr.overall(), 0.5);
    }
}
