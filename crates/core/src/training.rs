//! Training-set construction for the mention-pair classifier (§VII-B).
//!
//! For each ground-truth mention pair (a positive sample) we generate 5
//! negative samples "by picking the table cells with the highest
//! similarity to the positive sample (i.e., approximately the same values
//! and similar context). These included many virtual cells for aggregate
//! values, making the task very challenging."

use briq_ml::Dataset;
use briq_table::virtual_cells::{all_table_mentions, VirtualCellConfig};
use briq_table::{Document, TableMention, TableMentionKind};
use briq_text::cues::AggregationKind;
use std::collections::BTreeMap;

use crate::context::{ContextConfig, DocContext};
use crate::features::feature_vector;
use crate::mention::{text_mentions, GoldAlignment, TextMention};

/// One document together with its gold alignments.
#[derive(Debug, Clone)]
pub struct LabeledDocument {
    /// The document (paragraph + tables).
    pub document: Document,
    /// Gold alignments for the document's text mentions.
    pub gold: Vec<GoldAlignment>,
}

/// A labeled training example (metadata kept for breakdowns).
#[derive(Debug, Clone)]
pub struct TrainingExample {
    /// The 12-feature vector.
    pub features: Vec<f64>,
    /// Related or not.
    pub label: bool,
    /// Kind of the table mention in the pair.
    pub kind: TableMentionKind,
}

/// Counts of positive/negative examples per mention type (Table I).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrainingBreakdown {
    /// `(positives, negatives)` per type name.
    pub by_type: BTreeMap<String, (usize, usize)>,
}

impl TrainingBreakdown {
    fn add(&mut self, kind: TableMentionKind, label: bool) {
        let e = self
            .by_type
            .entry(kind.name().to_string())
            .or_insert((0, 0));
        if label {
            e.0 += 1;
        } else {
            e.1 += 1;
        }
    }

    /// Totals across all types.
    pub fn totals(&self) -> (usize, usize) {
        self.by_type
            .values()
            .fold((0, 0), |(p, n), &(a, b)| (p + a, n + b))
    }
}

/// How many negatives to pair with each positive (§VII-B uses 5).
pub const NEGATIVES_PER_POSITIVE: usize = 5;

/// Build training examples from labeled documents.
///
/// Returns the examples plus the per-type breakdown. Use
/// [`examples_to_dataset`] to get a class-weighted [`Dataset`].
pub fn build_training_examples(
    docs: &[LabeledDocument],
    vc_cfg: &VirtualCellConfig,
    ctx_cfg: &ContextConfig,
) -> (Vec<TrainingExample>, TrainingBreakdown) {
    let mut examples = Vec::new();
    let mut breakdown = TrainingBreakdown::default();

    for ld in docs {
        let mentions = text_mentions(&ld.document);
        if mentions.is_empty() {
            continue;
        }
        let ctx = DocContext::build(&ld.document, &mentions, ctx_cfg);
        let targets = all_table_mentions(&ld.document.tables, vc_cfg);

        for x in &mentions {
            // Gold targets for this mention.
            let gold: Vec<&GoldAlignment> = ld
                .gold
                .iter()
                .filter(|g| x.quantity.start < g.mention_end && g.mention_start < x.quantity.end)
                .collect();
            if gold.is_empty() {
                continue;
            }
            let mut positives: Vec<&TableMention> = Vec::new();
            let mut negatives: Vec<(&TableMention, f64)> = Vec::new();
            for t in &targets {
                if gold.iter().any(|g| matches_target(g, t)) {
                    positives.push(t);
                } else {
                    negatives.push((t, hardness(x, t)));
                }
            }
            if positives.is_empty() {
                continue; // the gold target was not generated (rare)
            }
            // hardest negatives first
            negatives.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));

            for t in &positives {
                let v = feature_vector(x, t, &ctx);
                breakdown.add(t.kind, true);
                examples.push(TrainingExample {
                    features: v,
                    label: true,
                    kind: t.kind,
                });
            }
            // Mostly hard negatives (approximately the same values and
            // similar context, §VII-B), plus a deterministic spread of
            // easier ones across the hardness range — without the spread
            // the forest never sees a far-off value and cannot learn the
            // value-distance features at all.
            let n_neg = NEGATIVES_PER_POSITIVE * positives.len();
            let n_hard = (n_neg * 3) / 5;
            let mut chosen: Vec<usize> = (0..n_hard.min(negatives.len())).collect();
            let n_spread = n_neg - chosen.len();
            if negatives.len() > n_hard && n_spread > 0 {
                let tail = negatives.len() - n_hard;
                for j in 0..n_spread {
                    let idx = n_hard + (j * tail) / n_spread.max(1) + tail / (2 * n_spread);
                    chosen.push(idx.min(negatives.len() - 1));
                }
                chosen.dedup();
            }
            for &i in &chosen {
                let (t, _) = negatives[i];
                let v = feature_vector(x, t, &ctx);
                breakdown.add(t.kind, false);
                examples.push(TrainingExample {
                    features: v,
                    label: false,
                    kind: t.kind,
                });
            }
        }
    }
    (examples, breakdown)
}

/// Does gold alignment `g` designate table mention `t`?
pub fn matches_target(g: &GoldAlignment, t: &TableMention) -> bool {
    if g.table != t.table || g.kind != t.kind {
        return false;
    }
    let mut a = g.cells.clone();
    let mut b = t.cells.clone();
    a.sort_unstable();
    a.dedup();
    b.sort_unstable();
    b.dedup();
    a == b
}

/// Negative-sample hardness: high when values are close and the surface
/// forms are similar — "approximately the same values and similar
/// context" (§VII-B).
fn hardness(x: &TextMention, t: &TableMention) -> f64 {
    let vd = crate::features::relative_difference(x.quantity.value, t.value);
    let surface = crate::jaro::jaro_winkler(
        &x.quantity.raw.to_lowercase(),
        &crate::features::table_surface(t),
    );
    (1.0 - vd / 2.0) + surface
}

/// Convert examples to a class-weighted dataset.
///
/// Two levels of weighting: (1) positive vs negative mass is balanced
/// (§VII-B); (2) positive mass is spread across mention types, so the
/// rare aggregate positives (sum/diff/percent/ratio are ~13% of positives,
/// Table I) are not drowned out by single-cell examples. Without (2) the
/// forest learns almost nothing about virtual cells and global resolution
/// cannot recover (the bias effect §VIII-A reports for percent/ratio).
pub fn examples_to_dataset(examples: &[TrainingExample]) -> Dataset {
    let mut d = Dataset::new();
    for e in examples {
        d.push(e.features.clone(), e.label);
    }
    d.apply_class_weights();

    // Per-type balancing of the positive mass.
    let mut pos_counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    for e in examples.iter().filter(|e| e.label) {
        *pos_counts.entry(e.kind.name()).or_insert(0) += 1;
    }
    if pos_counts.len() > 1 {
        let total_pos: usize = pos_counts.values().sum();
        let n_types = pos_counts.len();
        for (i, e) in examples.iter().enumerate() {
            if e.label {
                let count = pos_counts[e.kind.name()].max(1);
                let factor = (total_pos as f64 / (n_types as f64 * count as f64)).clamp(0.25, 4.0);
                d.weights[i] *= factor;
            }
        }
    }
    d
}

/// The label space of the text-mention tagger: the four evaluated
/// aggregations plus single-cell.
pub fn tagger_label(kind: TableMentionKind) -> Option<AggregationKind> {
    match kind {
        TableMentionKind::SingleCell => None,
        TableMentionKind::Aggregate(k) => Some(k),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use briq_table::Table;

    fn labeled_doc() -> LabeledDocument {
        let doc = Document::new(
            0,
            "A total of 73 patients; depression was reported by 38 patients.",
            vec![Table::from_grid(
                "",
                vec![
                    vec!["effect".into(), "patients".into()],
                    vec!["Rash".into(), "35".into()],
                    vec!["Depression".into(), "38".into()],
                ],
            )],
        );
        let total_start = doc.text.find("73").unwrap();
        let n38_start = doc.text.find("38").unwrap();
        let gold = vec![
            GoldAlignment {
                mention_start: total_start,
                mention_end: total_start + 2,
                table: 0,
                kind: TableMentionKind::Aggregate(AggregationKind::Sum),
                cells: vec![(1, 1), (2, 1)],
            },
            GoldAlignment {
                mention_start: n38_start,
                mention_end: n38_start + 2,
                table: 0,
                kind: TableMentionKind::SingleCell,
                cells: vec![(2, 1)],
            },
        ];
        LabeledDocument {
            document: doc,
            gold,
        }
    }

    #[test]
    fn positives_and_negatives_built() {
        let (ex, bd) = build_training_examples(
            &[labeled_doc()],
            &VirtualCellConfig::default(),
            &ContextConfig::default(),
        );
        let (pos, neg) = bd.totals();
        assert_eq!(pos, 2, "{bd:?}");
        assert!(neg > 0 && neg <= 2 * NEGATIVES_PER_POSITIVE);
        assert_eq!(ex.len(), pos + neg);
        assert!(bd.by_type.contains_key("sum"));
        assert!(bd.by_type.contains_key("single-cell"));
    }

    #[test]
    fn negatives_are_hard() {
        let (ex, _) = build_training_examples(
            &[labeled_doc()],
            &VirtualCellConfig::default(),
            &ContextConfig::default(),
        );
        // Negatives should include at least one value-close candidate
        // (f6 < 0.5 for some negative).
        assert!(ex.iter().any(|e| !e.label && e.features[5] < 0.5));
    }

    #[test]
    fn dataset_class_weighted() {
        let (ex, _) = build_training_examples(
            &[labeled_doc()],
            &VirtualCellConfig::default(),
            &ContextConfig::default(),
        );
        let d = examples_to_dataset(&ex);
        assert_eq!(d.len(), ex.len());
        let pos_mass: f64 = d
            .weights
            .iter()
            .zip(&d.labels)
            .filter(|(_, &l)| l)
            .map(|(w, _)| w)
            .sum();
        let neg_mass: f64 = d
            .weights
            .iter()
            .zip(&d.labels)
            .filter(|(_, &l)| !l)
            .map(|(w, _)| w)
            .sum();
        assert!((pos_mass - neg_mass).abs() < 1e-9);
    }

    #[test]
    fn mention_without_gold_skipped() {
        let mut ld = labeled_doc();
        ld.gold.clear();
        let (ex, bd) = build_training_examples(
            &[ld],
            &VirtualCellConfig::default(),
            &ContextConfig::default(),
        );
        assert!(ex.is_empty());
        assert_eq!(bd.totals(), (0, 0));
    }
}
