//! Mention-level data types: extracted text mentions, predicted
//! alignments, and gold-standard alignments for evaluation.

use briq_table::{Document, TableMention, TableMentionKind};
use briq_text::quantity::{extract_quantities, QuantityMention};

/// A text mention within a document (its quantity plus its index).
#[derive(Debug, Clone, PartialEq)]
pub struct TextMention {
    /// Index among the document's text mentions.
    pub id: usize,
    /// The extracted quantity.
    pub quantity: QuantityMention,
}

/// Extract the text mentions of a document, in document order.
pub fn text_mentions(doc: &Document) -> Vec<TextMention> {
    extract_quantities(&doc.text)
        .into_iter()
        .enumerate()
        .map(|(id, quantity)| TextMention { id, quantity })
        .collect()
}

/// A predicted alignment: text mention → table mention, with its score.
#[derive(Debug, Clone, PartialEq)]
pub struct Alignment {
    /// Byte span of the text mention in the document text.
    pub mention_start: usize,
    /// End byte offset (exclusive).
    pub mention_end: usize,
    /// Surface form of the text mention.
    pub mention_raw: String,
    /// The aligned table mention (single cell or virtual cell).
    pub target: TableMention,
    /// Final score (classifier prior for baselines, `OverallScore` for
    /// BriQ).
    pub score: f64,
}

impl Alignment {
    /// Align text mention `x` to table mention `target` at `score`.
    pub fn new(x: &TextMention, target: &TableMention, score: f64) -> Alignment {
        Alignment {
            mention_start: x.quantity.start,
            mention_end: x.quantity.end,
            mention_raw: x.quantity.raw.clone(),
            target: target.clone(),
            score,
        }
    }
}

/// A gold-standard alignment from annotation (or corpus synthesis).
#[derive(Debug, Clone, PartialEq)]
pub struct GoldAlignment {
    /// Byte span of the gold text mention.
    pub mention_start: usize,
    /// End byte offset (exclusive).
    pub mention_end: usize,
    /// Table index within the document.
    pub table: usize,
    /// Kind of the target (single cell or a specific aggregation).
    pub kind: TableMentionKind,
    /// Member cells `(row, col)` of the target (one for single cells).
    pub cells: Vec<(usize, usize)>,
}

impl GoldAlignment {
    /// Does the predicted alignment `a` realize this gold alignment?
    ///
    /// Spans must overlap (extraction may include unit suffixes the
    /// annotation did not, or vice versa), tables and kinds must agree,
    /// and the member-cell *sets* must be identical (pair aggregates are
    /// direction-insensitive).
    pub fn matches(&self, a: &Alignment) -> bool {
        let span_overlap = a.mention_start < self.mention_end && self.mention_start < a.mention_end;
        if !span_overlap || a.target.table != self.table || a.target.kind != self.kind {
            return false;
        }
        let mut gold = self.cells.clone();
        let mut pred = a.target.cells.clone();
        gold.sort_unstable();
        gold.dedup();
        pred.sort_unstable();
        pred.dedup();
        gold == pred
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use briq_table::Table;

    fn doc() -> Document {
        Document::new(
            0,
            "A total of 123 patients; 69 were female and 54 male.",
            vec![Table::from_grid(
                "",
                vec![
                    vec!["effect".into(), "n".into()],
                    vec!["Rash".into(), "69".into()],
                    vec!["Other".into(), "54".into()],
                ],
            )],
        )
    }

    #[test]
    fn text_mentions_extracted_in_order() {
        let ms = text_mentions(&doc());
        let vals: Vec<f64> = ms.iter().map(|m| m.quantity.value).collect();
        assert_eq!(vals, vec![123.0, 69.0, 54.0]);
        assert_eq!(ms[0].id, 0);
        assert_eq!(ms[2].id, 2);
    }

    fn alignment(start: usize, end: usize, cells: Vec<(usize, usize)>) -> Alignment {
        Alignment {
            mention_start: start,
            mention_end: end,
            mention_raw: String::new(),
            target: TableMention {
                table: 0,
                kind: TableMentionKind::SingleCell,
                cells,
                value: 69.0,
                unnormalized: 69.0,
                raw: "69".into(),
                unit: briq_text::Unit::None,
                precision: 0,
                orientation: None,
            },
            score: 0.9,
        }
    }

    #[test]
    fn gold_matching_requires_overlap_and_cells() {
        let gold = GoldAlignment {
            mention_start: 25,
            mention_end: 27,
            table: 0,
            kind: TableMentionKind::SingleCell,
            cells: vec![(1, 1)],
        };
        assert!(gold.matches(&alignment(25, 27, vec![(1, 1)])));
        // overlapping but not identical span still matches
        assert!(gold.matches(&alignment(24, 28, vec![(1, 1)])));
        // disjoint span
        assert!(!gold.matches(&alignment(30, 32, vec![(1, 1)])));
        // wrong cell
        assert!(!gold.matches(&alignment(25, 27, vec![(2, 1)])));
    }

    #[test]
    fn pair_cells_match_as_sets() {
        let gold = GoldAlignment {
            mention_start: 0,
            mention_end: 3,
            table: 0,
            kind: TableMentionKind::SingleCell,
            cells: vec![(1, 1), (2, 1)],
        };
        assert!(gold.matches(&alignment(0, 3, vec![(2, 1), (1, 1)])));
    }
}

briq_json::json_struct!(Alignment {
    mention_start,
    mention_end,
    mention_raw,
    target,
    score,
});
