//! Page segmentation into coherent documents (§III).
//!
//! A *document* is a paragraph together with all related tables from the
//! same page. Relatedness is token-overlap similarity between the
//! paragraph and the entire table content (headers and caption included),
//! with a proximity bonus: the table immediately following a paragraph is
//! related even with modest overlap. A paragraph may relate to several
//! tables and a table to several paragraphs.

use std::collections::HashMap;

use briq_text::token::{light_stem_into, SpanScanner, TokenKind};

use crate::html::RawPage;
use crate::model::{Document, Table};

/// Configuration for page segmentation.
#[derive(Debug, Clone)]
pub struct SegmentConfig {
    /// Minimum token-overlap similarity for a paragraph–table pair.
    pub similarity_threshold: f64,
    /// Similarity for the table directly adjacent to the paragraph
    /// (positional prior — adjacent tables are usually discussed).
    pub adjacent_threshold: f64,
    /// Paragraphs with fewer *distinct* word and number stems than this
    /// are skipped (boilerplate): `Rash rash rash rash rash` counts one.
    pub min_paragraph_tokens: usize,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        SegmentConfig {
            similarity_threshold: 0.10,
            adjacent_threshold: 0.02,
            min_paragraph_tokens: 5,
        }
    }
}

/// Bytes of page text per distinct stem that [`Vocabulary::for_page`]
/// makes room for up front. Generated pages hold one distinct stem per
/// ~10 bytes, and growing the map rehashes every stem it holds.
const BYTES_PER_STEM: usize = 8;

/// A page's stem vocabulary. A token set is the sorted, deduplicated ids
/// of the lowercased, lightly stemmed word and number tokens of its
/// texts, so each distinct stem is allocated once per page.
struct Vocabulary {
    ids: HashMap<String, usize>,
    scanner: SpanScanner,
    stem: String,
    /// The ids of the set being built.
    set: Vec<usize>,
}

impl Vocabulary {
    fn for_page(page: &RawPage) -> Vocabulary {
        let cells = page.tables.iter().flat_map(|t| t.rows.iter().flatten());
        let bytes: usize = page.paragraphs.iter().chain(cells).map(String::len).sum();
        Vocabulary {
            ids: HashMap::with_capacity(bytes / BYTES_PER_STEM),
            scanner: SpanScanner::default(),
            stem: String::new(),
            set: Vec::new(),
        }
    }

    /// The token set of `texts` taken together. Tokens never cross the
    /// spaces that [`Table::full_text`] joins a caption and cells with, so
    /// the set of a table's caption and cells is the set of its full text.
    fn token_set<'t>(&mut self, texts: impl IntoIterator<Item = &'t str>) -> Vec<usize> {
        let set = &mut self.set;
        set.clear();
        for text in texts {
            for (start, end, kind) in self.scanner.spans(text) {
                if matches!(kind, TokenKind::Punct | TokenKind::Symbol) {
                    continue;
                }
                light_stem_into(&text[start..end], &mut self.stem);
                let id = match self.ids.get(self.stem.as_str()) {
                    Some(&id) => id,
                    None => {
                        let id = self.ids.len();
                        self.ids.insert(self.stem.clone(), id);
                        id
                    }
                };
                set.push(id);
            }
        }
        set.sort_unstable();
        set.dedup();
        set.clone()
    }
}

/// Overlap coefficient |A ∩ B| / min(|A|, |B|) of two sorted sets.
fn overlap_coefficient(a: &[usize], b: &[usize]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let (mut i, mut j, mut inter) = (0, 0, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    inter as f64 / a.len().min(b.len()) as f64
}

/// Segment a parsed page into documents.
///
/// Returns one document per paragraph that has at least one related table;
/// document ids are assigned sequentially starting from `first_id`.
pub fn segment_page(page: &RawPage, cfg: &SegmentConfig, first_id: usize) -> Vec<Document> {
    let mut vocab = Vocabulary::for_page(page);
    let tables: Vec<Table> = page.tables.iter().map(Table::from_raw).collect();
    let table_sets: Vec<Vec<usize>> = tables
        .iter()
        .map(|t| {
            let cells = t.cells.iter().flatten().map(String::as_str);
            vocab.token_set(std::iter::once(t.caption.as_str()).chain(cells))
        })
        .collect();

    // The related tables of each paragraph that gets a document.
    let mut related: Vec<(&String, Vec<usize>)> = Vec::new();
    for (pi, para) in page.paragraphs.iter().enumerate() {
        let pset = vocab.token_set([para.as_str()]);
        if pset.len() < cfg.min_paragraph_tokens {
            continue;
        }
        let tis: Vec<usize> = (0..tables.len())
            .filter(|&ti| {
                // Is this table adjacent to the paragraph? table_positions[ti]
                // counts the paragraphs before the table.
                let adjacent = page
                    .table_positions
                    .get(ti)
                    .is_some_and(|&pos| pos == pi + 1 || pos == pi);
                let threshold = if adjacent {
                    cfg.adjacent_threshold
                } else {
                    cfg.similarity_threshold
                };
                overlap_coefficient(&pset, &table_sets[ti]) >= threshold
            })
            .collect();
        if !tis.is_empty() {
            related.push((para, tis));
        }
    }

    // Each table moves into the last document related to it and is
    // cloned for the earlier ones.
    let mut last_doc = vec![0; tables.len()];
    for (di, (_, tis)) in related.iter().enumerate() {
        for &ti in tis {
            last_doc[ti] = di;
        }
    }
    let mut tables: Vec<Option<Table>> = tables.into_iter().map(Some).collect();
    related
        .into_iter()
        .enumerate()
        .map(|(di, (para, tis))| {
            let doc_tables = tis
                .iter()
                .filter_map(|&ti| {
                    if last_doc[ti] == di {
                        tables[ti].take()
                    } else {
                        tables[ti].clone()
                    }
                })
                .collect();
            Document::new(first_id + di, para.clone(), doc_tables)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::html::parse_page;

    fn page() -> RawPage {
        parse_page(
            "<p>A total of 123 patients reported side effects such as rash and depression.</p>\
             <table><tr><th>side effects</th><th>total</th></tr>\
             <tr><td>Rash</td><td>35</td></tr><tr><td>Depression</td><td>38</td></tr></table>\
             <p>The weather tomorrow will be sunny with light winds from the north.</p>\
             <p>Car prices and ratings differ between the tested models significantly this year.</p>\
             <table><tr><th>model</th><th>price</th><th>rating</th></tr>\
             <tr><td>Focus</td><td>34900</td><td>1.33</td></tr></table>",
        )
    }

    #[test]
    fn related_paragraphs_get_documents() {
        let docs = segment_page(&page(), &SegmentConfig::default(), 0);
        // Paragraph 1 relates to table 1 (overlap: side, effects, rash,
        // depression); paragraph 3 relates to table 2 via adjacency.
        assert_eq!(docs.len(), 2);
        assert!(docs[0].text.contains("123 patients"));
        assert_eq!(docs[0].tables.len(), 1);
        assert!(docs[1].text.contains("Car prices"));
    }

    #[test]
    fn unrelated_paragraph_skipped() {
        let docs = segment_page(&page(), &SegmentConfig::default(), 0);
        assert!(!docs.iter().any(|d| d.text.contains("weather")));
    }

    #[test]
    fn ids_sequential_from_first() {
        let docs = segment_page(&page(), &SegmentConfig::default(), 10);
        let ids: Vec<usize> = docs.iter().map(|d| d.id).collect();
        assert_eq!(ids, vec![10, 11]);
    }

    #[test]
    fn short_paragraphs_skipped() {
        let page = parse_page("<p>Too short.</p><table><tr><td>1</td><td>2</td></tr></table>");
        let docs = segment_page(&page, &SegmentConfig::default(), 0);
        assert!(docs.is_empty());
    }

    #[test]
    fn paragraph_can_relate_to_multiple_tables() {
        let page = parse_page(
            "<p>Sales rose in transportation systems and automation control segments; \
             segment profit and segment margin grew strongly across both business units.</p>\
             <table><caption>Transportation Systems</caption>\
             <tr><th>metric</th><th>value</th></tr><tr><td>Sales</td><td>900</td></tr>\
             <tr><td>Segment Profit</td><td>114</td></tr></table>\
             <table><caption>Automation Control</caption>\
             <tr><th>metric</th><th>value</th></tr><tr><td>Sales</td><td>3962</td></tr>\
             <tr><td>Segment Margin</td><td>13.3%</td></tr></table>",
        );
        let docs = segment_page(&page, &SegmentConfig::default(), 0);
        assert_eq!(docs.len(), 1);
        assert_eq!(docs[0].tables.len(), 2);
    }

    #[test]
    fn overlap_coefficient_properties() {
        let mut vocab = Vocabulary::for_page(&RawPage::default());
        let a = vocab.token_set(["alpha beta gamma"]);
        let b = vocab.token_set(["beta gamma delta epsilon"]);
        let c = overlap_coefficient(&a, &b);
        assert!((c - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(overlap_coefficient(&a, &a), 1.0);
        assert_eq!(overlap_coefficient(&a, &[]), 0.0);
    }

    #[test]
    fn min_paragraph_tokens_counts_distinct_stems() {
        let table = "<table><tr><th>symptom</th><th>patients</th></tr>\
                     <tr><td>Rash</td><td>35</td></tr></table>";
        let repeated = parse_page(&format!("<p>Rash rash rash rash rash</p>{table}"));
        assert!(segment_page(&repeated, &SegmentConfig::default(), 0).is_empty());
        let distinct = parse_page(&format!("<p>Rash fever cough nausea sweat</p>{table}"));
        assert_eq!(
            segment_page(&distinct, &SegmentConfig::default(), 0).len(),
            1
        );
    }
}
