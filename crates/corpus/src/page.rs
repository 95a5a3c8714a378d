//! HTML page materialization: labeled documents rendered as web pages,
//! a few documents per page. `briq-eval table8` times Table VIII over
//! such pages, so its timed path includes HTML parsing and page
//! segmentation, as in the original system; `briq-align --gen-corpus`,
//! CI's determinism stage and `briq-perf` generate their workloads with
//! [`corpus_pages`].

use briq_core::training::LabeledDocument;
use briq_table::Table;

/// Serialize a [`Table`] back to minimal HTML.
pub fn table_to_html(table: &Table) -> String {
    let mut out = String::from("<table>");
    if !table.caption.is_empty() {
        out.push_str("<caption>");
        out.push_str(&escape(&table.caption));
        out.push_str("</caption>");
    }
    for (r, row) in table.cells.iter().enumerate() {
        out.push_str("<tr>");
        for cell in row {
            let tag = if r < table.header_rows { "th" } else { "td" };
            out.push('<');
            out.push_str(tag);
            out.push('>');
            out.push_str(&escape(cell));
            out.push_str("</");
            out.push_str(tag);
            out.push('>');
        }
        out.push_str("</tr>");
    }
    out.push_str("</table>");
    out
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Render several labeled documents as one web page: paragraph, then its
/// tables, repeated.
pub fn render_page(docs: &[&LabeledDocument]) -> String {
    let mut out = String::from("<html><body>");
    for ld in docs {
        out.push_str("<p>");
        out.push_str(&escape(&ld.document.text));
        out.push_str("</p>");
        for t in &ld.document.tables {
            out.push_str(&table_to_html(t));
        }
    }
    out.push_str("</body></html>");
    out
}

/// Render `docs` in order as HTML pages of `docs_per_page` documents
/// each (the last page may hold fewer; `0` is treated as `1`).
pub fn render_pages(docs: &[LabeledDocument], docs_per_page: usize) -> Vec<String> {
    docs.chunks(docs_per_page.max(1))
        .map(|chunk| {
            let refs: Vec<&LabeledDocument> = chunk.iter().collect();
            render_page(&refs)
        })
        .collect()
}

/// Batch page generator: materialize a whole seeded corpus as HTML pages,
/// `docs_per_page` labeled documents per page. This is the input side of
/// the batch-alignment engine — CI's determinism stage, `briq-perf` and
/// `briq-align --gen-corpus` all generate their workloads through it,
/// so the same `(seed, n_documents, docs_per_page)` triple always yields
/// byte-identical pages.
pub fn corpus_pages(cfg: &crate::corpus::CorpusConfig, docs_per_page: usize) -> Vec<String> {
    render_pages(
        &crate::corpus::generate_corpus(cfg).documents,
        docs_per_page,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{generate_corpus, CorpusConfig};
    use briq_table::html::parse_page;
    use briq_table::segment::{segment_page, SegmentConfig};

    #[test]
    fn tables_roundtrip_through_html() {
        let c = generate_corpus(&CorpusConfig::small(21));
        let ld = &c.documents[0];
        let html = table_to_html(&ld.document.tables[0]);
        let page = parse_page(&html);
        assert_eq!(page.tables.len(), 1);
        let reparsed = Table::from_raw(&page.tables[0]);
        assert_eq!(reparsed.cells, ld.document.tables[0].cells);
        assert_eq!(reparsed.caption, ld.document.tables[0].caption);
        assert_eq!(
            reparsed.quantity_count(),
            ld.document.tables[0].quantity_count()
        );
    }

    #[test]
    fn pages_segment_back_into_documents() {
        let c = generate_corpus(&CorpusConfig::small(22));
        let slice: Vec<&LabeledDocument> = c.documents.iter().take(3).collect();
        let html = render_page(&slice);
        let page = parse_page(&html);
        assert_eq!(page.paragraphs.len(), 3);
        assert_eq!(
            page.tables.len(),
            slice.iter().map(|d| d.document.tables.len()).sum::<usize>()
        );
        let docs = segment_page(&page, &SegmentConfig::default(), 0);
        // every paragraph relates at least to its adjacent table
        assert!(docs.len() >= 2, "segmented {} documents", docs.len());
    }

    #[test]
    fn corpus_pages_are_seed_deterministic() {
        let cfg = CorpusConfig::small(33);
        let a = corpus_pages(&cfg, 3);
        let b = corpus_pages(&cfg, 3);
        assert!(!a.is_empty());
        assert_eq!(a, b, "same seed must yield byte-identical pages");
        let n_docs = generate_corpus(&cfg).documents.len();
        assert_eq!(a.len(), n_docs.div_ceil(3));
        // `docs_per_page == 0` is clamped, not a panic.
        assert_eq!(corpus_pages(&cfg, 0).len(), n_docs);
    }

    #[test]
    fn entities_escaped() {
        let t = Table::from_grid(
            "a < b & c",
            vec![vec!["x".into(), "1".into()], vec!["<y>".into(), "2".into()]],
        );
        let html = table_to_html(&t);
        assert!(html.contains("a &lt; b &amp; c"));
        assert!(html.contains("&lt;y&gt;"));
    }
}
