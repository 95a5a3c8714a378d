//! Page ingest against its reference. `segment_page` parses each cell
//! once (a lone numeral past the extractor), builds token sets over a
//! per-page stem vocabulary, and moves each table into the last document
//! related to it. The reference below is the segmentation those replace:
//! `String` token sets, the full extractor at every use of a cell, and one
//! table clone per document. Both must return equal documents, every
//! parsed cell quantity compared field by field and by bit pattern.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

use briq::html::{parse_page, RawPage, RawTable};
use briq::quantity::{extract_quantities, parse_cell_quantity};
use briq::segment::{segment_page, SegmentConfig};
use briq::substrates::corpus::corpus::CorpusConfig;
use briq::substrates::corpus::page::corpus_pages;
use briq::token::{light_stem, tokenize, TokenKind};
use briq::units::unit_from_header;
use briq::{ApproxIndicator, Document, QuantityMention, Table, Unit};

/// Every field of a mention, `value` and `unnormalized` by bit pattern.
type Fields = (String, u64, u64, Unit, u8, ApproxIndicator, usize, usize);

fn fields(q: &QuantityMention) -> Fields {
    (
        q.raw.clone(),
        q.value.to_bits(),
        q.unnormalized.to_bits(),
        q.unit,
        q.precision,
        q.approx,
        q.start,
        q.end,
    )
}

type Hint = (Unit, Option<u64>);

fn hint((unit, scale): (Unit, Option<f64>)) -> Hint {
    (unit, scale.map(f64::to_bits))
}

/// Everything a [`Table`] holds, its parsed quantities included.
#[derive(Debug, Clone, PartialEq)]
struct TableView {
    caption: String,
    cells: Vec<Vec<String>>,
    n_rows: usize,
    n_cols: usize,
    header_rows: usize,
    header_cols: usize,
    quantities: BTreeMap<(usize, usize), Fields>,
    col_hints: Vec<Hint>,
    row_hints: Vec<Hint>,
    caption_hint: Hint,
}

impl TableView {
    fn of(t: &Table) -> TableView {
        TableView {
            caption: t.caption.clone(),
            cells: t.cells.clone(),
            n_rows: t.n_rows,
            n_cols: t.n_cols,
            header_rows: t.header_rows,
            header_cols: t.header_cols,
            quantities: t.quantities().map(|(&at, q)| (at, fields(q))).collect(),
            col_hints: t.col_hints.iter().copied().map(hint).collect(),
            row_hints: t.row_hints.iter().copied().map(hint).collect(),
            caption_hint: hint(t.caption_hint),
        }
    }
}

type DocView = (usize, String, Vec<TableView>);

fn view(docs: &[Document]) -> Vec<DocView> {
    docs.iter()
        .map(|d| {
            (
                d.id,
                d.text.clone(),
                d.tables.iter().map(TableView::of).collect(),
            )
        })
        .collect()
}

/// The segmentation `segment_page` replaces.
mod reference {
    use super::*;

    /// A cell's quantity: the extractor's first mention in the trimmed
    /// cell, unless the cell is empty or a placeholder.
    pub fn cell_quantity(cell: &str) -> Option<QuantityMention> {
        let trimmed = cell.trim().trim_end_matches('*').trim();
        if trimmed.is_empty() {
            return None;
        }
        let placeholder = matches!(
            trimmed.to_lowercase().as_str(),
            "--" | "-" | "—" | "n/a" | "na" | "nil" | "none" | "tbd" | "?"
        );
        if placeholder {
            return None;
        }
        extract_quantities(trimmed).into_iter().next()
    }

    fn token_set(text: &str) -> BTreeSet<String> {
        tokenize(text)
            .into_iter()
            .filter(|t| t.is_wordlike() || t.kind == TokenKind::Number)
            .map(|t| light_stem(&t.text))
            .collect()
    }

    fn overlap_coefficient(a: &BTreeSet<String>, b: &BTreeSet<String>) -> f64 {
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let inter = a.intersection(b).count();
        inter as f64 / a.len().min(b.len()) as f64
    }

    fn full_text(t: &TableView) -> String {
        let mut s = t.caption.clone();
        for row in &t.cells {
            s.push(' ');
            s.push_str(&row.join(" "));
        }
        s
    }

    pub fn table(raw: &RawTable) -> TableView {
        let n_rows = raw.rows.len();
        let n_cols = raw.rows.iter().map(Vec::len).max().unwrap_or(0);
        let mut cells: Vec<Vec<String>> = raw
            .rows
            .iter()
            .map(|r| {
                let mut r = r.clone();
                r.resize(n_cols, String::new());
                r
            })
            .collect();
        for row in &mut cells {
            for c in row.iter_mut() {
                *c = c.trim().to_string();
            }
        }

        let numeric = |s: &String| cell_quantity(s).is_some();

        let th_row = raw
            .header_flags
            .first()
            .is_some_and(|f| !f.is_empty() && f.iter().all(|&h| h));
        let mostly_text_first_row = n_rows > 1
            && cells[0].iter().filter(|c| !c.is_empty()).count() > 0
            && cells[0].iter().filter(|c| numeric(c)).count() * 3
                <= cells[0].iter().filter(|c| !c.is_empty()).count()
            && cells[1..].iter().any(|r| r.iter().any(numeric));
        let header_rows = usize::from(th_row || mostly_text_first_row);

        let th_col = raw
            .header_flags
            .iter()
            .filter(|f| !f.is_empty())
            .all(|f| f[0])
            && raw.header_flags.iter().any(|f| !f.is_empty());
        let first_col: Vec<&String> = cells
            .iter()
            .skip(header_rows)
            .filter_map(|r| r.first())
            .collect();
        let mostly_text_first_col = n_cols > 1
            && !first_col.is_empty()
            && first_col.iter().filter(|c| numeric(c)).count() * 3
                <= first_col.iter().filter(|c| !c.is_empty()).count().max(1)
            && first_col.iter().any(|c| !c.is_empty());
        let header_cols = usize::from((th_col && !th_row) || mostly_text_first_col);

        let caption_hint = unit_from_header(&raw.caption);
        let col_hints: Vec<(Unit, Option<f64>)> = (0..n_cols)
            .map(|c| {
                if header_rows > 0 {
                    unit_from_header(&cells[0][c])
                } else {
                    (Unit::None, None)
                }
            })
            .collect();
        let row_hints: Vec<(Unit, Option<f64>)> = (0..n_rows)
            .map(|r| {
                if header_cols > 0 {
                    unit_from_header(&cells[r][0])
                } else {
                    (Unit::None, None)
                }
            })
            .collect();

        let mut quantities = BTreeMap::new();
        for r in header_rows..n_rows {
            for c in header_cols..n_cols {
                if let Some(mut q) = cell_quantity(&cells[r][c]) {
                    if q.unit == Unit::None {
                        for (u, _) in [col_hints[c], row_hints[r], caption_hint] {
                            if u != Unit::None {
                                q.unit = u;
                                break;
                            }
                        }
                    }
                    #[allow(clippy::float_cmp)]
                    if q.value == q.unnormalized
                        && !matches!(q.unit, Unit::Percent | Unit::BasisPoints)
                    {
                        let h = col_hints[c].1.or(row_hints[r].1).or(caption_hint.1);
                        if let Some(m) = h {
                            q.value *= m;
                        }
                    }
                    quantities.insert((r, c), fields(&q));
                }
            }
        }
        TableView {
            caption: raw.caption.clone(),
            cells,
            n_rows,
            n_cols,
            header_rows,
            header_cols,
            quantities,
            col_hints: col_hints.into_iter().map(hint).collect(),
            row_hints: row_hints.into_iter().map(hint).collect(),
            caption_hint: hint(caption_hint),
        }
    }

    pub fn segment_page(page: &RawPage, cfg: &SegmentConfig, first_id: usize) -> Vec<DocView> {
        let tables: Vec<TableView> = page.tables.iter().map(table).collect();
        let table_sets: Vec<BTreeSet<String>> =
            tables.iter().map(|t| token_set(&full_text(t))).collect();
        let mut docs = Vec::new();
        let mut next_id = first_id;
        for (pi, para) in page.paragraphs.iter().enumerate() {
            let pset = token_set(para);
            if pset.len() < cfg.min_paragraph_tokens {
                continue;
            }
            let mut related = Vec::new();
            for (ti, tset) in table_sets.iter().enumerate() {
                let sim = overlap_coefficient(&pset, tset);
                let adjacent = page
                    .table_positions
                    .get(ti)
                    .is_some_and(|&pos| pos == pi + 1 || pos == pi);
                let threshold = if adjacent {
                    cfg.adjacent_threshold
                } else {
                    cfg.similarity_threshold
                };
                if sim >= threshold {
                    related.push(ti);
                }
            }
            if !related.is_empty() {
                let related = related.iter().map(|&ti| tables[ti].clone()).collect();
                docs.push((next_id, para.clone(), related));
                next_id += 1;
            }
        }
        docs
    }
}

/// Pages of generated documents, three to a page: the smoke corpus that
/// `ci.sh` aligns (60 documents at seed 20190408), then the benchmark's
/// 1,800-document corpus at two other seeds.
fn corpora() -> &'static [Vec<RawPage>] {
    static PAGES: OnceLock<Vec<Vec<RawPage>>> = OnceLock::new();
    PAGES.get_or_init(|| {
        [(60, 20190408), (1800, 3), (1800, 4)]
            .into_iter()
            .map(|(n_documents, seed)| {
                let cfg = CorpusConfig {
                    n_documents,
                    seed,
                    ..Default::default()
                };
                corpus_pages(&cfg, 3)
                    .iter()
                    .map(|html| parse_page(html))
                    .collect()
            })
            .collect()
    })
}

#[test]
fn every_corpus_cell_parses_as_the_extractor_reads_it() {
    let mut cells = 0;
    for page in corpora().iter().flatten() {
        for cell in page.tables.iter().flat_map(|t| t.rows.iter().flatten()) {
            let got = parse_cell_quantity(cell);
            let want = reference::cell_quantity(cell);
            assert_eq!(
                got.as_ref().map(fields),
                want.as_ref().map(fields),
                "cell {cell:?}"
            );
            cells += 1;
        }
    }
    assert!(cells > 200_000, "only {cells} cells");
}

/// Segment `page` both ways, require equal documents, and return them.
fn segment_as_reference(page: &RawPage, first_id: usize) -> Vec<Document> {
    let cfg = SegmentConfig::default();
    let docs = segment_page(page, &cfg, first_id);
    assert_eq!(
        view(&docs),
        reference::segment_page(page, &cfg, first_id),
        "page {page:?}"
    );
    docs
}

#[test]
fn corpus_pages_segment_as_the_reference() {
    let mut documents = 0;
    for pages in corpora() {
        for page in pages {
            documents += segment_as_reference(page, documents).len();
        }
    }
    assert!(documents > 3000, "only {documents} documents");
}

#[test]
fn edge_pages_segment_as_the_reference() {
    let pages = [
        // The pages of the table crate's edge-case tests.
        "<p>The <b><i>net <u>income</u></i></b> was <span class=\"x\">42</span>.</p>",
        "<table><caption>empty</caption></table><p>some text here</p>",
        "<table><tr><th>h1</th><td>v1</td></tr><tr><td>a</td><td>1</td></tr></table>",
        "<table><tr><td>37&#8364;</td></tr></table>",
        "<table><tr><td>1</td></tr></table>trailing words here",
        "<p>a long paragraph with many interesting words inside it</p>",
        "<table><tr><td>1</td><td>2</td></tr></table>",
        "<p>The sales figures for widgets and gadgets rose sharply this year.</p>\
         <table><tr><th>item</th><th>sales</th></tr>\
         <tr><td>widgets</td><td>500</td></tr><tr><td>gadgets</td><td>700</td></tr></table>\
         <p>Widgets outsold gadgets in every region according to the sales table.</p>",
        "<p>completely unrelated prose about gardening and weather patterns</p>\
         <table><tr><th>item</th><th>sales</th></tr><tr><td>widgets</td><td>500</td></tr></table>",
        // Non-ASCII case: a Greek final sigma lowercases to `ς` only at
        // the end of a word, and Turkish `İ` to `i` plus a combining dot.
        "<p>Η ΟΔΟΣ προς την οδος İstanbul İSTANBUL istanbul carried 4,200 cars daily.</p>\
         <table><caption>ΟΔΟΣ traffic</caption><tr><th>οδός</th><th>İstanbul</th></tr>\
         <tr><td>ΟΔΟΣ</td><td>4,200</td></tr><tr><td>οδοσ</td><td>٣٤٥</td></tr></table>",
        // One table related to three paragraphs, then one related to none.
        "<p>Sales of widgets rose to 500 units in the north region this year.</p>\
         <p>Gadgets sold 700 units, more than widgets did in any region.</p>\
         <table><tr><th>item</th><th>units sold</th></tr>\
         <tr><td>widgets</td><td>500</td></tr><tr><td>gadgets</td><td>700</td></tr></table>\
         <p>Across every region, widgets and gadgets together sold 1,200 units.</p>\
         <table><tr><th>planet</th><th>moons</th></tr><tr><td>Mars</td><td>2</td></tr></table>",
        // <th> header rows and columns, a numeric first row, and a rotated
        // table with its attributes down the first column.
        "<p>The Focus E costs 34,900 euros while the A3 costs 36,900 euros and emits 105 g/km.</p>\
         <table><tr><th></th><th>Focus E</th><th>A3</th></tr>\
         <tr><th>German MSRP</th><td>34900</td><td>36900</td></tr>\
         <tr><th>Emission (g/km)</th><td>0</td><td>105</td></tr></table>\
         <p>Quarterly revenue was 3,263 in 2013 and 3,193 in 2012 (in Mio), up 2.2% overall.</p>\
         <table><caption>Income (in Mio)</caption><tr><td>2013</td><td>2012</td></tr>\
         <tr><td>3,263</td><td>3,193</td></tr><tr><td>2.2%</td><td>n/a</td></tr></table>\
         <table><tr><td></td><td>Focus E</td><td>A3</td><td>VW Golf</td></tr>\
         <tr><td>German MSRP</td><td>34900</td><td>36900</td><td>33800</td></tr>\
         <tr><td>Emission (g/km)</td><td>0</td><td>105</td><td>122</td></tr></table>",
        // A <th> row over a single data row, placeholders and stars.
        "<p>Margins reached 12.7% on sales of $900 million, with profit at 114 million.</p>\
         <table><tr><th>metric</th><th>value ($ Millions)</th></tr>\
         <tr><td>Margin</td><td>12.7%*</td></tr><tr><td>Sales</td><td> 900 </td></tr>\
         <tr><td>Profit</td><td>--</td></tr></table>",
        // Degenerate tables: headers only, ragged rows, an empty row, and
        // spelled-out numbers in cells.
        "<p>Only headers and ragged rows report twenty cases and 7 more cases.</p>\
         <table><tr><th>only</th><th>headers</th><th>cases</th></tr></table>\
         <table><tr><td>ragged</td></tr><tr><td>cases</td><td>7</td><td>twenty</td></tr>\
         <tr></tr><tr><td>Twenty-five</td></tr></table>",
    ];
    let docs: Vec<Vec<Document>> = pages
        .iter()
        .enumerate()
        .map(|(i, html)| segment_as_reference(&parse_page(html), 10 * i))
        .collect();
    // The shared table reaches all three paragraphs' documents.
    assert_eq!(docs[10].len(), 3);
    assert!(docs[10].iter().all(|d| d.tables.len() == 1));
}
