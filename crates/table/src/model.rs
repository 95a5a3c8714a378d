//! Table and document model.
//!
//! A [`Table`] is a rectangular grid of cell strings with detected header
//! rows/columns, per-row/column unit and scale hints, and parsed cell
//! quantities. A [`Document`] is the unit BriQ aligns over: one paragraph
//! of text plus its related tables (§III). A [`TableMention`] is an
//! alignment target — either an explicit single cell or a virtual cell
//! computed by an aggregation function (§II-A).

use briq_text::cues::AggregationKind;
use briq_text::quantity::{parse_cell_quantity, QuantityMention};
use briq_text::units::{unit_from_header, Unit};
use std::collections::BTreeMap;

use crate::html::RawTable;

/// Reference to a cell by position within a document's table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellRef {
    /// Table index within the document.
    pub table: usize,
    /// Row index (0-based, includes header rows).
    pub row: usize,
    /// Column index (0-based, includes header columns).
    pub col: usize,
}

/// Whether an aggregate spans a row or a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Orientation {
    /// Cells taken from one row.
    Row(usize),
    /// Cells taken from one column.
    Column(usize),
}

/// Kind of a table mention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TableMentionKind {
    /// An explicit single-cell quantity.
    SingleCell,
    /// A composite (virtual-cell) quantity computed by an aggregation.
    Aggregate(AggregationKind),
}

impl TableMentionKind {
    /// Report name, matching the paper's result tables ("single-cell",
    /// "sum", "diff", "percent", "ratio", …).
    pub fn name(self) -> &'static str {
        match self {
            Self::SingleCell => "single-cell",
            Self::Aggregate(k) => k.name(),
        }
    }
}

/// An alignment target in a table: a single cell or a virtual cell.
#[derive(Debug, Clone, PartialEq)]
pub struct TableMention {
    /// Table index within the document.
    pub table: usize,
    /// Kind: single cell or aggregate.
    pub kind: TableMentionKind,
    /// Member cells: one `(row, col)` for single cells; two or more for
    /// virtual cells.
    pub cells: Vec<(usize, usize)>,
    /// Normalized numeric value (header scale hints applied; percentages
    /// and change ratios expressed in percent).
    pub value: f64,
    /// Value as written for single cells (feature f7); equals `value` for
    /// virtual cells computed from unnormalized members.
    pub unnormalized: f64,
    /// Surface form (cell text) for single cells; synthesized description
    /// for virtual cells.
    pub raw: String,
    /// Unit inherited from the member cells / headers.
    pub unit: Unit,
    /// Decimal precision of the surface form (0 for virtual cells).
    pub precision: u8,
    /// Row/column orientation for aggregates.
    pub orientation: Option<Orientation>,
}

impl TableMention {
    /// Order of magnitude of the normalized value.
    pub fn scale(&self) -> i32 {
        briq_text::numparse::order_of_magnitude(self.value)
    }

    /// True for virtual-cell (aggregate) mentions.
    pub fn is_aggregate(&self) -> bool {
        matches!(self.kind, TableMentionKind::Aggregate(_))
    }

    /// The aggregation kind, if this is a virtual cell.
    pub fn aggregation(&self) -> Option<AggregationKind> {
        match self.kind {
            TableMentionKind::Aggregate(k) => Some(k),
            TableMentionKind::SingleCell => None,
        }
    }
}

/// A parsed, normalized web table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Caption text (may be empty).
    pub caption: String,
    /// Rectangular grid of cell strings (padded with empty strings).
    pub cells: Vec<Vec<String>>,
    /// Number of rows (including headers).
    pub n_rows: usize,
    /// Number of columns (including headers).
    pub n_cols: usize,
    /// Leading header rows detected (0 or 1).
    pub header_rows: usize,
    /// Leading header columns detected (0 or 1).
    pub header_cols: usize,
    /// Parsed quantities of data cells, keyed by `(row, col)`.
    quantities: BTreeMap<(usize, usize), QuantityMention>,
    /// Per-column unit/scale hints from the column headers.
    pub col_hints: Vec<(Unit, Option<f64>)>,
    /// Per-row unit/scale hints from the row headers.
    pub row_hints: Vec<(Unit, Option<f64>)>,
    /// Unit/scale hint from the caption.
    pub caption_hint: (Unit, Option<f64>),
}

impl Table {
    /// Build a normalized [`Table`] from parsed HTML.
    pub fn from_raw(raw: &RawTable) -> Table {
        let n_rows = raw.rows.len();
        let n_cols = raw.rows.iter().map(Vec::len).max().unwrap_or(0);
        let cells: Vec<Vec<String>> = raw
            .rows
            .iter()
            .map(|r| {
                let mut row: Vec<String> = r.iter().map(|c| c.trim().to_string()).collect();
                row.resize(n_cols, String::new());
                row
            })
            .collect();

        // Every cell parsed once, row-major: header detection reads whether
        // a cell is numeric, and the data cells keep their parse.
        let mut parsed: Vec<Option<QuantityMention>> = cells
            .iter()
            .flatten()
            .map(|c| parse_cell_quantity(c))
            .collect();
        let numeric = |r: usize, c: usize| parsed[r * n_cols + c].is_some();

        // Header-row detection: explicit <th> flags, else content shape.
        let th_row = raw
            .header_flags
            .first()
            .is_some_and(|f| !f.is_empty() && f.iter().all(|&h| h));
        let mostly_text_first_row = n_rows > 1 && {
            let filled = cells[0].iter().filter(|c| !c.is_empty()).count();
            filled > 0
                && (0..n_cols).filter(|&c| numeric(0, c)).count() * 3 <= filled
                && parsed[n_cols..].iter().any(Option::is_some)
        };
        let header_rows = usize::from(th_row || mostly_text_first_row);

        // Header-column detection (rotated tables, Fig. 1b/1c).
        let th_col = raw
            .header_flags
            .iter()
            .filter(|f| !f.is_empty())
            .all(|f| f[0])
            && raw.header_flags.iter().any(|f| !f.is_empty());
        let mostly_text_first_col = n_cols > 1 && {
            let first_col = header_rows..n_rows;
            let filled = first_col
                .clone()
                .filter(|&r| !cells[r][0].is_empty())
                .count();
            filled > 0 && first_col.filter(|&r| numeric(r, 0)).count() * 3 <= filled
        };
        let header_cols = usize::from((th_col && !th_row) || mostly_text_first_col);

        // Unit/scale hints.
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

        let mut table = Table {
            caption: raw.caption.clone(),
            cells,
            n_rows,
            n_cols,
            header_rows,
            header_cols,
            quantities: BTreeMap::new(),
            col_hints,
            row_hints,
            caption_hint,
        };
        for r in table.data_rows() {
            for c in table.data_cols() {
                if let Some(q) = parsed[r * n_cols + c].take() {
                    let q = table.apply_hints(q, r, c);
                    table.quantities.insert((r, c), q);
                }
            }
        }
        table
    }

    /// Construct directly from a grid of strings (tests, corpus synthesis).
    pub fn from_grid(caption: &str, grid: Vec<Vec<String>>) -> Table {
        let header_flags = grid.iter().map(|r| vec![false; r.len()]).collect();
        Table::from_raw(&RawTable {
            caption: caption.to_string(),
            rows: grid,
            header_flags,
        })
    }

    /// Cell `(r, c)`'s parsed quantity with the header hints applied.
    fn apply_hints(&self, mut q: QuantityMention, r: usize, c: usize) -> QuantityMention {
        // Fill unit from hints: column, then row, then caption.
        if q.unit == Unit::None {
            for (u, _) in [self.col_hints[c], self.row_hints[r], self.caption_hint] {
                if u != Unit::None {
                    q.unit = u;
                    break;
                }
            }
        }
        // Apply scale hint only when the cell itself carried no
        // scale word (value still equals the literal numeral),
        // and never to percentages.
        #[allow(clippy::float_cmp)]
        if q.value == q.unnormalized && !matches!(q.unit, Unit::Percent | Unit::BasisPoints) {
            let hint = self.col_hints[c]
                .1
                .or(self.row_hints[r].1)
                .or(self.caption_hint.1);
            if let Some(m) = hint {
                q.value *= m;
            }
        }
        q
    }

    /// Parsed quantity of cell `(r, c)`, if it is a data cell holding one.
    pub fn quantity(&self, r: usize, c: usize) -> Option<&QuantityMention> {
        self.quantities.get(&(r, c))
    }

    /// Iterate over all parsed data-cell quantities.
    pub fn quantities(&self) -> impl Iterator<Item = (&(usize, usize), &QuantityMention)> {
        self.quantities.iter()
    }

    /// Number of data cells holding parsed quantities.
    pub fn quantity_count(&self) -> usize {
        self.quantities.len()
    }

    /// Concatenated text of row `r` (headers included) — the table-mention
    /// local context of feature f2 is this plus [`Table::col_text`].
    pub fn row_text(&self, r: usize) -> String {
        self.cells[r].join(" ")
    }

    /// Concatenated text of column `c` (headers included).
    pub fn col_text(&self, c: usize) -> String {
        self.cells
            .iter()
            .map(|row| row[c].as_str())
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Entire table content including caption — the table-mention global
    /// context of feature f3.
    pub fn full_text(&self) -> String {
        let mut s = self.caption.clone();
        for row in &self.cells {
            s.push(' ');
            s.push_str(&row.join(" "));
        }
        s
    }

    /// Data row indices (header rows excluded).
    pub fn data_rows(&self) -> std::ops::Range<usize> {
        self.header_rows..self.n_rows
    }

    /// Data column indices (header columns excluded).
    pub fn data_cols(&self) -> std::ops::Range<usize> {
        self.header_cols..self.n_cols
    }
}

briq_json::json_enum!(Orientation { Row(usize), Column(usize) });
briq_json::json_enum!(TableMentionKind { SingleCell, Aggregate(AggregationKind) });
briq_json::json_struct!(TableMention {
    table,
    kind,
    cells,
    value,
    unnormalized,
    raw,
    unit,
    precision,
    orientation,
});

/// A coherent document: one paragraph plus its related tables (§III).
#[derive(Debug, Clone, PartialEq)]
pub struct Document {
    /// Document id (unique within a page/corpus run).
    pub id: usize,
    /// The paragraph text.
    pub text: String,
    /// Related tables.
    pub tables: Vec<Table>,
}

impl Document {
    /// Create a document from a paragraph and tables.
    pub fn new(id: usize, text: impl Into<String>, tables: Vec<Table>) -> Self {
        Document {
            id,
            text: text.into(),
            tables,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use briq_text::units::Currency;

    fn grid(rows: &[&[&str]]) -> Vec<Vec<String>> {
        rows.iter()
            .map(|r| r.iter().map(|s| s.to_string()).collect())
            .collect()
    }

    #[test]
    fn header_row_detected_by_content() {
        let t = Table::from_grid(
            "",
            grid(&[
                &["side effects", "male", "female", "total"],
                &["Rash", "15", "20", "35"],
                &["Depression", "13", "25", "38"],
            ]),
        );
        assert_eq!(t.header_rows, 1);
        assert_eq!(t.header_cols, 1);
        assert_eq!(t.quantity(1, 1).unwrap().value, 15.0);
        assert!(t.quantity(0, 1).is_none());
        assert!(t.quantity(1, 0).is_none());
    }

    #[test]
    fn rotated_table_header_col() {
        // Fig. 1b: attribute names in the first column.
        let t = Table::from_grid(
            "",
            grid(&[
                &["", "Focus E", "A3", "VW Golf"],
                &["German MSRP", "34900", "36900", "33800"],
                &["Emission (g/km)", "0", "105", "122"],
            ]),
        );
        assert_eq!(t.header_cols, 1);
        assert_eq!(t.quantity(1, 2).unwrap().value, 36900.0);
    }

    #[test]
    fn caption_scale_hint_applied() {
        let t = Table::from_grid(
            "Income gains (in Mio)",
            grid(&[&["", "2013", "2012"], &["Total Revenue", "3,263", "3,193"]]),
        );
        let q = t.quantity(1, 1).unwrap();
        assert_eq!(q.value, 3.263e9);
        assert_eq!(q.unnormalized, 3263.0);
    }

    #[test]
    fn column_header_unit_and_scale() {
        let t = Table::from_grid(
            "",
            grid(&[&["Company", "($ Millions)"], &["Acme", "232.8"]]),
        );
        let q = t.quantity(1, 1).unwrap();
        assert_eq!(q.unit, Unit::Currency(Currency::Usd));
        assert_eq!(q.value, 232.8e6);
    }

    #[test]
    fn percent_cells_not_scaled() {
        let t = Table::from_grid(
            "Figures ($ Millions)",
            grid(&[
                &["metric", "value"],
                &["Margin", "12.7%"],
                &["Sales", "900"],
            ]),
        );
        assert_eq!(t.quantity(1, 1).unwrap().value, 12.7);
        assert_eq!(t.quantity(2, 1).unwrap().value, 900.0e6);
    }

    #[test]
    fn explicit_cell_scale_beats_hint() {
        let t = Table::from_grid(
            "Figures (in Mio)",
            grid(&[&["metric", "value"], &["Net", "$0.9 billion"]]),
        );
        assert_eq!(t.quantity(1, 1).unwrap().value, 0.9e9);
    }

    #[test]
    fn ragged_rows_padded() {
        let t = Table::from_grid("", grid(&[&["a", "b", "c"], &["1"]]));
        assert_eq!(t.n_cols, 3);
        assert_eq!(t.cells[1], vec!["1", "", ""]);
    }

    #[test]
    fn row_col_text() {
        let t = Table::from_grid("cap", grid(&[&["h1", "h2"], &["x", "5"]]));
        assert_eq!(t.row_text(1), "x 5");
        assert_eq!(t.col_text(1), "h2 5");
        assert!(t.full_text().starts_with("cap"));
    }

    #[test]
    fn all_numeric_table_has_no_headers() {
        let t = Table::from_grid("", grid(&[&["1", "2"], &["3", "4"]]));
        assert_eq!(t.header_rows, 0);
        assert_eq!(t.header_cols, 0);
        assert_eq!(t.quantity_count(), 4);
    }

    #[test]
    fn mention_kind_names() {
        assert_eq!(TableMentionKind::SingleCell.name(), "single-cell");
        assert_eq!(
            TableMentionKind::Aggregate(AggregationKind::Sum).name(),
            "sum"
        );
    }
}
