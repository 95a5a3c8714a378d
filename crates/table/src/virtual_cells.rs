//! Virtual-cell generation for composite quantities (§II-A).
//!
//! For every table we generate candidates for the aggregation functions:
//!
//! * **sum / average / min / max** over entire rows and entire columns —
//!   `O(r + c)` candidates;
//! * **difference / percentage / change ratio** over pairs of cells in the
//!   same row or column — `O(binom(r,2) + binom(c,2))` candidates.
//!
//! These exist even when the table shows no explicit total, because the
//! surrounding text may still refer to one. The quadratic pair space is the
//! reason BriQ needs adaptive filtering (§V); generation itself applies
//! only cheap sanity pruning (unit compatibility, degenerate values) plus a
//! configurable per-line cell cap for pathological tables.

use briq_text::cues::AggregationKind;
use briq_text::units::Unit;

use crate::model::{Orientation, Table, TableMention, TableMentionKind};

/// Configuration for virtual-cell generation.
#[derive(Debug, Clone)]
pub struct VirtualCellConfig {
    /// Generate sum virtual cells.
    pub sums: bool,
    /// Generate difference virtual cells.
    pub differences: bool,
    /// Generate percentage virtual cells.
    pub percentages: bool,
    /// Generate change-ratio virtual cells.
    pub change_ratios: bool,
    /// Generate average/min/max (the extended set beyond the paper's
    /// evaluated four; §II-A keeps them in the framework).
    pub extended: bool,
    /// Cap on numeric cells per row/column considered for pair aggregates;
    /// lines longer than this are truncated (left-to-right / top-down).
    pub max_line_cells: usize,
    /// Require at least this fraction of a line's data cells to be numeric
    /// for line aggregates (sum/avg/min/max).
    pub min_numeric_fraction: f64,
}

impl Default for VirtualCellConfig {
    fn default() -> Self {
        VirtualCellConfig {
            sums: true,
            differences: true,
            percentages: true,
            change_ratios: true,
            extended: false,
            max_line_cells: 16,
            min_numeric_fraction: 0.6,
        }
    }
}

/// One numeric cell on a line.
#[derive(Clone, Copy)]
struct LineCell {
    pos: (usize, usize),
    value: f64,
    unit: Unit,
}

/// Generate all virtual cells for `table` under `cfg`, without a cap.
pub fn virtual_cells(
    table: &Table,
    table_idx: usize,
    cfg: &VirtualCellConfig,
) -> Vec<TableMention> {
    virtual_cells_capped(table, table_idx, cfg, usize::MAX).0
}

/// Generate virtual cells for `table`, stopping once `max_cells`
/// candidates exist. Returns the candidates and whether generation was
/// truncated — a wide-and-tall adversarial table has a quadratic pair
/// space per line times `rows + cols` lines, and the cap bounds both the
/// work and the memory instead of letting one table starve the document.
pub fn virtual_cells_capped(
    table: &Table,
    table_idx: usize,
    cfg: &VirtualCellConfig,
    max_cells: usize,
) -> (Vec<TableMention>, bool) {
    let mut sink = Sink {
        out: Vec::new(),
        max: max_cells,
        truncated: false,
    };
    // Rows.
    for r in table.data_rows() {
        if sink.full() {
            break;
        }
        let cells: Vec<LineCell> = table
            .data_cols()
            .filter_map(|c| {
                table.quantity(r, c).map(|q| LineCell {
                    pos: (r, c),
                    value: q.value,
                    unit: q.unit,
                })
            })
            .collect();
        let total = table.data_cols().len();
        line_aggregates(
            &cells,
            total,
            Orientation::Row(r),
            table_idx,
            cfg,
            &mut sink,
        );
    }
    // Columns.
    for c in table.data_cols() {
        if sink.full() {
            break;
        }
        let cells: Vec<LineCell> = table
            .data_rows()
            .filter_map(|r| {
                table.quantity(r, c).map(|q| LineCell {
                    pos: (r, c),
                    value: q.value,
                    unit: q.unit,
                })
            })
            .collect();
        let total = table.data_rows().len();
        line_aggregates(
            &cells,
            total,
            Orientation::Column(c),
            table_idx,
            cfg,
            &mut sink,
        );
    }
    (sink.out, sink.truncated)
}

/// Bounded candidate collector: refuses pushes past `max` and remembers
/// that it did.
struct Sink {
    out: Vec<TableMention>,
    max: usize,
    truncated: bool,
}

impl Sink {
    fn full(&mut self) -> bool {
        if self.out.len() >= self.max {
            self.truncated = true;
            return true;
        }
        false
    }

    fn push(&mut self, m: TableMention) {
        if !self.full() {
            self.out.push(m);
        }
    }
}

fn is_percentish(u: Unit) -> bool {
    matches!(u, Unit::Percent | Unit::BasisPoints)
}

fn units_compatible(cells: &[LineCell]) -> bool {
    // Percentages never aggregate with non-percentages — `900 + 5%` is
    // meaningless even though the 900 carries no explicit unit.
    let any_pct = cells.iter().any(|c| is_percentish(c.unit));
    let any_non_pct = cells.iter().any(|c| !is_percentish(c.unit));
    if any_pct && any_non_pct {
        return false;
    }
    let mut found: Option<Unit> = None;
    for c in cells {
        if c.unit == Unit::None {
            continue;
        }
        match found {
            None => found = Some(c.unit),
            Some(u) => {
                if !u.matches(c.unit) {
                    return false;
                }
            }
        }
    }
    true
}

fn common_unit(cells: &[LineCell]) -> Unit {
    cells
        .iter()
        .map(|c| c.unit)
        .find(|&u| u != Unit::None)
        .unwrap_or(Unit::None)
}

fn line_aggregates(
    cells: &[LineCell],
    line_len: usize,
    orientation: Orientation,
    table_idx: usize,
    cfg: &VirtualCellConfig,
    out: &mut Sink,
) {
    if cells.len() < 2 {
        return;
    }
    let cells = &cells[..cells.len().min(cfg.max_line_cells)];
    let numeric_fraction = cells.len() as f64 / line_len.max(1) as f64;

    // Full-line aggregates.
    if units_compatible(cells) && numeric_fraction >= cfg.min_numeric_fraction {
        let unit = common_unit(cells);
        let positions: Vec<(usize, usize)> = cells.iter().map(|c| c.pos).collect();
        let values: Vec<f64> = cells.iter().map(|c| c.value).collect();
        if cfg.sums {
            push_line(
                out,
                table_idx,
                AggregationKind::Sum,
                &positions,
                values.iter().sum(),
                unit,
                orientation,
            );
        }
        if cfg.extended {
            let n = values.len() as f64;
            push_line(
                out,
                table_idx,
                AggregationKind::Average,
                &positions,
                values.iter().sum::<f64>() / n,
                unit,
                orientation,
            );
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            push_line(
                out,
                table_idx,
                AggregationKind::Max,
                &positions,
                max,
                unit,
                orientation,
            );
            push_line(
                out,
                table_idx,
                AggregationKind::Min,
                &positions,
                min,
                unit,
                orientation,
            );
        }
    }

    // Pair aggregates.
    for i in 0..cells.len() {
        if out.full() {
            return;
        }
        for j in (i + 1)..cells.len() {
            let (a, b) = (cells[i], cells[j]);
            let pair_unit_ok =
                (a.unit == Unit::None || b.unit == Unit::None || a.unit.matches(b.unit))
                    && is_percentish(a.unit) == is_percentish(b.unit);
            if cfg.differences && pair_unit_ok {
                // |a − b|: text rarely mentions signed differences; the
                // larger-minus-smaller convention matches "up $70 million".
                let v = (a.value - b.value).abs();
                if v.is_finite() && v > 0.0 {
                    push_pair(
                        out,
                        table_idx,
                        AggregationKind::Difference,
                        a,
                        b,
                        v,
                        common_unit(&[a, b]),
                        orientation,
                    );
                }
            }
            if cfg.percentages {
                // a/b·100 and b/a·100 (both directions are plausible).
                for (x, y) in [(a, b), (b, a)] {
                    if y.value != 0.0 {
                        let v = x.value / y.value * 100.0;
                        if v.is_finite() && v > 0.0 && v <= 10_000.0 {
                            push_pair(
                                out,
                                table_idx,
                                AggregationKind::Percentage,
                                x,
                                y,
                                v,
                                Unit::Percent,
                                orientation,
                            );
                        }
                    }
                }
            }
            if cfg.change_ratios {
                // (a−b)/a·100, both directions, expressed in percent.
                for (x, y) in [(a, b), (b, a)] {
                    if x.value != 0.0 {
                        let v = (x.value - y.value) / x.value * 100.0;
                        if v.is_finite() && v.abs() > 1e-12 && v.abs() <= 10_000.0 {
                            push_pair(
                                out,
                                table_idx,
                                AggregationKind::ChangeRatio,
                                x,
                                y,
                                v.abs(),
                                Unit::Percent,
                                orientation,
                            );
                        }
                    }
                }
            }
        }
    }
}

fn push_line(
    out: &mut Sink,
    table_idx: usize,
    kind: AggregationKind,
    positions: &[(usize, usize)],
    value: f64,
    unit: Unit,
    orientation: Orientation,
) {
    if !value.is_finite() {
        return;
    }
    out.push(TableMention {
        table: table_idx,
        kind: TableMentionKind::Aggregate(kind),
        cells: positions.to_vec(),
        value,
        unnormalized: value,
        raw: format!("{}({:?})", kind.name(), orientation),
        unit,
        precision: 0,
        orientation: Some(orientation),
    });
}

#[allow(clippy::too_many_arguments)]
fn push_pair(
    out: &mut Sink,
    table_idx: usize,
    kind: AggregationKind,
    a: LineCell,
    b: LineCell,
    value: f64,
    unit: Unit,
    orientation: Orientation,
) {
    out.push(TableMention {
        table: table_idx,
        kind: TableMentionKind::Aggregate(kind),
        cells: vec![a.pos, b.pos],
        value,
        unnormalized: value,
        // The same bytes as Debug-formatting the two position tuples,
        // without the Debug builders: pair labels are quadratic in the
        // line length.
        raw: format!(
            "{}(({}, {}),({}, {}))",
            kind.name(),
            a.pos.0,
            a.pos.1,
            b.pos.0,
            b.pos.1
        ),
        unit,
        precision: 0,
        orientation: Some(orientation),
    });
}

/// All table mentions of a document: single cells plus virtual cells.
pub fn all_table_mentions(tables: &[Table], cfg: &VirtualCellConfig) -> Vec<TableMention> {
    all_table_mentions_capped(tables, cfg, usize::MAX).0
}

/// Budgeted variant of [`all_table_mentions`]: virtual-cell generation for
/// each table stops at `max_cells_per_table`. Returns the mentions plus
/// the indices of tables whose candidate lists were truncated, so callers
/// can surface a diagnostic per degraded table.
pub fn all_table_mentions_capped(
    tables: &[Table],
    cfg: &VirtualCellConfig,
    max_cells_per_table: usize,
) -> (Vec<TableMention>, Vec<usize>) {
    let mut out = crate::extract::document_single_cells(tables);
    let mut truncated_tables = Vec::new();
    for (i, t) in tables.iter().enumerate() {
        let (vc, truncated) = virtual_cells_capped(t, i, cfg, max_cells_per_table);
        if truncated {
            truncated_tables.push(i);
        }
        out.extend(vc);
    }
    (out, truncated_tables)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn health_table() -> Table {
        // Fig. 1a
        let grid: Vec<Vec<String>> = vec![
            vec!["side effects", "male", "female", "total"],
            vec!["Rash", "15", "20", "35"],
            vec!["Depression", "13", "25", "38"],
            vec!["Hypertension", "19", "15", "34"],
            vec!["Nausea", "5", "6", "11"],
            vec!["Eye Disorders", "2", "3", "5"],
        ]
        .into_iter()
        .map(|r| r.into_iter().map(String::from).collect())
        .collect();
        Table::from_grid("", grid)
    }

    #[test]
    fn column_sum_present() {
        let t = health_table();
        let vc = virtual_cells(&t, 0, &VirtualCellConfig::default());
        // Column 'total' (index 3) sums to 123 — the "total of 123
        // patients" target from Fig. 1a.
        let sum123 = vc.iter().find(|m| {
            m.kind == TableMentionKind::Aggregate(AggregationKind::Sum)
                && m.orientation == Some(Orientation::Column(3))
        });
        assert_eq!(sum123.unwrap().value, 123.0);
    }

    #[test]
    fn row_sums_present() {
        let t = health_table();
        let vc = virtual_cells(&t, 0, &VirtualCellConfig::default());
        let row1_sum = vc
            .iter()
            .find(|m| {
                m.kind == TableMentionKind::Aggregate(AggregationKind::Sum)
                    && m.orientation == Some(Orientation::Row(1))
            })
            .unwrap();
        assert_eq!(row1_sum.value, 15.0 + 20.0 + 35.0);
        assert_eq!(row1_sum.cells.len(), 3);
    }

    #[test]
    fn change_ratio_fig1c() {
        // ratio('890','876') ≈ 1.57% — "increased by 1.5%".
        let grid: Vec<Vec<String>> = vec![vec!["", "2013", "2012"], vec!["Income", "890", "876"]]
            .into_iter()
            .map(|r| r.into_iter().map(String::from).collect())
            .collect();
        let t = Table::from_grid("", grid);
        let vc = virtual_cells(&t, 0, &VirtualCellConfig::default());
        let ratio = vc
            .iter()
            .filter(|m| m.kind == TableMentionKind::Aggregate(AggregationKind::ChangeRatio))
            .find(|m| (m.value - 1.573).abs() < 0.01);
        assert!(ratio.is_some(), "{vc:?}");
    }

    #[test]
    fn differences_are_positive() {
        let t = health_table();
        let vc = virtual_cells(&t, 0, &VirtualCellConfig::default());
        for m in vc
            .iter()
            .filter(|m| m.kind == TableMentionKind::Aggregate(AggregationKind::Difference))
        {
            assert!(m.value > 0.0);
            assert_eq!(m.cells.len(), 2);
        }
    }

    #[test]
    fn extended_aggregates_off_by_default() {
        let t = health_table();
        let vc = virtual_cells(&t, 0, &VirtualCellConfig::default());
        assert!(!vc.iter().any(|m| matches!(
            m.kind,
            TableMentionKind::Aggregate(AggregationKind::Average)
                | TableMentionKind::Aggregate(AggregationKind::Max)
                | TableMentionKind::Aggregate(AggregationKind::Min)
        )));
    }

    #[test]
    fn extended_aggregates_on_demand() {
        let t = health_table();
        let cfg = VirtualCellConfig {
            extended: true,
            ..Default::default()
        };
        let vc = virtual_cells(&t, 0, &cfg);
        let max_col3 = vc
            .iter()
            .find(|m| {
                m.kind == TableMentionKind::Aggregate(AggregationKind::Max)
                    && m.orientation == Some(Orientation::Column(3))
            })
            .unwrap();
        assert_eq!(max_col3.value, 38.0);
        let avg = vc
            .iter()
            .find(|m| {
                m.kind == TableMentionKind::Aggregate(AggregationKind::Average)
                    && m.orientation == Some(Orientation::Column(3))
            })
            .unwrap();
        assert!((avg.value - 24.6).abs() < 1e-9);
    }

    #[test]
    fn mixed_units_block_line_aggregates() {
        let grid: Vec<Vec<String>> = vec![
            vec!["metric", "value"],
            vec!["Sales", "$900"],
            vec!["Margin", "12.7%"],
        ]
        .into_iter()
        .map(|r| r.into_iter().map(String::from).collect())
        .collect();
        let t = Table::from_grid("", grid);
        let vc = virtual_cells(&t, 0, &VirtualCellConfig::default());
        assert!(!vc.iter().any(
            |m| m.kind == TableMentionKind::Aggregate(AggregationKind::Sum)
                && m.orientation == Some(Orientation::Column(1))
        ));
    }

    #[test]
    fn line_cap_respected() {
        let mut grid: Vec<Vec<String>> = vec![(0..30).map(|i| format!("{i}")).collect()];
        grid.push((0..30).map(|i| format!("{}", i * 2)).collect());
        let t = Table::from_grid("", grid);
        let cfg = VirtualCellConfig {
            max_line_cells: 5,
            ..Default::default()
        };
        let vc = virtual_cells(&t, 0, &cfg);
        for m in &vc {
            assert!(m.cells.len() <= 5);
        }
    }

    #[test]
    fn counts_scale_with_config() {
        let t = health_table();
        let all = virtual_cells(&t, 0, &VirtualCellConfig::default()).len();
        let cfg = VirtualCellConfig {
            differences: false,
            percentages: false,
            change_ratios: false,
            ..Default::default()
        };
        let sums_only = virtual_cells(&t, 0, &cfg).len();
        assert!(sums_only < all);
        // 5 data rows + 3 data cols = 8 possible sums
        assert_eq!(sums_only, 8);
    }

    #[test]
    fn per_table_budget_truncates_and_reports() {
        let t = health_table();
        let (all, truncated) =
            virtual_cells_capped(&t, 0, &VirtualCellConfig::default(), usize::MAX);
        assert!(!truncated);
        let cap = all.len() / 2;
        let (some, truncated) = virtual_cells_capped(&t, 0, &VirtualCellConfig::default(), cap);
        assert!(truncated);
        assert_eq!(some.len(), cap);
        // The capped prefix is a prefix of the uncapped list — generation
        // order is deterministic, so clean inputs below the cap are
        // bit-identical with and without the budget.
        assert_eq!(&all[..cap], &some[..]);
        let (mentions, truncated_tables) =
            all_table_mentions_capped(&[health_table()], &VirtualCellConfig::default(), cap);
        assert_eq!(truncated_tables, vec![0]);
        assert!(!mentions.is_empty());
    }

    /// Header row and column, then `(r, c)` holding `100 r + c` for
    /// `r, c` in `1..=12`, so labels carry multi-digit indices.
    fn wide_table() -> Table {
        let name = |i: usize| char::from(b'a' + i as u8).to_string();
        let grid: Vec<Vec<String>> = (0..13)
            .map(|r| {
                (0..13)
                    .map(|c| match (r, c) {
                        (0, 0) => String::new(),
                        (0, c) => format!("col {}", name(c)),
                        (r, 0) => format!("row {}", name(r)),
                        (r, c) => (100 * r + c).to_string(),
                    })
                    .collect()
            })
            .collect();
        Table::from_grid("", grid)
    }

    #[test]
    fn raw_labels_are_pinned() {
        let cfg = VirtualCellConfig {
            extended: true,
            ..Default::default()
        };
        let vc = virtual_cells(&wide_table(), 0, &cfg);
        let raw = |kind: AggregationKind, cells: &[(usize, usize)]| {
            vc.iter()
                .find(|m| m.kind == TableMentionKind::Aggregate(kind) && m.cells == cells)
                .map(|m| m.raw.as_str())
        };
        let line = |kind: AggregationKind, orientation: Orientation| {
            vc.iter()
                .find(|m| {
                    m.kind == TableMentionKind::Aggregate(kind)
                        && m.orientation == Some(orientation)
                })
                .map(|m| m.raw.as_str())
        };
        use AggregationKind::*;
        let pairs = [
            (Difference, [(10, 2), (11, 2)], "diff((10, 2),(11, 2))"),
            (Difference, [(3, 9), (3, 12)], "diff((3, 9),(3, 12))"),
            (Percentage, [(11, 2), (10, 2)], "percent((11, 2),(10, 2))"),
            (
                Percentage,
                [(12, 10), (12, 11)],
                "percent((12, 10),(12, 11))",
            ),
            (ChangeRatio, [(1, 1), (12, 1)], "ratio((1, 1),(12, 1))"),
            (ChangeRatio, [(12, 12), (12, 4)], "ratio((12, 12),(12, 4))"),
        ];
        for (kind, cells, label) in pairs {
            assert_eq!(raw(kind, &cells), Some(label));
        }
        let lines = [
            (Sum, Orientation::Column(12), "sum(Column(12))"),
            (Sum, Orientation::Row(10), "sum(Row(10))"),
            (Average, Orientation::Row(1), "avg(Row(1))"),
            (Max, Orientation::Column(11), "max(Column(11))"),
            (Min, Orientation::Row(12), "min(Row(12))"),
        ];
        for (kind, orientation, label) in lines {
            assert_eq!(line(kind, orientation), Some(label));
        }
    }

    #[test]
    fn all_table_mentions_combines() {
        let t = health_table();
        let singles = crate::extract::single_cell_mentions(&t, 0).len();
        let all = all_table_mentions(&[t], &VirtualCellConfig::default());
        assert!(all.len() > singles);
        assert!(all.iter().take(singles).all(|m| !m.is_aggregate()));
    }
}

briq_json::json_struct!(VirtualCellConfig {
    sums,
    differences,
    percentages,
    change_ratios,
    extended,
    max_line_cells,
    min_numeric_fraction,
});
