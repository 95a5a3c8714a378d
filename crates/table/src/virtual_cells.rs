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

/// A count per aggregate kind, indexed by [`AggregationKind::index`].
pub type KindCounts = [usize; AggregationKind::ALL.len()];

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
    let mut sink = Sink::new(Vec::new(), usize::MAX, &AggregationKind::ALL);
    generate(table, table_idx, cfg, &mut sink);
    sink.out
}

/// Generate the virtual cells of `table` into `sink`: rows, then columns,
/// each line's aggregates then its pairs. Generation stops once `sink` is
/// full — a wide-and-tall adversarial table has a quadratic pair space
/// per line times `rows + cols` lines, and the cap bounds both the work
/// and the memory instead of letting one table starve the document.
fn generate(table: &Table, table_idx: usize, cfg: &VirtualCellConfig, sink: &mut Sink) {
    let mut cells: Vec<LineCell> = Vec::new();
    let cell = |r: usize, c: usize| {
        table.quantity(r, c).map(|q| LineCell {
            pos: (r, c),
            value: q.value,
            unit: q.unit,
        })
    };
    for r in table.data_rows() {
        if sink.full() {
            break;
        }
        cells.clear();
        cells.extend(table.data_cols().filter_map(|c| cell(r, c)));
        let total = table.data_cols().len();
        line_aggregates(&cells, total, Orientation::Row(r), table_idx, cfg, sink);
    }
    for c in table.data_cols() {
        if sink.full() {
            break;
        }
        cells.clear();
        cells.extend(table.data_rows().filter_map(|r| cell(r, c)));
        let total = table.data_rows().len();
        line_aggregates(&cells, total, Orientation::Column(c), table_idx, cfg, sink);
    }
}

/// Bounded candidate collector over a table's full generation order.
/// Every virtual cell takes the next place against `max`, whether its
/// kind is live (built and pushed) or dead (only counted), so the cap
/// stops generation where generating every kind would have stopped.
struct Sink {
    out: Vec<TableMention>,
    /// Places taken in the current table's generation order.
    taken: usize,
    max: usize,
    /// Set once the current table reached `max`.
    truncated: bool,
    /// Per kind: build its cells (`true`) or only count them.
    live: [bool; AggregationKind::ALL.len()],
    /// Per kind, the dead cells counted so far.
    ungenerated: KindCounts,
}

impl Sink {
    fn new(out: Vec<TableMention>, max: usize, live: &[AggregationKind]) -> Sink {
        let mut flags = [false; AggregationKind::ALL.len()];
        for &k in live {
            flags[k.index()] = true;
        }
        Sink {
            out,
            taken: 0,
            max,
            truncated: false,
            live: flags,
            ungenerated: [0; AggregationKind::ALL.len()],
        }
    }

    fn full(&mut self) -> bool {
        if self.taken >= self.max {
            self.truncated = true;
            return true;
        }
        false
    }

    /// Take the next place for a cell of `kind`: `true` when the caller
    /// should build it, `false` past the cap or when `kind` is dead (the
    /// cell is then counted instead).
    fn admit(&mut self, kind: AggregationKind) -> bool {
        if self.full() {
            return false;
        }
        self.taken += 1;
        if self.live[kind.index()] {
            return true;
        }
        self.ungenerated[kind.index()] += 1;
        false
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
        let values = || cells.iter().map(|c| c.value);
        if cfg.sums {
            push_line(
                out,
                table_idx,
                AggregationKind::Sum,
                cells,
                values().sum(),
                unit,
                orientation,
            );
        }
        if cfg.extended {
            let n = cells.len() as f64;
            push_line(
                out,
                table_idx,
                AggregationKind::Average,
                cells,
                values().sum::<f64>() / n,
                unit,
                orientation,
            );
            let max = values().fold(f64::NEG_INFINITY, f64::max);
            let min = values().fold(f64::INFINITY, f64::min);
            push_line(
                out,
                table_idx,
                AggregationKind::Max,
                cells,
                max,
                unit,
                orientation,
            );
            push_line(
                out,
                table_idx,
                AggregationKind::Min,
                cells,
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
    cells: &[LineCell],
    value: f64,
    unit: Unit,
    orientation: Orientation,
) {
    if !value.is_finite() || !out.admit(kind) {
        return;
    }
    out.out.push(TableMention {
        table: table_idx,
        kind: TableMentionKind::Aggregate(kind),
        cells: cells.iter().map(|c| c.pos).collect(),
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
    if !out.admit(kind) {
        return;
    }
    out.out.push(TableMention {
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
    all_table_mentions_capped(tables, cfg, usize::MAX, &AggregationKind::ALL).targets
}

/// What [`all_table_mentions_capped`] generated for a document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableMentions {
    /// The single cells, then each table's virtual cells of the live
    /// kinds, in generation order.
    pub targets: Vec<TableMention>,
    /// Indices of the tables whose virtual-cell generation stopped at the
    /// cap.
    pub truncated_tables: Vec<usize>,
    /// Per kind, the virtual cells of dead kinds: counted in the
    /// generation order and against the cap, never built.
    pub ungenerated: KindCounts,
}

/// Budgeted [`all_table_mentions`] that builds only the aggregate kinds
/// in `live`: virtual-cell generation for each table stops at
/// `max_cells_per_table` places of its full generation order, and a cell
/// of a kind outside `live` takes its place there but is only counted,
/// in [`TableMentions::ungenerated`]. The targets are therefore exactly
/// the live kinds' members of the list that generating every kind under
/// the same cap yields, in the same order, and the truncated tables are
/// the same. The truncated tables let callers surface a diagnostic per
/// degraded table.
pub fn all_table_mentions_capped(
    tables: &[Table],
    cfg: &VirtualCellConfig,
    max_cells_per_table: usize,
    live: &[AggregationKind],
) -> TableMentions {
    let singles = crate::extract::document_single_cells(tables);
    let mut sink = Sink::new(singles, max_cells_per_table, live);
    let mut truncated_tables = Vec::new();
    for (i, t) in tables.iter().enumerate() {
        sink.taken = 0;
        sink.truncated = false;
        generate(t, i, cfg, &mut sink);
        if sink.truncated {
            truncated_tables.push(i);
        }
    }
    TableMentions {
        targets: sink.out,
        truncated_tables,
        ungenerated: sink.ungenerated,
    }
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
        let cfg = VirtualCellConfig::default();
        let tables = [health_table()];
        let singles = crate::extract::document_single_cells(&tables).len();
        let all = all_table_mentions_capped(&tables, &cfg, usize::MAX, &AggregationKind::ALL);
        assert!(all.truncated_tables.is_empty());
        let cap = (all.targets.len() - singles) / 2;
        let some = all_table_mentions_capped(&tables, &cfg, cap, &AggregationKind::ALL);
        assert_eq!(some.truncated_tables, vec![0]);
        assert_eq!(some.targets.len(), singles + cap);
        // The capped prefix is a prefix of the uncapped list — generation
        // order is deterministic, so clean inputs below the cap are
        // bit-identical with and without the budget.
        assert_eq!(&all.targets[..singles + cap], &some.targets[..]);
    }

    /// `targets` without the aggregates whose kind is not in `live`, and
    /// the count per kind of what was removed.
    fn without_dead(targets: &[TableMention], live: &[AggregationKind]) -> TableMentions {
        let mut kept = TableMentions::default();
        for t in targets {
            match t.aggregation() {
                Some(k) if !live.contains(&k) => kept.ungenerated[k.index()] += 1,
                _ => kept.targets.push(t.clone()),
            }
        }
        kept
    }

    #[test]
    fn dead_kinds_are_counted_not_built() {
        let cfg = VirtualCellConfig {
            extended: true,
            ..Default::default()
        };
        let tables = [health_table(), wide_table()];
        let all = all_table_mentions_capped(&tables, &cfg, usize::MAX, &AggregationKind::ALL);
        assert_eq!(all.ungenerated, [0; AggregationKind::ALL.len()]);
        use AggregationKind::*;
        for live in [
            &[][..],
            &[Sum],
            &[Percentage, Min],
            &[ChangeRatio, Difference],
        ] {
            let got = all_table_mentions_capped(&tables, &cfg, usize::MAX, live);
            let want = without_dead(&all.targets, live);
            assert_eq!(got.targets, want.targets, "live {live:?}");
            assert_eq!(got.ungenerated, want.ungenerated, "live {live:?}");
            assert!(got.truncated_tables.is_empty());
        }
    }

    #[test]
    fn cap_counts_dead_kinds_in_the_full_order() {
        // Every kind is generated in each line, so any cap below the
        // table's total cuts through live and dead kinds alike; the live
        // list must stop exactly where the full list stops.
        let cfg = VirtualCellConfig::default();
        let tables = [wide_table(), health_table()];
        use AggregationKind::*;
        for cap in [0, 1, 7, 100, 1_000] {
            let all = all_table_mentions_capped(&tables, &cfg, cap, &AggregationKind::ALL);
            for live in [&[][..], &[Sum], &[ChangeRatio], &[Difference, Percentage]] {
                let got = all_table_mentions_capped(&tables, &cfg, cap, live);
                let want = without_dead(&all.targets, live);
                assert_eq!(got.targets, want.targets, "cap {cap} live {live:?}");
                assert_eq!(got.ungenerated, want.ungenerated, "cap {cap} live {live:?}");
                assert_eq!(got.truncated_tables, all.truncated_tables, "cap {cap}");
            }
        }
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
