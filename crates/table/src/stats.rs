//! Table statistics (rows, columns, single cells, virtual cells) — the
//! quantities reported per domain in Table IX of the paper.

use crate::model::Table;
use crate::virtual_cells::{virtual_cells, VirtualCellConfig};

/// Statistics of one table (or averages over many).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TableStats {
    /// Data rows.
    pub rows: f64,
    /// Data columns.
    pub columns: f64,
    /// Single-cell quantity mentions.
    pub single_cells: f64,
    /// Virtual-cell quantity mentions.
    pub virtual_cells: f64,
}

/// Compute statistics for one table.
pub fn table_stats(table: &Table, cfg: &VirtualCellConfig) -> TableStats {
    TableStats {
        rows: table.data_rows().len() as f64,
        columns: table.data_cols().len() as f64,
        single_cells: table.quantity_count() as f64,
        virtual_cells: virtual_cells(table, 0, cfg).len() as f64,
    }
}

/// Average statistics over many tables (Table IX reports per-domain
/// averages).
pub fn average_stats<'a>(
    tables: impl IntoIterator<Item = &'a Table>,
    cfg: &VirtualCellConfig,
) -> TableStats {
    let mut acc = TableStats::default();
    let mut n = 0usize;
    for t in tables {
        let s = table_stats(t, cfg);
        acc.rows += s.rows;
        acc.columns += s.columns;
        acc.single_cells += s.single_cells;
        acc.virtual_cells += s.virtual_cells;
        n += 1;
    }
    if n > 0 {
        let n = n as f64;
        acc.rows /= n;
        acc.columns /= n;
        acc.single_cells /= n;
        acc.virtual_cells /= n;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(grid: &[&[&str]]) -> Table {
        Table::from_grid(
            "",
            grid.iter()
                .map(|r| r.iter().map(|s| s.to_string()).collect())
                .collect(),
        )
    }

    #[test]
    fn stats_of_small_table() {
        let table = t(&[&["h", "a", "b"], &["x", "1", "2"], &["y", "3", "4"]]);
        let s = table_stats(&table, &VirtualCellConfig::default());
        assert_eq!(s.rows, 2.0);
        assert_eq!(s.columns, 2.0);
        assert_eq!(s.single_cells, 4.0);
        assert!(s.virtual_cells > 0.0);
    }

    #[test]
    fn averages() {
        let t1 = t(&[&["h", "a"], &["x", "1"], &["y", "2"]]);
        let t2 = t(&[
            &["h", "a", "b", "c"],
            &["x", "1", "2", "3"],
            &["y", "4", "5", "6"],
        ]);
        let avg = average_stats([&t1, &t2], &VirtualCellConfig::default());
        assert_eq!(avg.rows, 2.0);
        assert_eq!(avg.columns, 2.0); // (1 + 3) / 2
        assert_eq!(avg.single_cells, (2.0 + 6.0) / 2.0);
    }

    #[test]
    fn empty_input_gives_zero() {
        let avg = average_stats(std::iter::empty(), &VirtualCellConfig::default());
        assert_eq!(avg, TableStats::default());
    }

    #[test]
    fn zero_row_and_zero_col_tables_do_not_panic() {
        // Completely empty grid.
        let empty = Table::from_grid("", Vec::new());
        let s = table_stats(&empty, &VirtualCellConfig::default());
        assert_eq!(s, TableStats::default());
        // Rows exist but have no columns.
        let hollow = Table::from_grid("", vec![Vec::new(), Vec::new()]);
        let s = table_stats(&hollow, &VirtualCellConfig::default());
        assert_eq!(s.columns, 0.0);
        assert_eq!(s.single_cells, 0.0);
        // Header-only table: one row, no data rows.
        let header_only = Table::from_grid("", vec![vec!["a".to_string(), "b".to_string()]]);
        let s = table_stats(&header_only, &VirtualCellConfig::default());
        assert_eq!(s.virtual_cells, 0.0);
        // Averaging over degenerate tables stays finite.
        let avg = average_stats([&empty, &hollow], &VirtualCellConfig::default());
        assert!(avg.rows.is_finite() && avg.virtual_cells.is_finite());
    }
}
