//! Property tests for the alignment store's content fingerprints
//! (DESIGN.md §15): deterministic across runs and processes, and
//! changing **iff** the fingerprinted content changes. These are the
//! invariants the store's invalidation logic rests on — a fingerprint
//! that drifted between runs would poison every warm entry, and one
//! that missed a content change would serve stale artifacts.

use briq_core::store::{budget_fingerprint, table_fingerprint, text_fingerprint, Fingerprint};
use briq_core::Budget;
use briq_table::Table;
use proptest::prelude::*;

/// Pinned fingerprints of fixed inputs. FNV-1a with its standard
/// constants has no per-process state (no ASLR-dependent hashing, no
/// random seeds), so these exact values must reproduce on every run,
/// host, and build — the cross-run half of the stability contract. If
/// this test ever fails, the hash function changed and every persisted
/// expectation about store behavior changed with it.
#[test]
fn fingerprints_are_stable_across_processes() {
    assert_eq!(
        text_fingerprint("A total of 123 patients reported side effects."),
        0x4c85bba71f0d2e2d
    );
    let t = Table::from_grid(
        "effects",
        vec![
            vec!["effect".into(), "patients".into()],
            vec!["Rash".into(), "35".into()],
        ],
    );
    assert_eq!(table_fingerprint(&t), 0xaeb38e467d2c170f);
    assert_eq!(budget_fingerprint(&Budget::default()), 0xc844d1be94213faa);
}

fn grid_strategy() -> impl Strategy<Value = Vec<Vec<String>>> {
    (1usize..4, 1usize..4).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec(
            proptest::collection::vec("[a-z0-9 .$%]{0,8}", cols..=cols),
            rows..=rows,
        )
    })
}

proptest! {
    /// Same text, same fingerprint — and the builder API agrees with the
    /// convenience function, so incremental code paths can mix them.
    #[test]
    fn text_fingerprint_is_deterministic(s in "[ -~]{0,64}") {
        prop_assert_eq!(text_fingerprint(&s), text_fingerprint(&s));
        let mut f = Fingerprint::new();
        f.str(&s);
        prop_assert_eq!(f.finish(), text_fingerprint(&s));
    }

    /// Different text, different fingerprint (FNV-1a collisions on short
    /// strings are astronomically unlikely; a failure here means the
    /// hashing lost input bytes, not that we got unlucky).
    #[test]
    fn text_fingerprint_tracks_content(a in "[ -~]{0,64}", b in "[ -~]{0,64}") {
        prop_assert_eq!(a == b, text_fingerprint(&a) == text_fingerprint(&b));
    }

    /// Rebuilding a table from the same grid and caption reproduces the
    /// fingerprint; every cell edit, caption edit, or shape change
    /// flips it.
    #[test]
    fn table_fingerprint_tracks_content(
        grid in grid_strategy(),
        caption in "[a-z ]{0,12}",
        edit_row in 0usize..4,
        edit_col in 0usize..4,
    ) {
        let table = Table::from_grid(&caption, grid.clone());
        prop_assert_eq!(
            table_fingerprint(&table),
            table_fingerprint(&Table::from_grid(&caption, grid.clone()))
        );

        // Caption edit.
        let recaptioned = Table::from_grid(&format!("{caption}!"), grid.clone());
        prop_assert_ne!(table_fingerprint(&table), table_fingerprint(&recaptioned));

        // Cell edit (append a marker so the cell definitely differs).
        let r = edit_row % grid.len();
        let c = edit_col % grid[0].len();
        let mut edited = grid.clone();
        edited[r][c].push('#');
        let edited = Table::from_grid(&caption, edited);
        prop_assert_ne!(table_fingerprint(&table), table_fingerprint(&edited));

        // Shape change: one extra row.
        let mut grown = grid.clone();
        grown.push(grid[0].clone());
        let grown = Table::from_grid(&caption, grown);
        prop_assert_ne!(table_fingerprint(&table), table_fingerprint(&grown));
    }

    /// Budget fingerprints are equal iff every budget field is equal —
    /// a budget change must invalidate (different budgets can truncate
    /// differently), and must do so deterministically.
    #[test]
    fn budget_fingerprint_tracks_every_field(
        a in (1usize..100, 1usize..1000),
        b in (1usize..100, 1usize..1000),
    ) {
        let budget = |(cells, edges): (usize, usize)| Budget {
            max_virtual_cells_per_table: cells,
            max_graph_edges: edges,
        };
        let (ba, bb) = (budget(a), budget(b));
        prop_assert_eq!(budget_fingerprint(&ba), budget_fingerprint(&ba));
        prop_assert_eq!(a == b, budget_fingerprint(&ba) == budget_fingerprint(&bb));
    }

    /// The builder mixes every piece it is fed: permuting the order of
    /// two distinct writes changes the digest (positional hashing, not
    /// a commutative checksum).
    #[test]
    fn fingerprint_builder_is_order_sensitive(x in 0u64..1_000_000_000_000, y in 0u64..1_000_000_000_000) {
        let digest = |a: u64, b: u64| {
            let mut f = Fingerprint::new();
            f.u64(a);
            f.u64(b);
            f.finish()
        };
        prop_assert_eq!(digest(x, y), digest(x, y));
        if x != y {
            prop_assert_ne!(digest(x, y), digest(y, x));
        }
    }
}
