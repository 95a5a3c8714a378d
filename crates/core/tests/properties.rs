//! Property-based tests for the core pipeline invariants.

use briq_core::features::{feature_vector, relative_difference, FeatureMask, FEATURE_COUNT};
use briq_core::filtering::{filter_mention, FilterConfig, FilterStats};
use briq_core::jaro::{jaro, jaro_winkler};
use briq_core::mention::{text_mentions, TextMention};
use briq_core::pipeline::{heuristic_prior, AlignOpts, Briq, BriqConfig};
use briq_table::{Document, Table, TableMention, TableMentionKind};
use briq_text::quantity::QuantityMention;
use briq_text::units::Unit;
use proptest::prelude::*;

fn mention(value: f64) -> TextMention {
    TextMention {
        id: 0,
        quantity: QuantityMention {
            raw: format!("{value}"),
            value,
            unnormalized: value,
            unit: Unit::None,
            precision: 0,
            approx: Default::default(),
            start: 0,
            end: 4,
        },
    }
}

fn target(value: f64) -> TableMention {
    TableMention {
        table: 0,
        kind: TableMentionKind::SingleCell,
        cells: vec![(1, 1)],
        value,
        unnormalized: value,
        raw: format!("{value}"),
        unit: Unit::None,
        precision: 0,
        orientation: None,
    }
}

proptest! {
    /// Jaro and Jaro-Winkler are symmetric, bounded, and reflexive.
    #[test]
    fn jaro_winkler_metric_properties(a in "[0-9a-z.,$%]{0,12}", b in "[0-9a-z.,$%]{0,12}") {
        let ab = jaro_winkler(&a, &b);
        let ba = jaro_winkler(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&ab));
        prop_assert!(jaro(&a, &b) <= ab + 1e-12, "winkler boost never decreases");
        if !a.is_empty() {
            prop_assert_eq!(jaro_winkler(&a, &a), 1.0);
        }
    }

    /// Relative difference: symmetric, zero iff equal, bounded by 2.
    #[test]
    fn relative_difference_properties(x in -1e9f64..1e9, t in -1e9f64..1e9) {
        let d = relative_difference(x, t);
        prop_assert!((relative_difference(t, x) - d).abs() < 1e-12);
        prop_assert!((0.0..=2.0).contains(&d));
        if x == t {
            prop_assert_eq!(d, 0.0);
        }
    }

    /// Heuristic prior maps any plausible feature vector into [0, 1] and
    /// decreases when the value distance grows.
    #[test]
    fn heuristic_prior_bounded_and_monotone(
        f1 in 0.0f64..1.0,
        ctx in 0.0f64..1.0,
        d_small in 0.0f64..0.2,
        d_large in 0.8f64..2.0,
    ) {
        let mk = |d: f64| {
            let mut f = vec![0.0; FEATURE_COUNT];
            f[0] = f1;
            f[1] = ctx;
            f[5] = d;
            f[6] = d;
            f
        };
        let near = heuristic_prior(&mk(d_small));
        let far = heuristic_prior(&mk(d_large));
        prop_assert!((0.0..=1.0).contains(&near));
        prop_assert!((0.0..=1.0).contains(&far));
        prop_assert!(near >= far);
    }

    /// Filtering output is a subset of the input, sorted by score, and
    /// never exceeds the configured caps.
    #[test]
    fn filter_output_invariants(scores in proptest::collection::vec(0.0f64..1.0, 1..60)) {
        let x = mention(50.0);
        let targets: Vec<TableMention> =
            (0..scores.len()).map(|i| target(45.0 + i as f64 * 0.2)).collect();
        let scored: Vec<(usize, f64)> =
            scores.iter().enumerate().map(|(i, &s)| (i, s)).collect();
        let cfg = FilterConfig::default();
        let mut stats = FilterStats::default();
        let kept = filter_mention(&x, &scored, &targets, &[], &cfg, &mut stats);
        prop_assert!(kept.len() <= cfg.k_exact.max(cfg.k_approx).max(cfg.k_small).max(cfg.k_large));
        for w in kept.windows(2) {
            prop_assert!(w[0].score >= w[1].score);
        }
        for c in &kept {
            prop_assert!(c.target < targets.len());
            prop_assert!(scored.iter().any(|&(t, s)| t == c.target && s == c.score));
        }
        prop_assert!(stats.overall_selectivity() <= 1.0);
    }

    /// Feature vectors are finite, fixed-size, and the mask is idempotent.
    #[test]
    fn feature_vectors_wellformed(v1 in 1.0f64..1e6, v2 in 1.0f64..1e6) {
        let doc = Document::new(
            0,
            format!("The first figure reached {v1} and the second {v2}."),
            vec![Table::from_grid(
                "",
                vec![
                    vec!["metric".into(), "value".into()],
                    vec!["first".into(), format!("{v1:.0}")],
                    vec!["second".into(), format!("{v2:.0}")],
                ],
            )],
        );
        let mentions = text_mentions(&doc);
        prop_assume!(!mentions.is_empty());
        let ctx = briq_core::context::DocContext::build(
            &doc,
            &mentions,
            &briq_core::context::ContextConfig::default(),
        );
        let t = target(v1);
        let mut f = feature_vector(&mentions[0], &t, &ctx);
        prop_assert_eq!(f.len(), FEATURE_COUNT);
        prop_assert!(f.iter().all(|x| x.is_finite()));
        let mask = FeatureMask { surface: false, context: true, quantity: false };
        mask.apply(&mut f);
        let once = f.clone();
        mask.apply(&mut f);
        prop_assert_eq!(f, once);
    }

    /// `align_checked` never panics and never exceeds its budget on
    /// arbitrary UTF-8 documents: whatever bytes end up in the text and
    /// the table cells, the budgeted pipeline terminates, keeps every
    /// score finite, stays within the virtual-cell cap, and reports any
    /// degradation through diagnostics instead of aborting.
    #[test]
    fn align_checked_total_and_budgeted_on_arbitrary_utf8(
        text in "\\PC{0,120}",
        cells in proptest::collection::vec("\\PC{0,12}", 0..24),
        n_cols in 1usize..5,
    ) {
        let grid: Vec<Vec<String>> =
            cells.chunks(n_cols).map(|row| row.to_vec()).collect();
        let doc = Document::new(0, text, vec![Table::from_grid("", grid)]);
        let briq = Briq::untrained(BriqConfig::default());
        let budget = briq_core::Budget {
            max_virtual_cells_per_table: 16,
            max_graph_edges: 64,
            max_rwr_iterations: 8,
        };
        let out = briq.align_with(&doc, &AlignOpts { budget, ..AlignOpts::default() });
        let (alignments, diags) = (out.alignments, out.diagnostics);
        for a in &alignments {
            prop_assert!(a.score.is_finite());
            prop_assert!(a.mention_end <= doc.text.len());
        }
        // Budget respected: the scored document never carries more
        // virtual cells than allowed.
        let (sd, _) = briq.score_document_budgeted(&doc, &budget);
        let virtuals = sd
            .targets
            .iter()
            .filter(|t| t.kind != TableMentionKind::SingleCell)
            .count();
        prop_assert!(virtuals <= budget.max_virtual_cells_per_table);
        // Diagnostics always serialize, degraded or not.
        let jsonl = diags.to_jsonl();
        prop_assert_eq!(jsonl.lines().count(), diags.items.len());
    }

    /// The full pipeline is total over random numeric documents, and every
    /// produced alignment points at a real target with in-bounds cells.
    #[test]
    fn pipeline_alignments_wellformed(
        vals in proptest::collection::vec(1u32..99_999, 2..6),
        text_val in 1u32..99_999,
    ) {
        let mut grid = vec![vec!["metric".to_string(), "value".to_string()]];
        for (i, v) in vals.iter().enumerate() {
            grid.push(vec![format!("row{i}"), v.to_string()]);
        }
        let doc = Document::new(
            0,
            format!("The report mentions {text_val} units in its overview section."),
            vec![Table::from_grid("stats", grid)],
        );
        let briq = Briq::untrained(BriqConfig::default());
        for a in briq.align(&doc) {
            prop_assert!(a.mention_end <= doc.text.len());
            prop_assert!(a.target.table < doc.tables.len());
            let t = &doc.tables[a.target.table];
            for &(r, c) in &a.target.cells {
                prop_assert!(r < t.n_rows && c < t.n_cols);
            }
            prop_assert!(a.score.is_finite());
        }
    }
}
