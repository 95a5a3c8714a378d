//! The anecdotal cases of Fig. 5 (correct alignments BriQ discovers) and
//! Fig. 6 (typical errors). Pass `--errors` to run the error cases.
//!
//! Run with `cargo run --release --example anecdotes [-- --errors]`.
//! `cargo test` runs the tests at the end, which pin what the untrained
//! system makes of each figure today (EXPERIMENTS.md, "Figures").

use briq::{Briq, BriqConfig, Document, Table};

fn align_and_print(briq: &Briq, title: &str, doc: &Document) {
    println!("--- {title} ---");
    let alignments = briq.align(doc);
    if alignments.is_empty() {
        println!("  (no alignments)");
    }
    for a in &alignments {
        println!(
            "  {:28} -> {:12} cells {:?} (value {:.4})",
            format!("{:?}", a.mention_raw),
            a.target.kind.name(),
            a.target.cells,
            a.target.value,
        );
    }
    println!();
}

fn fig5_change_ratio() -> Document {
    // Fig. 5a: SIAM car sales — detected change ratio and single cells.
    Document::new(
        0,
        "The car sales growth rate that we have achieved this October is the \
         highest since early records, which was at 25.27 per cent. Overall, \
         246,725 passenger vehicles were sold in the domestic market, which is \
         an increase of 33.65% over the 184,611 units sold in the \
         corresponding period last year.",
        vec![Table::from_grid(
            "Vehicle sales by category",
            vec![
                vec!["CATEGORY".into(), "OCTOBER A".into(), "OCTOBER B".into()],
                vec![
                    "Passenger Vehicles".into(),
                    "184,611".into(),
                    "246,725".into(),
                ],
                vec![
                    "Commercial Vehicles".into(),
                    "62,013".into(),
                    "66,722".into(),
                ],
                vec!["Three-wheelers".into(), "49,069".into(), "55,241".into()],
                vec![
                    "Two-wheelers".into(),
                    "1,144,716".into(),
                    "1,285,015".into(),
                ],
            ],
        )],
    )
}

fn fig5_percentage() -> Document {
    // Fig. 5b: Fulham Gardens census — detected percentage.
    Document::new(
        1,
        "On Census Night, 5,911 people were counted in Fulham Gardens: of \
         these 49.2% were male and 50.8% were female. Of the total population \
         0.4% were Aboriginal and Torres Strait Islander people.",
        vec![Table::from_grid(
            "People counted",
            vec![
                vec!["People".into(), "Fulham Gardens".into(), "Australia".into()],
                vec!["Total".into(), "5,911".into(), "18,769,249".into()],
                vec!["Male".into(), "2,907".into(), "9,270,466".into()],
                vec!["Female".into(), "3,004".into(), "9,498,783".into()],
                vec!["Aboriginal people".into(), "23".into(), "410,003".into()],
            ],
        )],
    )
}

fn fig5_difference() -> Document {
    // Fig. 5c: Container Store — detected (approximate) difference.
    Document::new(
        2,
        "However, the Container Store's net income for the third quarter fell \
         16.3 million from the third quarter in the prior fiscal year, earning \
         the company a net loss of approximately 9.5 million on account of \
         IPO-related expenses.",
        vec![Table::from_grid(
            "Quarterly earnings ($ Millions)",
            vec![
                vec!["Company".into(), "Prior Net".into(), "Current Net".into()],
                vec!["Bed Bath & Beyond".into(), "232.8".into(), "237.2".into()],
                vec!["Container Store".into(), "6.86".into(), "(9.49)".into()],
            ],
        )],
    )
}

fn fig6_same_value_collision() -> Document {
    // Fig. 6a: bedrooms census — '3.2' exists twice in the same row with
    // near-identical context; BriQ typically picks one arbitrarily.
    Document::new(
        3,
        "Of occupied private dwellings 4.5% had 1 bedroom, 13.0% had 2 \
         bedrooms and 42.2% had 3 bedrooms. The average number of bedrooms \
         per occupied private dwelling was 3.2. The average household size \
         was 2.6 people.",
        vec![Table::from_grid(
            "Number of bedrooms",
            vec![
                vec![
                    "Number of bedrooms".into(),
                    "Scenic Rim".into(),
                    "%".into(),
                    "Queensland avg".into(),
                ],
                vec!["1 bedroom".into(), "204".into(), "4.5".into(), "4.2".into()],
                vec![
                    "2 bedrooms".into(),
                    "582".into(),
                    "13.0".into(),
                    "16.8".into(),
                ],
                vec![
                    "3 bedrooms".into(),
                    "1,895".into(),
                    "42.2".into(),
                    "42.1".into(),
                ],
                vec![
                    "Average bedrooms per dwelling".into(),
                    "3.2".into(),
                    "".into(),
                    "3.2".into(),
                ],
                vec![
                    "Average people per household".into(),
                    "2.6".into(),
                    "".into(),
                    "2.6".into(),
                ],
            ],
        )],
    )
}

fn fig6_high_ambiguity() -> Document {
    // Fig. 6b: Ponoko pricing — '$50' appears as wholesale price and
    // retail fee; the immediate context contains both cue words.
    Document::new(
        4,
        "So, if your cost for an item is 35 dollars, and you see similar \
         items selling for 100 dollars retail, then a 50 dollar wholesale \
         cost gives you a nice profit.",
        vec![Table::from_grid(
            "Pricing sheet",
            vec![
                vec!["item".into(), "amount".into()],
                vec!["Your cost price".into(), "$35".into()],
                vec!["Your creative fee".into(), "$15".into()],
                vec!["Your wholesale price".into(), "$50".into()],
                vec!["Your retail fee".into(), "$50".into()],
                vec!["Your retail price".into(), "$100".into()],
            ],
        )],
    )
}

fn main() {
    let errors = std::env::args().any(|a| a == "--errors");
    let briq = Briq::untrained(BriqConfig::default());

    if errors {
        println!("Fig. 6: typical error cases (same-value collisions, ambiguity)\n");
        align_and_print(
            &briq,
            "Fig. 6a — same-value collision ('3.2' twice in a row)",
            &fig6_same_value_collision(),
        );
        align_and_print(
            &briq,
            "Fig. 6b — high ambiguity ('$50' wholesale vs retail)",
            &fig6_high_ambiguity(),
        );
    } else {
        println!("Fig. 5: anecdotal alignments discovered by BriQ\n");
        align_and_print(
            &briq,
            "Fig. 5a — change ratio (car sales)",
            &fig5_change_ratio(),
        );
        align_and_print(&briq, "Fig. 5b — percentage (census)", &fig5_percentage());
        align_and_print(
            &briq,
            "Fig. 5c — difference (net income)",
            &fig5_difference(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One alignment: the mention's surface form, the target's kind and
    /// its cells.
    type Outcome = (String, &'static str, Vec<(usize, usize)>);

    /// Every alignment the untrained system makes in `doc`, in order.
    fn alignments(doc: &Document) -> Vec<Outcome> {
        Briq::untrained(BriqConfig::default())
            .align(doc)
            .into_iter()
            .map(|a| (a.mention_raw, a.target.kind.name(), a.target.cells))
            .collect()
    }

    fn outcome(raw: &str, kind: &'static str, cells: &[(usize, usize)]) -> Outcome {
        (raw.to_string(), kind, cells.to_vec())
    }

    /// The alignments of `doc` whose mention is `raw`.
    fn of_mention(doc: &Document, raw: &str) -> Vec<Outcome> {
        let mut found = alignments(doc);
        found.retain(|(r, ..)| r == raw);
        found
    }

    /// Fig. 5a reproduces only its single cells: the change ratios
    /// `33.65%` and `25.27 per cent` align to nothing.
    #[test]
    fn fig5a_aligns_the_single_cells_but_not_the_change_ratios() {
        assert_eq!(
            alignments(&fig5_change_ratio()),
            [
                outcome("246,725", "single-cell", &[(1, 2)]),
                outcome("184,611 units", "single-cell", &[(1, 1)]),
            ]
        );
    }

    /// Fig. 5b reproduces only its single cell: the percentages `49.2%`,
    /// `50.8%` and `0.4%` align to nothing.
    #[test]
    fn fig5b_aligns_the_single_cell_but_not_the_percentages() {
        assert_eq!(
            alignments(&fig5_percentage()),
            [outcome("5,911 people", "single-cell", &[(1, 1)])]
        );
    }

    /// Fig. 5c's difference reproduces, but `approximately 9.5 million`
    /// aligns to the `6.86` cell, not to the `(9.49)` one.
    #[test]
    fn fig5c_aligns_the_difference_and_misplaces_the_net_loss() {
        assert_eq!(
            alignments(&fig5_difference()),
            [
                outcome("16.3 million", "diff", &[(2, 1), (2, 2)]),
                outcome("9.5 million", "single-cell", &[(2, 1)]),
            ]
        );
    }

    /// Fig. 6a's collision reproduces: `3.2` aligns to the Queensland
    /// column's cell, not to Scenic Rim's (4, 1).
    #[test]
    fn fig6a_same_value_collision_picks_the_wrong_column() {
        assert_eq!(
            of_mention(&fig6_same_value_collision(), "3.2"),
            [outcome("3.2", "single-cell", &[(4, 3)])]
        );
    }

    /// Fig. 6b's error does not reproduce: `50 dollar` aligns to the
    /// wholesale price, which is the right cell, not to the retail fee.
    #[test]
    fn fig6b_ambiguous_fifty_dollars_aligns_to_the_wholesale_price() {
        assert_eq!(
            of_mention(&fig6_high_ambiguity(), "50 dollar"),
            [outcome("50 dollar", "single-cell", &[(3, 1)])]
        );
    }
}
