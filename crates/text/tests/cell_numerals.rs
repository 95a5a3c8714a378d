//! `parse_cell_quantity` held to its oracle: the first mention the full
//! extractor finds in the trimmed cell, under the cell's trim and
//! placeholder rules. Two kinds of cell skip the extractor: a lone ASCII
//! numeral is read by the numeral parser alone, and a cell with no
//! numeric char and no number word holds nothing. Every other cell goes
//! through it. The cases sit on both sides of those lines: numerals in
//! every shape the fast path takes, near-misses that must fall back, and
//! text with and without number words in any case.

use briq_text::cues::ApproxIndicator;
use briq_text::quantity::{extract_quantities, parse_cell_quantity, QuantityMention};
use briq_text::units::Unit;
use proptest::prelude::*;

/// The reference reading of a cell.
fn oracle(cell: &str) -> Option<QuantityMention> {
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

fn reads_as_oracle(cell: &str) -> bool {
    parse_cell_quantity(cell).as_ref().map(fields) == oracle(cell).as_ref().map(fields)
}

/// `digits` with a `,` before every third digit from the right.
fn group(digits: &str, mark: char) -> String {
    let mut out = String::new();
    for (i, d) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(mark);
        }
        out.push(d);
    }
    out
}

/// `core` with leading whitespace, then trailing spaces, footnote stars
/// and spaces, as `pad` (four small counts) picks them.
fn padded(core: &str, pad: (usize, usize, usize, usize)) -> String {
    let (lead, inner, stars, trail) = pad;
    let lead: String = [' ', '\t', '\u{a0}'].iter().cycle().take(lead).collect();
    format!(
        "{lead}{core}{}{}{}",
        " ".repeat(inner),
        "*".repeat(stars),
        " ".repeat(trail)
    )
}

fn pads() -> (
    std::ops::Range<usize>,
    std::ops::Range<usize>,
    std::ops::Range<usize>,
    std::ops::Range<usize>,
) {
    (0..3, 0..2, 0..3, 0..2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Digit runs, grouped by `,` or `.` or not at all, with a decimal
    /// part after `.` or `,` or none, and a trailing `%` or none.
    #[test]
    fn numerals_read_as_the_extractor_reads_them(
        int in "[0-9]{1,10}",
        grouping in 0usize..3,
        frac in "[0-9]{1,4}",
        decimal in 0usize..3,
        percent in 0usize..2,
        pad in pads(),
    ) {
        let mut core = match grouping {
            0 => int.clone(),
            1 => group(&int, ','),
            _ => group(&int, '.'),
        };
        match decimal {
            0 => {}
            1 => core = format!("{core}.{frac}"),
            _ => core = format!("{core},{frac}"),
        }
        if percent == 1 {
            core.push('%');
        }
        let cell = padded(&core, pad);
        prop_assert!(reads_as_oracle(&cell), "cell {cell:?}");
    }

    /// Leading zeros, years (which the extractor drops only in context),
    /// and runs long enough to round or, past ~309 digits, overflow.
    #[test]
    fn zeros_years_and_long_runs_read_as_the_extractor_reads_them(
        zeros in "0{1,3}",
        rest in "[0-9]{0,6}",
        year in 1900u32..2101,
        long in "[0-9]{20,40}",
        huge in "[1-9]{300,330}",
        pad in pads(),
    ) {
        for core in [format!("{zeros}{rest}"), year.to_string(), format!("{year}%"), long, huge] {
            let cell = padded(&core, pad);
            prop_assert!(reads_as_oracle(&cell), "cell {cell:?}");
        }
    }

    /// Near-misses: strings of digits, marks, `%`, stars, exponents,
    /// signs, spaces and currency, most of which are not lone numerals.
    #[test]
    fn near_misses_read_as_the_extractor_reads_them(cell in "[0-9,.%*e+\\- $()]{1,10}") {
        prop_assert!(reads_as_oracle(&cell), "cell {cell:?}");
    }

    /// Non-ASCII digits, which the tokenizer counts as digits and the
    /// numeral parser does not.
    #[test]
    fn non_ascii_digits_read_as_the_extractor_reads_them(cell in "[0-9,.%١-٩０-９²½]{1,8}") {
        prop_assert!(reads_as_oracle(&cell), "cell {cell:?}");
    }

    /// Text cells: words, number words in any case, unit words, glued
    /// digits and look-alike letters, joined by spaces, hyphens,
    /// apostrophes and other marks.
    #[test]
    fn text_cells_read_as_the_extractor_reads_them(
        words in collection::vec((0usize..WORDS.len(), 0usize..JOINS.len()), 1..5),
    ) {
        let cell: String = words.iter().map(|&(w, j)| format!("{}{}", WORDS[w], JOINS[j])).collect();
        prop_assert!(reads_as_oracle(&cell), "cell {cell:?}");
    }

    /// Any text at all.
    #[test]
    fn any_cell_reads_as_the_extractor_reads_it(cell in "\\PC{0,16}") {
        prop_assert!(reads_as_oracle(&cell), "cell {cell:?}");
    }
}

const WORDS: [&str; 34] = [
    "twenty",
    "Twenty",
    "FIVE",
    "one",
    "Hundred",
    "thousand",
    "MILLION",
    "trillion",
    "and",
    "twelve",
    "thirteen",
    "nineteen",
    "ninety",
    "units",
    "pounds",
    "people",
    "per",
    "cent",
    "Rash",
    "German MSRP",
    "FY",
    "2011",
    "Win10",
    "37K",
    "a",
    "ΟΔΟΣ",
    "fİve",
    "\u{212A}m",
    "one's",
    "Ⅻ",
    "½",
    "x",
    "",
    "$",
];

const JOINS: [&str; 7] = [" ", "-", "'", "’", "/", "(", ""];

#[test]
fn named_cells_read_as_the_extractor_reads_them() {
    let cells = [
        "868",
        "513,002",
        "28.4%",
        "0,877",
        "2,29,866",
        "1.234.567",
        "1,,2",
        "1.2.3",
        "%",
        "1%%",
        "1e5",
        "5.",
        ".5",
        ",5",
        "5,",
        "-5",
        "+5",
        "(9.49)",
        "12 %",
        "٣٤٥",
        "１２",
        "12³",
        "--",
        "N/A",
        "nA",
        "NIL",
        "None",
        "TBD",
        "?",
        "—",
        "nİl",
        "n/\u{212A}",
        "twenty",
        "Twenty-five units",
        "one hundred and five",
        "thirteen's",
        "fİve",
        "Ⅻ",
        "German MSRP",
        "  42 * ",
        "9.95**",
    ];
    for cell in cells {
        assert!(reads_as_oracle(cell), "cell {cell:?}");
    }
}
