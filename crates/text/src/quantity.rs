//! Quantity-mention extraction from running text and table cells (§III).
//!
//! The extractor follows the paper's order of operations: complex
//! quantities (`5 ± 1 km per hour`) are identified first so they are not
//! split into several spurious matches; then simple quantities are
//! extracted with their units, scales and approximation modifiers; and
//! non-informative numbers (dates/times, headings like `Section 1.1`,
//! phone numbers, references like `[2]`, identifiers like `Win10`) are
//! eliminated (§II-A).

use crate::cues::{detect_approximation, ApproxIndicator};
use crate::numparse::{self, parse_numeral, parse_suffixed, parse_word_number, starts_word_number};
use crate::token::{tokenize, Token, TokenKind};
use crate::units::{currency_from_symbol, unit_from_lowercase, Unit};

/// A quantity mention extracted from text or from a table cell.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantityMention {
    /// Surface form as it appears in the source (including unit tokens).
    pub raw: String,
    /// Fully normalized numeric value (scale words applied): `0.5 million`
    /// → `500000` (§III).
    pub value: f64,
    /// The literal numeral before scaling: `37` for `37K` (feature f7).
    pub unnormalized: f64,
    /// Detected unit.
    pub unit: Unit,
    /// Digits after the decimal point in the surface numeral (feature f10).
    pub precision: u8,
    /// Approximation modifier from the surrounding context (feature f11).
    pub approx: ApproxIndicator,
    /// Byte span in the source text.
    pub start: usize,
    /// End byte offset (exclusive).
    pub end: usize,
}

impl QuantityMention {
    /// Order of magnitude of the normalized value (feature f9).
    pub fn scale(&self) -> i32 {
        numparse::order_of_magnitude(self.value)
    }
}

const MONTHS: &[&str] = &[
    "january",
    "february",
    "march",
    "april",
    "may",
    "june",
    "july",
    "august",
    "september",
    "october",
    "november",
    "december",
    "jan",
    "feb",
    "mar",
    "apr",
    "jun",
    "jul",
    "aug",
    "sep",
    "sept",
    "oct",
    "nov",
    "dec",
];

const HEADING_WORDS: &[&str] = &[
    "section", "chapter", "figure", "table", "page", "item", "step", "fig", "eq", "equation",
];

fn is_month(w: &str) -> bool {
    MONTHS.contains(&w.to_lowercase().as_str())
}

fn is_year_value(v: f64) -> bool {
    v.fract() == 0.0 && (1900.0..=2100.0).contains(&v)
}

/// Extract all quantity mentions from a piece of running text.
///
/// Returns mentions sorted by start offset. Date/time, headings, phone
/// numbers, references and embedded identifiers are excluded per §II-A.
pub fn extract_quantities(text: &str) -> Vec<QuantityMention> {
    let tokens = tokenize(text);
    let n = tokens.len();
    let mut excluded = vec![false; n];

    mark_complex(&tokens, &mut excluded);
    mark_dates_times(&tokens, &mut excluded);
    mark_headings_refs_phones(&tokens, &mut excluded);

    let mut out = Vec::new();
    let mut i = 0;
    while i < n {
        if excluded[i] {
            i += 1;
            continue;
        }
        match tokens[i].kind {
            TokenKind::Number => {
                if let Some((m, consumed)) = extract_at(text, &tokens, i) {
                    out.push(m);
                    i += consumed;
                    continue;
                }
            }
            TokenKind::Alphanumeric => {
                // `37K` style only — other alphanumerics are identifiers.
                if let Some((v, mult, prec)) = parse_suffixed(&tokens[i].text) {
                    if let Some((m, consumed)) =
                        finish_mention(text, &tokens, i, v * mult, v, prec, i + 1)
                    {
                        out.push(m);
                        i += consumed;
                        continue;
                    }
                }
            }
            TokenKind::Word => {
                // Spelled-out numbers: "twenty pounds", "twenty five".
                if let Some((m, consumed)) = extract_word_number(text, &tokens, i) {
                    out.push(m);
                    i += consumed;
                    continue;
                }
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// Mark complex quantities (`5 ± 1`) so they are not split into matches.
fn mark_complex(tokens: &[Token], excluded: &mut [bool]) {
    for i in 0..tokens.len() {
        if tokens[i].text == "±"
            && i > 0
            && i + 1 < tokens.len()
            && tokens[i - 1].kind == TokenKind::Number
            && tokens[i + 1].kind == TokenKind::Number
        {
            excluded[i - 1] = true;
            excluded[i] = true;
            excluded[i + 1] = true;
        }
    }
}

/// Mark date/time expressions: `12:30`, `7th August 2001`, `October 2012`,
/// `In 2013`, `YTD 2005`, `Q3 FY 2012`.
fn mark_dates_times(tokens: &[Token], excluded: &mut [bool]) {
    let n = tokens.len();
    for i in 0..n {
        if tokens[i].kind != TokenKind::Number {
            continue;
        }
        // times: N ':' N
        if i + 2 < n && tokens[i + 1].text == ":" && tokens[i + 2].kind == TokenKind::Number {
            excluded[i] = true;
            excluded[i + 1] = true;
            excluded[i + 2] = true;
        }
        let v = match parse_numeral(&tokens[i].text) {
            Some(p) => p.value,
            None => continue,
        };
        if !is_year_value(v) {
            continue;
        }
        let prev = i.checked_sub(1).map(|j| tokens[j].lower());
        let prev2 = i.checked_sub(2).map(|j| tokens[j].lower());
        let next = tokens.get(i + 1).map(|t| t.lower());
        let year_context = prev.as_deref().is_some_and(|w| {
            is_month(w)
                || matches!(w, "in" | "of" | "since" | "until" | "during" | "year" | "fy" | "ytd")
        }) || prev2.as_deref().is_some_and(|w| matches!(w, "fy" | "ytd"))
            || next.as_deref().is_some_and(is_month)
            // sequences of years: "2013 2012 2011"
            || tokens.get(i + 1).is_some_and(|t| {
                t.kind == TokenKind::Number
                    && parse_numeral(&t.text).is_some_and(|p| is_year_value(p.value))
            })
            || i.checked_sub(1).is_some_and(|j| {
                tokens[j].kind == TokenKind::Number
                    && parse_numeral(&tokens[j].text).is_some_and(|p| is_year_value(p.value))
            });
        if year_context {
            excluded[i] = true;
        }
    }
}

/// Mark heading numbers (`Section 1.1`), references (`[2]`) and phone-like
/// digit chains (`555-12-34`).
fn mark_headings_refs_phones(tokens: &[Token], excluded: &mut [bool]) {
    let n = tokens.len();
    for i in 0..n {
        if tokens[i].kind != TokenKind::Number {
            continue;
        }
        // heading: preceded by a heading word
        if i > 0 && HEADING_WORDS.contains(&tokens[i - 1].lower().trim_end_matches('.')) {
            excluded[i] = true;
        }
        // reference: [ N ]
        if i > 0 && i + 1 < n && tokens[i - 1].text == "[" && tokens[i + 1].text == "]" {
            excluded[i] = true;
        }
        // phone-like: N - N - N chains
        if i + 4 < n
            && tokens[i + 1].text == "-"
            && tokens[i + 2].kind == TokenKind::Number
            && tokens[i + 3].text == "-"
            && tokens[i + 4].kind == TokenKind::Number
        {
            for k in 0..5 {
                excluded[i + k] = true;
            }
        }
    }
}

/// Try to extract a mention whose numeral token is at index `i`.
/// Returns the mention and the number of tokens consumed starting at the
/// *numeral* (prefix symbols are part of the span but were already passed).
fn extract_at(text: &str, tokens: &[Token], i: usize) -> Option<(QuantityMention, usize)> {
    let p = parse_numeral(&tokens[i].text)?;
    // Accounting negative written as `( 9.49 )` around the token:
    let (value, neg_wrap) = if i > 0
        && tokens[i - 1].text == "("
        && tokens.get(i + 1).map(|t| t.text.as_str()) == Some(")")
    {
        (-p.value.abs(), true)
    } else {
        (p.value, false)
    };
    let mut j = i + 1;
    if neg_wrap {
        j += 1; // skip ')'
    }
    finish_mention(text, tokens, i, value, value, p.precision, j)
}

/// Complete a mention starting at numeral index `i` with unscaled value
/// `value`; `j` is the next unconsumed token. Applies scale words, unit
/// words/symbols and the approximation window, then builds the span.
fn finish_mention(
    text: &str,
    tokens: &[Token],
    i: usize,
    mut value: f64,
    unnormalized: f64,
    precision: u8,
    mut j: usize,
) -> Option<(QuantityMention, usize)> {
    let mut unit = Unit::None;
    let mut span_start = tokens[i].start;
    let mut span_end = tokens[if j > i { j - 1 } else { i }].end.max(tokens[i].end);

    // Prefix currency symbol: `$3.26`.
    if i > 0 && tokens[i - 1].kind == TokenKind::Symbol {
        if let Some(c) = tokens[i - 1]
            .text
            .chars()
            .next()
            .and_then(currency_from_symbol)
        {
            unit = Unit::Currency(c);
            span_start = tokens[i - 1].start;
        }
    }
    // Prefix currency symbol before an accounting '(': `$(9.49)`.
    if unit == Unit::None
        && i > 1
        && tokens[i - 1].text == "("
        && tokens[i - 2].kind == TokenKind::Symbol
    {
        if let Some(c) = tokens[i - 2]
            .text
            .chars()
            .next()
            .and_then(currency_from_symbol)
        {
            unit = Unit::Currency(c);
            span_start = tokens[i - 2].start;
        }
    }

    // Suffix tokens: scale words, then unit word/symbol, e.g.
    // `3.26 billion CDN`, `37 K EUR`, `25.27 per cent`, `1.5 %`.
    let mut scaled = false;
    while let Some(t) = tokens.get(j) {
        let lower = t.lower();
        if !scaled {
            if let Some(m) = numparse::scale_of_lowercase(&lower) {
                value *= m;
                scaled = true;
                span_end = t.end;
                j += 1;
                continue;
            }
        }
        if t.kind == TokenKind::Symbol {
            if lower == "%" {
                unit = Unit::Percent;
                span_end = t.end;
                j += 1;
            } else if let Some(c) = t.text.chars().next().and_then(currency_from_symbol) {
                if unit == Unit::None {
                    unit = Unit::Currency(c);
                }
                span_end = t.end;
                j += 1;
            }
            break;
        }
        if lower == "per" && tokens.get(j + 1).map(|t| t.lower()).as_deref() == Some("cent") {
            unit = Unit::Percent;
            span_end = tokens[j + 1].end;
            j += 2;
            break;
        }
        if let Some(u) = unit_from_lowercase(&lower) {
            // A unit *word* refines or sets the unit; a specific currency
            // code (CDN, USD) overrides a generic `$` prefix.
            if matches!(u, Unit::Currency(_)) || unit == Unit::None {
                unit = u;
            }
            span_end = t.end;
            j += 1;
            break;
        }
        break;
    }

    // Approximation window: up to 10 word tokens before the span.
    let mut window: Vec<String> = Vec::new();
    let mut k = i;
    while k > 0 && window.len() < 10 {
        k -= 1;
        if tokens[k].is_wordlike() {
            window.push(tokens[k].lower());
        }
    }
    window.reverse();
    let window_refs: Vec<&str> = window.iter().map(|s| s.as_str()).collect();
    let approx = detect_approximation(&window_refs);

    let m = QuantityMention {
        raw: text[span_start..span_end].to_string(),
        value,
        unnormalized,
        unit,
        precision,
        approx,
        start: span_start,
        end: span_end,
    };
    Some((m, j - i))
}

/// Extract a spelled-out number ("twenty pounds") starting at word index
/// `i`. Conservative: single small words ("one", "two") are not mentions.
fn extract_word_number(text: &str, tokens: &[Token], i: usize) -> Option<(QuantityMention, usize)> {
    // Gather the run of word tokens.
    let mut words: Vec<String> = Vec::new();
    let mut idx = i;
    while idx < tokens.len() && tokens[idx].kind == TokenKind::Word && words.len() < 6 {
        let lw = tokens[idx].lower();
        // hyphenated "twenty-five" → two words
        if let Some((a, b)) = lw.split_once('-') {
            words.push(a.to_string());
            words.push(b.to_string());
        } else {
            words.push(lw);
        }
        idx += 1;
    }
    let refs: Vec<&str> = words.iter().map(|s| s.as_str()).collect();
    let (value, consumed_words) = parse_word_number(&refs)?;

    // Map consumed word count back to token count (hyphenated tokens cover
    // two words).
    let mut toks = 0;
    let mut covered = 0;
    while covered < consumed_words {
        let hyphenated = tokens[i + toks].text.contains('-');
        covered += if hyphenated { 2 } else { 1 };
        toks += 1;
    }

    // Guard against prose "one", "two": require value ≥ 13, or more than
    // one word, or a recognizable unit word right after.
    let next_unit = tokens
        .get(i + toks)
        .and_then(|t| unit_from_lowercase(&t.lower()));
    if value < 13.0 && toks == 1 && next_unit.is_none() {
        return None;
    }

    let mut unit = Unit::None;
    let mut span_end = tokens[i + toks - 1].end;
    let mut consumed = toks;
    if let Some(u) = next_unit {
        unit = u;
        span_end = tokens[i + toks].end;
        consumed += 1;
    }

    let m = QuantityMention {
        raw: text[tokens[i].start..span_end].to_string(),
        value,
        unnormalized: value,
        unit,
        precision: 0,
        approx: ApproxIndicator::None,
        start: tokens[i].start,
        end: span_end,
    };
    Some((m, consumed))
}

/// Cells that hold no value. `parse_cell_quantity` matches them ignoring
/// ASCII case, which is exactly what comparing the cell's
/// `str::to_lowercase` would match: the only non-ASCII char whose
/// lowercase is all ASCII is the Kelvin sign (`k`), which none of them
/// holds.
const PLACEHOLDERS: [&str; 9] = ["--", "-", "—", "n/a", "na", "nil", "none", "tbd", "?"];

/// Parse a single table-cell content as a quantity (§III: "for tables, we
/// employ the same procedure and attempt to extract a single quantity
/// mention per cell, together with its unit if present").
///
/// Returns `None` for empty cells, placeholders (`--`, `n/a`) and cells
/// without a parsable quantity. Two kinds of cell get the answer
/// [`extract_quantities`] would give without running it: a lone ASCII
/// numeral (`868`, `513,002`, `28.4%`), and a cell with no numeric char
/// and no number word (`German MSRP`), which holds none.
pub fn parse_cell_quantity(cell: &str) -> Option<QuantityMention> {
    let trimmed = cell.trim().trim_end_matches('*').trim();
    if trimmed.is_empty() || PLACEHOLDERS.iter().any(|p| trimmed.eq_ignore_ascii_case(p)) {
        return None;
    }
    if let Some((numeral, percent)) = lone_numeral(trimmed) {
        // The extractor tokenizes such a cell into the numeral and, with a
        // `%`, a percent sign, and nothing else: no context to exclude it
        // by, no prefix, no scale word, no approximation cue.
        let p = parse_numeral(numeral)?;
        return Some(QuantityMention {
            raw: trimmed.to_string(),
            value: p.value,
            unnormalized: p.value,
            unit: if percent { Unit::Percent } else { Unit::None },
            precision: p.precision,
            approx: ApproxIndicator::None,
            start: 0,
            end: trimmed.len(),
        });
    }
    // The extractor starts a mention only at a numeric char or at a word
    // token whose text up to its first `-` is a number word. Such a text
    // is a whole alphabetic run, so a cell with neither holds none.
    if !trimmed.chars().any(char::is_numeric)
        && !trimmed
            .split(|c: char| !c.is_alphabetic())
            .any(starts_word_number)
    {
        return None;
    }
    let mentions = extract_quantities(trimmed);
    // A cell should contain exactly one quantity; pick the first extracted
    // mention (noisy cells may carry footnote text after the number).
    mentions.into_iter().next()
}

/// The numeral of a cell that is a lone ASCII numeral — digits, with `,`
/// or `.` only between two digits — and whether a `%` follows it.
fn lone_numeral(cell: &str) -> Option<(&str, bool)> {
    let (numeral, percent) = match cell.strip_suffix('%') {
        Some(numeral) => (numeral, true),
        None => (cell, false),
    };
    let b = numeral.as_bytes();
    let digit_ends =
        b.first().is_some_and(u8::is_ascii_digit) && b.last().is_some_and(u8::is_ascii_digit);
    let marks_between_digits = b
        .windows(2)
        .all(|w| w[0].is_ascii_digit() || w[1].is_ascii_digit());
    let shape = b
        .iter()
        .all(|&c| c.is_ascii_digit() || c == b',' || c == b'.');
    (digit_ends && marks_between_digits && shape).then_some((numeral, percent))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Currency;

    fn extract(text: &str) -> Vec<QuantityMention> {
        extract_quantities(text)
    }

    #[test]
    fn simple_number_with_count() {
        let ms = extract("reported by 38 patients");
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].value, 38.0);
    }

    #[test]
    fn currency_prefix_with_scale_and_code() {
        let ms = extract("revenue of $3.26 billion CDN was up");
        assert_eq!(ms.len(), 1);
        let m = &ms[0];
        assert_eq!(m.value, 3.26e9);
        assert_eq!(m.unnormalized, 3.26);
        assert_eq!(m.unit, Unit::Currency(Currency::Cad));
        assert_eq!(m.raw, "$3.26 billion CDN");
        assert_eq!(m.precision, 2);
    }

    #[test]
    fn suffixed_scale_with_unit() {
        let ms = extract("the least affordable option with 37K EUR in Germany");
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].value, 37_000.0);
        assert_eq!(ms[0].unnormalized, 37.0);
        assert_eq!(ms[0].unit, Unit::Currency(Currency::Eur));
        assert_eq!(ms[0].raw, "37K EUR");
    }

    #[test]
    fn percent_and_ratio_forms() {
        let ms = extract("it increased by 1.5% while margins rose 60 bps to 13.3%");
        let vals: Vec<(f64, Unit)> = ms.iter().map(|m| (m.value, m.unit)).collect();
        assert_eq!(
            vals,
            vec![
                (1.5, Unit::Percent),
                (60.0, Unit::BasisPoints),
                (13.3, Unit::Percent)
            ]
        );
    }

    #[test]
    fn per_cent_two_words() {
        let ms = extract("which was at 25.27 per cent.");
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].unit, Unit::Percent);
        assert_eq!(ms[0].raw, "25.27 per cent");
    }

    #[test]
    fn approximation_indicator_set() {
        let ms = extract("a net loss of approximately $9.5 million on account");
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].approx, ApproxIndicator::Approximate);
        assert_eq!(ms[0].value, 9.5e6);
    }

    #[test]
    fn bound_indicators() {
        let ms = extract("sold more than 500 units");
        assert_eq!(ms[0].approx, ApproxIndicator::LowerBound);
        let ms = extract("costs less than 200 dollars");
        assert_eq!(ms[0].approx, ApproxIndicator::UpperBound);
    }

    #[test]
    fn years_and_dates_excluded() {
        let ms = extract("In 2013 revenue was 3,263 and in 2012 it was 3,193");
        let vals: Vec<f64> = ms.iter().map(|m| m.value).collect();
        assert_eq!(vals, vec![3263.0, 3193.0]);
        let ms = extract("On Census Night 7th August 2001, 5,911 people were counted");
        let vals: Vec<f64> = ms.iter().map(|m| m.value).collect();
        // "7th" is alphanumeric (not a scale suffix) → dropped; 2001 is a
        // year next to a month → dropped; 5,911 people survives.
        assert_eq!(vals, vec![5911.0]);
    }

    #[test]
    fn year_sequences_excluded() {
        let ms = extract("columns 2013 2012 2011 hold income");
        assert!(ms.is_empty());
    }

    #[test]
    fn times_excluded() {
        let ms = extract("at 12:30 we sold 5,911 units");
        let vals: Vec<f64> = ms.iter().map(|m| m.value).collect();
        assert_eq!(vals, vec![5911.0]);
    }

    #[test]
    fn headings_and_refs_excluded() {
        let ms = extract("see Section 1.1 and [2] for the 42 cases");
        let vals: Vec<f64> = ms.iter().map(|m| m.value).collect();
        assert_eq!(vals, vec![42.0]);
    }

    #[test]
    fn identifiers_excluded() {
        let ms = extract("Win10 shipped on A3 hardware with 8 cores");
        let vals: Vec<f64> = ms.iter().map(|m| m.value).collect();
        assert_eq!(vals, vec![8.0]);
    }

    #[test]
    fn complex_quantities_excluded() {
        let ms = extract("going 5 ± 1 km per hour past 30 houses");
        let vals: Vec<f64> = ms.iter().map(|m| m.value).collect();
        assert_eq!(vals, vec![30.0]);
    }

    #[test]
    fn phone_numbers_excluded() {
        let ms = extract("call 555-123-4567 to order 12 boxes");
        let vals: Vec<f64> = ms.iter().map(|m| m.value).collect();
        assert_eq!(vals, vec![12.0]);
    }

    #[test]
    fn word_numbers() {
        let ms = extract("weighs twenty pounds exactly");
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].value, 20.0);
        assert_eq!(ms[0].unit, Unit::Currency(Currency::Gbp)); // 'pounds' lexicon
        let ms = extract("we hired one engineer");
        assert!(ms.is_empty());
    }

    #[test]
    fn accounting_negative_with_symbol() {
        let ms = extract("a loss of $(9.49) Million this quarter");
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].value, -9.49e6);
        assert_eq!(ms[0].unit, Unit::Currency(Currency::Usd));
    }

    #[test]
    fn spans_cover_surface_form() {
        let text = "up $70 million CDN or 2% from";
        for m in extract(text) {
            assert_eq!(&text[m.start..m.end], m.raw);
        }
    }

    #[test]
    fn cell_parsing() {
        let m = parse_cell_quantity(" 36900 ").unwrap();
        assert_eq!(m.value, 36900.0);
        let m = parse_cell_quantity("12.7%").unwrap();
        assert_eq!(m.unit, Unit::Percent);
        assert_eq!(m.value, 12.7);
        let m = parse_cell_quantity("$1.15").unwrap();
        assert_eq!(m.value, 1.15);
        let m = parse_cell_quantity("$(9.49) Million").unwrap();
        assert_eq!(m.value, -9.49e6);
        let m = parse_cell_quantity("0,877").unwrap();
        assert_eq!(m.value, 0.877);
        assert!(parse_cell_quantity("--").is_none());
        assert!(parse_cell_quantity("").is_none());
        assert!(parse_cell_quantity("n/a").is_none());
        assert!(parse_cell_quantity("BEV").is_none());
    }

    #[test]
    fn cell_with_footnote_star() {
        let m = parse_cell_quantity("9.95*").unwrap();
        assert_eq!(m.value, 9.95);
    }

    #[test]
    fn multiple_mentions_ordered() {
        let text = "of which there were 69 female patients and 54 male patients";
        let ms = extract(text);
        assert_eq!(
            ms.iter().map(|m| m.value).collect::<Vec<_>>(),
            vec![69.0, 54.0]
        );
        assert!(ms[0].start < ms[1].start);
    }
}
