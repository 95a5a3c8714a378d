//! Mention perturbation for the robustness experiments of Table II, plus
//! the adversarial page generator behind the chaos harness.
//!
//! The paper's perturbations:
//!
//! * **Truncated** — "we removed the least significant digit of each
//!   original text mention. For example, 6746, 2.74, 0.19 became 6740,
//!   2.7, and 0.1."
//! * **Rounded** — "we numerically rounded the least significant digit
//!   … 6746, 2.74, 0.19 became 6750, 2.7, and 0.2."
//!
//! Only the *text* is perturbed; tables stay intact. Gold spans are
//! re-mapped through the edits.
//!
//! The adversarial generator ([`Adversary`], [`adversarial_page`])
//! produces pages no honest corpus would: truncated and unbalanced
//! markup, colspan bombs, zero-row tables, `1e999`/NaN-shaped numerics,
//! mixed-locale digit groupings, dense tables with huge virtual-cell
//! fanout, and regex-hostile strings. They exist to be fed through
//! `Briq::align_checked`, which must degrade — never panic or hang.

use briq_core::training::LabeledDocument;
use briq_table::Document;
use briq_text::extract_quantities;
use rand::prelude::*;
use rand::rngs::StdRng;

/// Which variant of the text to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Perturbation {
    /// The text as generated.
    Original,
    /// Least significant digit truncated.
    Truncated,
    /// Least significant digit rounded.
    Rounded,
}

impl Perturbation {
    /// All three variants in the paper's order.
    pub const ALL: [Perturbation; 3] = [
        Perturbation::Original,
        Perturbation::Truncated,
        Perturbation::Rounded,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Perturbation::Original => "original",
            Perturbation::Truncated => "truncated",
            Perturbation::Rounded => "rounded",
        }
    }
}

/// Transform one numeral surface (Western format: `.` decimal, `,`
/// grouping). Returns `None` when the numeral is a single digit (nothing
/// to remove).
pub fn perturb_numeral(s: &str, p: Perturbation) -> Option<String> {
    if p == Perturbation::Original {
        return Some(s.to_string());
    }
    let digits = s.chars().filter(|c| c.is_ascii_digit()).count();
    if digits <= 1 {
        return None;
    }
    if let Some(dot) = s.rfind('.') {
        let frac = &s[dot + 1..];
        if !frac.is_empty() && frac.chars().all(|c| c.is_ascii_digit()) {
            // decimal: drop (or round away) the last fractional digit
            let value: f64 = s.replace(',', "").parse().ok()?;
            let new_prec = frac.len() - 1;
            let factor = 10f64.powi(new_prec as i32);
            let adjusted = match p {
                Perturbation::Truncated => (value * factor).trunc() / factor,
                Perturbation::Rounded => (value * factor).round() / factor,
                Perturbation::Original => unreachable!(),
            };
            return Some(if new_prec == 0 {
                format!("{}", adjusted as i64)
            } else {
                format!("{adjusted:.new_prec$}")
            });
        }
    }
    // integer: zero (or round) the ones digit, preserving grouping style
    let grouped = s.contains(',');
    let value: i64 = s.replace(',', "").parse().ok()?;
    let adjusted = match p {
        Perturbation::Truncated => (value / 10) * 10,
        Perturbation::Rounded => ((value as f64 / 10.0).round() as i64) * 10,
        Perturbation::Original => unreachable!(),
    };
    Some(if grouped {
        crate::numbers::group_thousands(adjusted)
    } else {
        adjusted.to_string()
    })
}

/// Locate the numeral core inside a mention's span of `text`: the maximal
/// run of digits/grouping/decimal marks starting at the first digit.
fn numeral_range(text: &str, start: usize, end: usize) -> Option<(usize, usize)> {
    let span = &text[start..end];
    let first = span.find(|c: char| c.is_ascii_digit())?;
    let rest = &span[first..];
    let mut len = 0;
    let bytes = rest.as_bytes();
    while len < bytes.len() {
        let c = bytes[len] as char;
        if c.is_ascii_digit() {
            len += 1;
        } else if (c == ',' || c == '.')
            && len + 1 < bytes.len()
            && (bytes[len + 1] as char).is_ascii_digit()
        {
            len += 2;
        } else {
            break;
        }
    }
    Some((start + first, start + first + len))
}

/// Produce the perturbed variant of a labeled document. All extracted
/// text-mention numerals are transformed; gold spans are re-mapped.
pub fn perturb_document(ld: &LabeledDocument, p: Perturbation) -> LabeledDocument {
    if p == Perturbation::Original {
        return ld.clone();
    }
    let text = &ld.document.text;
    let mentions = extract_quantities(text);

    // Build the edit list (start, end, replacement).
    let mut edits: Vec<(usize, usize, String)> = Vec::new();
    for m in &mentions {
        if let Some((ns, ne)) = numeral_range(text, m.start, m.end) {
            if let Some(new) = perturb_numeral(&text[ns..ne], p) {
                if new != text[ns..ne] {
                    edits.push((ns, ne, new));
                }
            }
        }
    }
    edits.sort_by_key(|&(s, _, _)| s);

    // Apply edits and remap gold offsets through them.
    let mut out = String::with_capacity(text.len());
    let mut last = 0usize;
    for &(s, e, ref rep) in &edits {
        out.push_str(&text[last..s]);
        out.push_str(rep);
        last = e;
    }
    out.push_str(&text[last..]);

    let map = |p: usize| -> usize {
        let mut delta: i64 = 0;
        for &(s, e, ref rep) in &edits {
            if e <= p {
                delta += rep.len() as i64 - (e - s) as i64;
            } else if s < p {
                // inside the edited range: clamp into the replacement
                let off = (p - s).min(rep.len());
                return (s as i64 + delta) as usize + off;
            } else {
                break;
            }
        }
        (p as i64 + delta) as usize
    };
    let mut gold = ld.gold.clone();
    for g in &mut gold {
        g.mention_start = map(g.mention_start);
        g.mention_end = map(g.mention_end).max(g.mention_start + 1).min(out.len());
    }

    let mut doc = ld.document.clone();
    doc.text = out;
    LabeledDocument {
        document: doc,
        gold,
    }
}

/// One family of adversarial page, each targeting a different pipeline
/// weakness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Adversary {
    /// The page ends mid-tag / mid-comment.
    TruncatedHtml,
    /// Open tags that never close, closes that never opened, tables
    /// nested inside cells.
    UnbalancedTags,
    /// A row whose colspan attributes claim thousands of columns.
    ColspanBomb,
    /// Tables with no data rows, no columns, or headers only.
    ZeroRowTable,
    /// `1e999`, `-1e999`, `NaN`-shaped and overlong numerals that
    /// overflow `f64` parsing.
    NonFiniteNumerics,
    /// European and US digit groupings mixed in one page
    /// (`1.234.567,89` next to `1,234,567.89`).
    MixedLocale,
    /// A dense all-numeric table whose virtual-cell space is quadratic
    /// in both dimensions.
    VirtualCellFanout,
    /// Pathological strings for the tokenizer and numeral parser: nested
    /// parens, long punctuation runs, currency soup.
    RegexHostile,
}

impl Adversary {
    /// Every family, for round-robin generation.
    pub const ALL: [Adversary; 8] = [
        Adversary::TruncatedHtml,
        Adversary::UnbalancedTags,
        Adversary::ColspanBomb,
        Adversary::ZeroRowTable,
        Adversary::NonFiniteNumerics,
        Adversary::MixedLocale,
        Adversary::VirtualCellFanout,
        Adversary::RegexHostile,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Adversary::TruncatedHtml => "truncated-html",
            Adversary::UnbalancedTags => "unbalanced-tags",
            Adversary::ColspanBomb => "colspan-bomb",
            Adversary::ZeroRowTable => "zero-row-table",
            Adversary::NonFiniteNumerics => "non-finite-numerics",
            Adversary::MixedLocale => "mixed-locale",
            Adversary::VirtualCellFanout => "virtual-cell-fanout",
            Adversary::RegexHostile => "regex-hostile",
        }
    }
}

/// A paragraph of quantity-bearing prose to anchor the page.
fn adversarial_paragraph(rng: &mut StdRng) -> String {
    let n1 = rng.random_range(2..9999);
    let n2 = rng.random_range(2..9999);
    format!(
        "<p>A total of {n1} patients reported side effects; the most common \
         was reported by {n2} patients, about 12.5 percent of the cohort.</p>"
    )
}

/// A small well-formed numeric table.
fn small_table(rng: &mut StdRng) -> String {
    let a = rng.random_range(1..500);
    let b = rng.random_range(1..500);
    format!(
        "<table><tr><th>effect</th><th>total</th></tr>\
         <tr><td>Rash</td><td>{a}</td></tr>\
         <tr><td>Depression</td><td>{b}</td></tr></table>"
    )
}

/// Generate one adversarial HTML page of the given family. Fully
/// deterministic in `seed`.
pub fn adversarial_page(kind: Adversary, seed: u64) -> String {
    let rng = &mut StdRng::seed_from_u64(seed ^ 0x5eed_ad5e);
    let mut page = String::from("<html><body>");
    page.push_str(&adversarial_paragraph(rng));
    match kind {
        Adversary::TruncatedHtml => {
            page.push_str(&small_table(rng));
            // Cut the page mid-structure: mid-tag, mid-comment, or
            // mid-cell, at a char boundary.
            let tail = match rng.random_range(0..3) {
                0 => "<table><tr><td>17</td><td",
                1 => "<table><tr><td>17</td></tr><!-- unterminated ",
                _ => "<table><tr><th>x</th></tr><tr><td>4",
            };
            page.push_str(tail);
            return page; // no closing tags at all
        }
        Adversary::UnbalancedTags => {
            page.push_str("<table><tr><td>5<table><tr><td>6</td></table>");
            page.push_str("</div></td></tr></p>");
            page.push_str("<tr><td>7</td></tr></table></table></tr>");
            page.push_str(&small_table(rng));
        }
        Adversary::ColspanBomb => {
            let span = rng.random_range(1_000..60_000);
            page.push_str(&format!(
                "<table><tr><th colspan=\"{span}\">wide</th></tr>\
                 <tr><td colspan=\"{span}\">9</td></tr>\
                 <tr><td>1</td><td>2</td></tr></table>"
            ));
        }
        Adversary::ZeroRowTable => {
            page.push_str("<table></table>");
            page.push_str("<table><tr></tr><tr></tr></table>");
            page.push_str("<table><tr><th>only</th><th>headers</th></tr></table>");
            page.push_str(&small_table(rng));
        }
        Adversary::NonFiniteNumerics => {
            let long_digits = "9".repeat(rng.random_range(310..400));
            page.push_str(&format!(
                "<p>Costs rose to 1e999 dollars, then to -1e999, NaN, \
                 Infinity, 0x1.fp3, and finally {long_digits}.</p>\
                 <table><tr><th>k</th><th>v</th></tr>\
                 <tr><td>a</td><td>1e999</td></tr>\
                 <tr><td>b</td><td>{long_digits}</td></tr>\
                 <tr><td>c</td><td>NaN</td></tr></table>"
            ));
        }
        Adversary::MixedLocale => {
            page.push_str(
                "<p>Revenue was 1.234.567,89 euro against 1,234,567.89 dollars, \
                 with 12.345 units sold and 1,23,45,678 rupees booked.</p>",
            );
            page.push_str(
                "<table><tr><th>region</th><th>amount</th></tr>\
                 <tr><td>EU</td><td>1.234.567,89</td></tr>\
                 <tr><td>US</td><td>1,234,567.89</td></tr>\
                 <tr><td>IN</td><td>1,23,45,678</td></tr></table>",
            );
        }
        Adversary::VirtualCellFanout => {
            let rows = rng.random_range(10..16);
            let cols = rng.random_range(10..16);
            // Cell (r, c) holds (r+1)*(c+7), so 70 = cell (9, 0) always
            // exists; naming it (and two headers) keeps the paragraph
            // related to the table under segmentation's overlap test.
            page.push_str(
                "<p>The c0 and c1 series both peaked near 70 across the \
                 whole measurement campaign.</p>",
            );
            page.push_str("<table><tr>");
            for c in 0..cols {
                page.push_str(&format!("<th>c{c}</th>"));
            }
            page.push_str("</tr>");
            for r in 0..rows {
                page.push_str("<tr>");
                for c in 0..cols {
                    page.push_str(&format!("<td>{}</td>", (r + 1) * (c + 7)));
                }
                page.push_str("</tr>");
            }
            page.push_str("</table>");
        }
        Adversary::RegexHostile => {
            let depth = rng.random_range(50..200);
            let parens = "(".repeat(depth) + "42" + &")".repeat(depth);
            let aaaa = "a".repeat(rng.random_range(200..500));
            page.push_str(&format!(
                "<p>{parens} +++$$$€€€%%% {aaaa}! 1,,2,,3 ..5.. -–−7 and \
                 $ € ¥ £ 12$34€56 follow.</p>"
            ));
            page.push_str(&small_table(rng));
        }
    }
    page.push_str("</body></html>");
    page
}

/// Parse an adversarial page into documents exactly as the binaries do
/// ([`briq_core::ingest_page`], the page named by its seed). May
/// legitimately be empty (e.g. a page truncated before any table
/// survived).
pub fn adversarial_documents(kind: Adversary, seed: u64) -> Vec<Document> {
    let html = adversarial_page(kind, seed);
    briq_core::ingest_page(&seed.to_string(), &html, seed as usize).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{generate_corpus, CorpusConfig};

    #[test]
    fn paper_examples_truncated() {
        assert_eq!(
            perturb_numeral("6746", Perturbation::Truncated).unwrap(),
            "6740"
        );
        assert_eq!(
            perturb_numeral("2.74", Perturbation::Truncated).unwrap(),
            "2.7"
        );
        assert_eq!(
            perturb_numeral("0.19", Perturbation::Truncated).unwrap(),
            "0.1"
        );
    }

    #[test]
    fn paper_examples_rounded() {
        assert_eq!(
            perturb_numeral("6746", Perturbation::Rounded).unwrap(),
            "6750"
        );
        assert_eq!(
            perturb_numeral("2.74", Perturbation::Rounded).unwrap(),
            "2.7"
        );
        assert_eq!(
            perturb_numeral("0.19", Perturbation::Rounded).unwrap(),
            "0.2"
        );
    }

    #[test]
    fn grouping_preserved() {
        assert_eq!(
            perturb_numeral("3,263", Perturbation::Truncated).unwrap(),
            "3,260"
        );
        assert_eq!(
            perturb_numeral("3,267", Perturbation::Rounded).unwrap(),
            "3,270"
        );
    }

    #[test]
    fn single_digits_untouched() {
        assert_eq!(perturb_numeral("5", Perturbation::Truncated), None);
        assert_eq!(perturb_numeral("5", Perturbation::Rounded), None);
    }

    #[test]
    fn decimal_collapse_to_integer() {
        assert_eq!(
            perturb_numeral("1.5", Perturbation::Truncated).unwrap(),
            "1"
        );
        assert_eq!(perturb_numeral("1.5", Perturbation::Rounded).unwrap(), "2");
    }

    #[test]
    fn original_is_identity() {
        let c = generate_corpus(&CorpusConfig::small(9));
        let ld = &c.documents[0];
        let same = perturb_document(ld, Perturbation::Original);
        assert_eq!(same.document.text, ld.document.text);
        assert_eq!(same.gold, ld.gold);
    }

    #[test]
    fn perturbed_gold_spans_still_cover_numbers() {
        let c = generate_corpus(&CorpusConfig::small(10));
        for p in [Perturbation::Truncated, Perturbation::Rounded] {
            for ld in &c.documents {
                let out = perturb_document(ld, p);
                assert_eq!(out.gold.len(), ld.gold.len());
                for g in &out.gold {
                    assert!(g.mention_end <= out.document.text.len());
                    let slice = &out.document.text[g.mention_start..g.mention_end];
                    assert!(
                        slice.chars().any(|ch| ch.is_ascii_digit()),
                        "{p:?}: gold slice {slice:?} lost its number"
                    );
                }
            }
        }
    }

    #[test]
    fn tables_unchanged() {
        let c = generate_corpus(&CorpusConfig::small(11));
        let ld = &c.documents[0];
        let out = perturb_document(ld, Perturbation::Truncated);
        assert_eq!(out.document.tables, ld.document.tables);
    }

    #[test]
    fn adversarial_pages_are_deterministic() {
        for kind in Adversary::ALL {
            assert_eq!(
                adversarial_page(kind, 7),
                adversarial_page(kind, 7),
                "{kind:?}"
            );
            // Different seeds should (for the randomized families) be
            // able to differ; at minimum they must not panic.
            let _ = adversarial_page(kind, 8);
        }
    }

    #[test]
    fn adversarial_pages_parse_without_panicking() {
        for kind in Adversary::ALL {
            for seed in 0..20 {
                let docs = adversarial_documents(kind, seed);
                for d in &docs {
                    assert!(d.text.len() < 1 << 20, "{kind:?} text exploded");
                }
            }
        }
    }

    #[test]
    fn fanout_family_generates_dense_tables() {
        let docs = adversarial_documents(Adversary::VirtualCellFanout, 3);
        let table = docs
            .iter()
            .flat_map(|d| d.tables.iter())
            .max_by_key(|t| t.quantity_count())
            .expect("fanout page has a table");
        assert!(table.quantity_count() >= 100, "{}", table.quantity_count());
    }

    #[test]
    fn truncation_changes_most_multidigit_numbers() {
        let c = generate_corpus(&CorpusConfig::small(12));
        let mut changed = 0;
        let mut total = 0;
        for ld in &c.documents {
            let out = perturb_document(ld, Perturbation::Truncated);
            total += 1;
            if out.document.text != ld.document.text {
                changed += 1;
            }
        }
        assert!(
            changed * 10 >= total * 7,
            "only {changed}/{total} documents changed"
        );
    }
}
