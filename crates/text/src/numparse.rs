//! Numeric-literal parsing across web-table formats.
//!
//! Handles the heterogeneous surface forms the paper calls out (§I, §III,
//! Fig. 1 and Fig. 5):
//!
//! * plain and grouped integers: `123`, `3,263`, `246,725`,
//! * Indian-style grouping: `2,29,866`,
//! * European decimal comma: `0,877` (only when unambiguous),
//! * decimals: `1.5`, `25.27`,
//! * accounting negatives: `(9.49)` and sign prefixes `-4`, `+2`,
//! * scale suffixes: `37K`, `2.3k`, `5M`, `1.2B`, `3bn`,
//! * scale words: `million`, `billion`, `Mio`, `crore`, `lakh`,
//! * spelled-out numbers: `twenty`, `one hundred and five`, `twenty-five`.

/// Parsed numeric literal with format metadata.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParsedNumber {
    /// The numeric value as written, before scale words/suffixes.
    pub value: f64,
    /// Number of digits after the decimal point in the surface form.
    pub precision: u8,
    /// True if the surface form used digit grouping (`3,263`).
    pub grouped: bool,
    /// True for accounting-style `(…)` negatives.
    pub accounting_negative: bool,
}

/// Parse a numeral string (digits with optional grouping/decimal marks and
/// sign) into a [`ParsedNumber`]. Returns `None` if `s` is not a numeral,
/// or is an adversarial one that would not produce a finite value (a
/// 400-digit run parses to `inf`, which would poison every downstream
/// value comparison).
pub fn parse_numeral(s: &str) -> Option<ParsedNumber> {
    let s = s.trim();
    if s.is_empty() {
        return None;
    }
    let (s, accounting_negative) = if s.starts_with('(') && s.ends_with(')') {
        (&s[1..s.len() - 1], true)
    } else {
        (s, false)
    };
    let (s, neg) = match s.strip_prefix('-').or_else(|| s.strip_prefix('−')) {
        Some(rest) => (rest, true),
        None => (s.strip_prefix('+').unwrap_or(s), false),
    };
    let s = s.trim();
    if !s.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    if !s
        .chars()
        .all(|c| c.is_ascii_digit() || c == ',' || c == '.')
    {
        return None;
    }
    let (mantissa, precision, grouped) = interpret_marks(s)?;
    if !mantissa.is_finite() {
        return None;
    }
    let sign = if neg || accounting_negative {
        -1.0
    } else {
        1.0
    };
    Some(ParsedNumber {
        value: sign * mantissa,
        precision,
        grouped,
        accounting_negative,
    })
}

/// Where one kind of mark (`,` or `.`) occurs in a numeral.
#[derive(Default)]
struct Marks {
    count: usize,
    /// Byte index of the first and of the last occurrence.
    first: usize,
    last: usize,
    /// True when every two consecutive occurrences enclose three digits.
    threes: bool,
}

impl Marks {
    fn see(&mut self, i: usize) {
        if self.count == 0 {
            (self.first, self.threes) = (i, true);
        } else {
            self.threes &= i - self.last == 4;
        }
        self.last = i;
        self.count += 1;
    }
}

/// Numerals up to this many bytes are parsed from a stack buffer.
const STACK_NUMERAL: usize = 40;

/// Decide which of `,` / `.` are grouping marks vs. the decimal point and
/// compute the value. `s` holds only ASCII digits and marks and starts
/// with a digit. One scan copies its digits into a buffer and notes where
/// each mark occurs; the value is parsed from those digits, with a `.`
/// put back where the decimal mark stood.
fn interpret_marks(s: &str) -> Option<(f64, u8, bool)> {
    let b = s.as_bytes();
    let mut stack = [0u8; STACK_NUMERAL];
    let mut heap = Vec::new();
    let digits: &mut [u8] = if b.len() <= STACK_NUMERAL {
        &mut stack[..b.len()]
    } else {
        heap.resize(b.len(), 0);
        &mut heap
    };
    let (mut commas, mut dots) = (Marks::default(), Marks::default());
    let mut n = 0;
    for (i, &c) in b.iter().enumerate() {
        match c {
            b',' => commas.see(i),
            b'.' => dots.see(i),
            _ => {
                digits[n] = c;
                n += 1;
            }
        }
    }
    // The length of the last group, after the last mark of a kind.
    let tail = |m: &Marks| b.len() - m.last - 1;
    let grouped = |digits: &mut [u8]| Some((parse_digits(digits, n, None)?, 0, true));
    // A leading lone `0` (as in `0,877`) is never grouping — it reads as
    // a European decimal comma (Fig. 1c of the paper writes `0,877` for
    // 0.877).
    let lone_zero = commas.first == 1 && b[0] == b'0';

    match (commas.count, dots.count) {
        // Plain digits.
        (0, 0) => Some((s.parse().ok()?, 0, false)),
        // Only commas, in Western grouping: first group 1–3 digits, all
        // later groups 3.
        (_, 0) if tail(&commas) == 3 && commas.first <= 3 && !lone_zero && commas.threes => {
            grouped(digits)
        }
        // One mark that does not group is the decimal point: a European
        // decimal comma ("0,877", "2,67") or a dot ("1.234" could be
        // grouping but the dominant reading in English web text is
        // decimal). A trailing "5," or "5." is not a numeral.
        (1, 0) | (0, 1) => {
            let mark = if commas.count == 1 { &commas } else { &dots };
            match tail(mark) {
                0 => None,
                frac => Some((parse_digits(digits, n, Some(mark.last))?, frac as u8, false)),
            }
        }
        // Several commas, otherwise: Indian grouping "2,29,866", last
        // group 3, earlier groups 1-2.
        (_, 0) => (tail(&commas) == 3).then(|| grouped(digits))?,
        // Several dots: "1.234.567" — European grouping; every group
        // after the first must have exactly three digits ("1..2" is not
        // a numeral).
        (0, _) => (dots.first <= 3 && dots.threes && tail(&dots) == 3).then(|| grouped(digits))?,
        // Both marks present: the right-most one is the decimal separator,
        // every earlier mark groups.
        (c, d) => {
            let dec = commas.last.max(dots.last);
            let int = dec + 1 - (c + d);
            Some((
                parse_digits(digits, n, Some(int))?,
                (b.len() - dec - 1) as u8,
                true,
            ))
        }
    }
}

/// Parse the digits `buf[..n]` as an `f64`, with a decimal point put back
/// after the first `int` of them when there is one (`buf` has room for
/// it: the point replaces a mark).
fn parse_digits(buf: &mut [u8], n: usize, int: Option<usize>) -> Option<f64> {
    let len = match int {
        Some(k) => {
            buf.copy_within(k..n, k + 1);
            buf[k] = b'.';
            n + 1
        }
        None => n,
    };
    std::str::from_utf8(&buf[..len]).ok()?.parse().ok()
}

/// Multiplier for a scale word / suffix. Case-insensitive.
pub fn scale_multiplier(word: &str) -> Option<f64> {
    scale_of_lowercase(&word.to_lowercase())
}

/// [`scale_multiplier`] of a word that is already lowercase.
pub(crate) fn scale_of_lowercase(w: &str) -> Option<f64> {
    Some(match w {
        "k" | "thousand" | "thousands" => 1e3,
        "lakh" | "lakhs" => 1e5,
        "m" | "mm" | "mio" | "million" | "millions" => 1e6,
        "crore" | "crores" => 1e7,
        "b" | "bn" | "billion" | "billions" => 1e9,
        "t" | "tn" | "trillion" | "trillions" => 1e12,
        _ => return None,
    })
}

/// Parse a numeral that may carry a glued scale suffix: `37K`, `2.3k`,
/// `1.2B`. Returns `(unscaled, multiplier, precision)`.
pub fn parse_suffixed(s: &str) -> Option<(f64, f64, u8)> {
    let s = s.trim();
    let split = s.find(|c: char| c.is_alphabetic())?;
    let (num, suffix) = s.split_at(split);
    let mult = scale_multiplier(suffix)?;
    let p = parse_numeral(num)?;
    Some((p.value, mult, p.precision))
}

const ONES: [(&str, u64); 19] = [
    ("one", 1),
    ("two", 2),
    ("three", 3),
    ("four", 4),
    ("five", 5),
    ("six", 6),
    ("seven", 7),
    ("eight", 8),
    ("nine", 9),
    ("ten", 10),
    ("eleven", 11),
    ("twelve", 12),
    ("thirteen", 13),
    ("fourteen", 14),
    ("fifteen", 15),
    ("sixteen", 16),
    ("seventeen", 17),
    ("eighteen", 18),
    ("nineteen", 19),
];

const TENS: [(&str, u64); 8] = [
    ("twenty", 20),
    ("thirty", 30),
    ("forty", 40),
    ("fifty", 50),
    ("sixty", 60),
    ("seventy", 70),
    ("eighty", 80),
    ("ninety", 90),
];

/// The scale words a spelled-out number may carry, after `hundred`.
const SCALE_WORDS: [&str; 4] = ["thousand", "million", "billion", "trillion"];

/// Can `w` start a spelled-out number that [`parse_word_number`] reads?
/// Compared ignoring ASCII case.
pub(crate) fn starts_word_number(w: &str) -> bool {
    // Every number word is 3 to 9 ASCII letters ("one" to "seventeen").
    let mut buf = [0u8; 9];
    let Some(lower) = buf.get_mut(..w.len()).filter(|b| b.len() >= 3) else {
        return false;
    };
    lower.copy_from_slice(w.as_bytes());
    lower.make_ascii_lowercase();
    std::str::from_utf8(lower).is_ok_and(|w| {
        ones_value(w).is_some()
            || tens_value(w).is_some()
            || w == "hundred"
            || SCALE_WORDS.contains(&w)
    })
}

fn ones_value(w: &str) -> Option<u64> {
    ONES.iter().find(|&&(s, _)| s == w).map(|&(_, v)| v)
}

fn tens_value(w: &str) -> Option<u64> {
    TENS.iter().find(|&&(s, _)| s == w).map(|&(_, v)| v)
}

/// Parse a sequence of lowercase words as a spelled-out cardinal.
///
/// Accepts forms like `["twenty"]`, `["twenty", "five"]` (also written
/// `twenty-five` after hyphen splitting), `["one", "hundred", "and",
/// "five"]`, `["two", "million"]`. Returns the value and how many words
/// were consumed from the front; `None` when no number starts here, or
/// when it overflows 64-bit arithmetic (a hostile page can repeat
/// "trillion" until `u64` wraps; checked arithmetic turns that into
/// `None` instead of a debug-mode panic).
pub fn parse_word_number(words: &[&str]) -> Option<(f64, usize)> {
    let mut total: u64 = 0;
    let mut current: u64 = 0;
    let mut consumed = 0;
    let mut i = 0;
    while i < words.len() {
        let w = words[i];
        if let Some(v) = ones_value(w) {
            current = current.checked_add(v)?;
        } else if let Some(v) = tens_value(w) {
            current = current.checked_add(v)?;
            // allow "twenty five" / "twenty-five"
            if i + 1 < words.len() {
                if let Some(o) = ones_value(words[i + 1]) {
                    if o < 10 {
                        current = current.checked_add(o)?;
                        i += 1;
                    }
                }
            }
        } else if w == "hundred" {
            if current == 0 {
                current = 1;
            }
            current = current.checked_mul(100)?;
        } else if SCALE_WORDS.contains(&w) {
            let mult = scale_multiplier(w)? as u64;
            if current == 0 {
                current = 1;
            }
            total = current
                .checked_mul(mult)
                .and_then(|scaled| total.checked_add(scaled))?;
            current = 0;
        } else if w == "and" && consumed > 0 {
            // connective inside "one hundred and five"
        } else {
            break;
        }
        i += 1;
        consumed = i;
    }
    if consumed == 0 {
        return None;
    }
    // trailing "and" should not be consumed
    if words[consumed - 1] == "and" {
        consumed -= 1;
        if consumed == 0 {
            return None;
        }
    }
    let value = total.checked_add(current)?;
    Some((value as f64, consumed))
}

/// Order of magnitude (floor of log10 of |v|); 0 for v == 0.
pub fn order_of_magnitude(v: f64) -> i32 {
    if v == 0.0 || !v.is_finite() {
        0
    } else {
        v.abs().log10().floor() as i32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The two-pass parse `interpret_marks` replaced, kept as its
    /// reference: mark indices and group splits as vectors, digits
    /// filtered into a `String`.
    fn interpret_marks_reference(s: &str) -> Option<(f64, u8, bool)> {
        let commas: Vec<usize> = s.match_indices(',').map(|(i, _)| i).collect();
        let dots: Vec<usize> = s.match_indices('.').map(|(i, _)| i).collect();

        // Both marks present: the right-most one is the decimal separator.
        if let (Some(&last_comma), Some(&last_dot)) = (commas.last(), dots.last()) {
            let (dec_pos, group) = if last_comma > last_dot {
                (last_comma, '.')
            } else {
                (last_dot, ',')
            };
            let int_part: String = s[..dec_pos]
                .chars()
                .filter(|c| c.is_ascii_digit())
                .collect();
            let frac_part = &s[dec_pos + 1..];
            if frac_part.contains(group) || frac_part.contains(if group == '.' { ',' } else { '.' })
            {
                return None;
            }
            let v: f64 = format!("{int_part}.{frac_part}").parse().ok()?;
            return Some((v, frac_part.len() as u8, true));
        }

        // Only dots.
        if commas.is_empty() && !dots.is_empty() {
            if dots.len() > 1 {
                let groups: Vec<&str> = s.split('.').collect();
                let ok = !groups[0].is_empty()
                    && groups[0].len() <= 3
                    && groups[1..].iter().all(|g| g.len() == 3);
                if !ok {
                    return None;
                }
                let digits: String = s.chars().filter(|c| c.is_ascii_digit()).collect();
                return Some((digits.parse().ok()?, 0, true));
            }
            let frac = &s[dots[0] + 1..];
            if frac.is_empty() {
                return None;
            }
            let v: f64 = s.parse().ok()?;
            return Some((v, frac.len() as u8, false));
        }

        // Only commas.
        if let Some(&last) = commas.last() {
            let tail = &s[last + 1..];
            let all_groups_of_three = tail.len() == 3 && group_sizes_ok_reference(s);
            if all_groups_of_three {
                let digits: String = s.chars().filter(|c| c.is_ascii_digit()).collect();
                return Some((digits.parse().ok()?, 0, true));
            }
            if commas.len() == 1 {
                if tail.is_empty() {
                    return None;
                }
                let v: f64 = s.replace(',', ".").parse().ok()?;
                return Some((v, tail.len() as u8, false));
            }
            if tail.len() == 3 {
                let digits: String = s.chars().filter(|c| c.is_ascii_digit()).collect();
                return Some((digits.parse().ok()?, 0, true));
            }
            return None;
        }

        // Plain digits.
        Some((s.parse().ok()?, 0, false))
    }

    fn group_sizes_ok_reference(s: &str) -> bool {
        let groups: Vec<&str> = s.split(',').collect();
        if groups.is_empty() || groups[0].is_empty() || groups[0].len() > 3 || groups[0] == "0" {
            return false;
        }
        groups[1..].iter().all(|g| g.len() == 3 && !g.contains('.'))
    }

    /// `interpret_marks`' result with the value as its bit pattern.
    fn bits(r: Option<(f64, u8, bool)>) -> Option<(u64, u8, bool)> {
        r.map(|(v, p, g)| (v.to_bits(), p, g))
    }

    /// `digits` as numeral text.
    fn text(digits: &[u8]) -> String {
        digits.iter().map(|&d| char::from(b'0' + d)).collect()
    }

    /// Digit groups joined by marks: a lead group of 1–4 digits (a lone
    /// `0` one time in five), then up to 14 groups of three digits
    /// (one time in nine of 0, 1, 2 or 4), joined by commas only
    /// (`mode` 0), dots only (1) or either (2). Well-formed groupings,
    /// malformed groups and trailing marks all occur, and the longest
    /// run past the stack buffer.
    fn grouped_numeral() -> impl Strategy<Value = String> {
        let four = || proptest::collection::vec(0u8..10, 4..=4);
        let lead = (0u8..5, four()).prop_map(|(k, d)| match k {
            0 => "0".to_string(),
            _ => text(&d[..usize::from(k)]),
        });
        let group = (0u8..9, four()).prop_map(|(k, d)| match k {
            0..=4 => text(&d[..3]),
            _ => text(&d[..[0, 1, 2, 4][usize::from(k - 5)]]),
        });
        (
            lead,
            0u8..3,
            proptest::collection::vec((0u8..2, group), 0..15),
        )
            .prop_map(|(mut s, mode, rest)| {
                for (m, group) in rest {
                    s.push(match (mode, m) {
                        (0, _) | (2, 0) => ',',
                        _ => '.',
                    });
                    s.push_str(&group);
                }
                s
            })
    }

    /// A leading digit, then any run of digits and marks.
    fn mark_soup() -> impl Strategy<Value = String> {
        (0u8..10, proptest::collection::vec(0u8..12, 0..50)).prop_map(|(lead, rest)| {
            std::iter::once(lead)
                .chain(rest)
                .map(|c| match c {
                    10 => ',',
                    11 => '.',
                    d => char::from(b'0' + d),
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The one-pass parse agrees with the reference on every grouped
        /// numeral, bit for bit.
        #[test]
        fn one_pass_marks_match_the_reference_on_grouped_numerals(s in grouped_numeral()) {
            prop_assert_eq!(bits(interpret_marks(&s)), bits(interpret_marks_reference(&s)), "{}", s);
        }

        /// ... and on any run of digits and marks.
        #[test]
        fn one_pass_marks_match_the_reference_on_any_marks(s in mark_soup()) {
            prop_assert_eq!(bits(interpret_marks(&s)), bits(interpret_marks_reference(&s)), "{}", s);
        }
    }

    #[test]
    fn one_pass_marks_match_the_reference_on_the_documented_forms() {
        for s in [
            "3,263",
            "246,725",
            "1,144,716",
            "2,29,866",
            "0,877",
            "2,67",
            "25.27",
            "1,234.56",
            "1.234,56",
            "1.234.567",
            "1,23",
            "12,34,56",
            "1,234.",
            "5.",
            "5,",
            "1..2",
            "0,000",
            "34,900",
            "1,,234",
            "12345,678",
            "1.2,3.4",
        ] {
            assert_eq!(
                bits(interpret_marks(s)),
                bits(interpret_marks_reference(s)),
                "{s}"
            );
        }
        let long = "1,234".repeat(20);
        assert_eq!(
            bits(interpret_marks(&long)),
            bits(interpret_marks_reference(&long))
        );
    }

    fn val(s: &str) -> f64 {
        parse_numeral(s).unwrap().value
    }

    #[test]
    fn plain_integers() {
        assert_eq!(val("123"), 123.0);
        assert_eq!(val("0"), 0.0);
    }

    #[test]
    fn western_grouping() {
        assert_eq!(val("3,263"), 3263.0);
        assert_eq!(val("246,725"), 246725.0);
        assert_eq!(val("1,144,716"), 1144716.0);
        assert!(parse_numeral("3,263").unwrap().grouped);
    }

    #[test]
    fn indian_grouping() {
        assert_eq!(val("2,29,866"), 229866.0);
    }

    #[test]
    fn european_decimal_comma() {
        assert_eq!(val("0,877"), 0.877);
        assert_eq!(val("2,67"), 2.67);
        assert_eq!(parse_numeral("2,67").unwrap().precision, 2);
        assert_eq!(parse_numeral("0,877").unwrap().precision, 3);
    }

    #[test]
    fn decimals_and_precision() {
        let p = parse_numeral("25.27").unwrap();
        assert_eq!(p.value, 25.27);
        assert_eq!(p.precision, 2);
        assert_eq!(parse_numeral("1.543").unwrap().precision, 3);
        assert_eq!(parse_numeral("42").unwrap().precision, 0);
    }

    #[test]
    fn mixed_marks() {
        assert_eq!(val("1,234.56"), 1234.56);
        assert_eq!(val("1.234,56"), 1234.56);
        assert_eq!(val("1.234.567"), 1234567.0);
    }

    #[test]
    fn signs_and_accounting() {
        assert_eq!(val("-4"), -4.0);
        assert_eq!(val("+2.5"), 2.5);
        let p = parse_numeral("(9.49)").unwrap();
        assert_eq!(p.value, -9.49);
        assert!(p.accounting_negative);
    }

    #[test]
    fn rejects_non_numbers() {
        assert!(parse_numeral("abc").is_none());
        assert!(parse_numeral("").is_none());
        assert!(parse_numeral("12a").is_none());
        assert!(parse_numeral(",123").is_none());
    }

    #[test]
    fn ambiguous_comma_as_decimal_requires_single() {
        // "1,23" single comma, tail != 3 → decimal comma
        assert_eq!(val("1,23"), 1.23);
        // "12,34,56" weird grouping → rejected
        assert!(parse_numeral("12,34,56").is_none());
    }

    #[test]
    fn suffix_scales() {
        assert_eq!(parse_suffixed("37K"), Some((37.0, 1e3, 0)));
        assert_eq!(parse_suffixed("2.3k"), Some((2.3, 1e3, 1)));
        assert_eq!(parse_suffixed("1.2B"), Some((1.2, 1e9, 1)));
        assert_eq!(parse_suffixed("3bn"), Some((3.0, 1e9, 0)));
        assert!(parse_suffixed("37Q").is_none());
        assert!(parse_suffixed("37").is_none());
    }

    #[test]
    fn scale_words() {
        assert_eq!(scale_multiplier("million"), Some(1e6));
        assert_eq!(scale_multiplier("Mio"), Some(1e6));
        assert_eq!(scale_multiplier("crore"), Some(1e7));
        assert_eq!(scale_multiplier("pound"), None);
    }

    #[test]
    fn word_numbers() {
        assert_eq!(parse_word_number(&["twenty"]), Some((20.0, 1)));
        assert_eq!(parse_word_number(&["twenty", "five"]), Some((25.0, 2)));
        assert_eq!(
            parse_word_number(&["one", "hundred", "and", "five"]),
            Some((105.0, 4))
        );
        assert_eq!(
            parse_word_number(&["two", "million"]),
            Some((2_000_000.0, 2))
        );
        assert_eq!(
            parse_word_number(&["three", "hundred", "thousand"]),
            Some((300_000.0, 3))
        );
        assert_eq!(parse_word_number(&["pounds"]), None);
    }

    #[test]
    fn word_number_stops_at_non_number() {
        let (v, n) = parse_word_number(&["twenty", "pounds"]).unwrap();
        assert_eq!(v, 20.0);
        assert_eq!(n, 1);
    }

    #[test]
    fn trailing_and_not_consumed() {
        let (v, n) = parse_word_number(&["two", "hundred", "and"]).unwrap();
        assert_eq!(v, 200.0);
        assert_eq!(n, 2);
    }

    #[test]
    fn huge_digit_runs_rejected_as_non_finite() {
        let huge = "9".repeat(400);
        assert!(parse_numeral(&huge).is_none());
        assert!(parse_numeral("abc").is_none());
        // A merely large but finite numeral still parses.
        assert!(parse_numeral(&"9".repeat(300)).is_some());
    }

    #[test]
    fn word_number_overflow_is_an_error_not_a_panic() {
        // "nineteen hundred hundred …" — each "hundred" multiplies, so a
        // dozen of them overflow u64.
        let words: Vec<&str> = std::iter::once("nineteen")
            .chain(std::iter::repeat_n("hundred", 12))
            .collect();
        assert!(parse_word_number(&words).is_none());
    }

    #[test]
    fn magnitude() {
        assert_eq!(order_of_magnitude(37000.0), 4);
        assert_eq!(order_of_magnitude(37.0), 1);
        assert_eq!(order_of_magnitude(0.05), -2);
        assert_eq!(order_of_magnitude(0.0), 0);
        assert_eq!(order_of_magnitude(-250.0), 2);
    }
}
