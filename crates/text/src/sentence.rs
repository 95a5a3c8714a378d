//! Sentence segmentation.
//!
//! Sentences delimit the *local context* of a text mention (feature f4 and
//! the tagger's local scope, §V-A). Paragraphs, the atomic building blocks
//! of BriQ documents (§III), come from the HTML page's `<p>` elements, not
//! from this module.

/// Common abbreviations that should not end a sentence.
const ABBREVIATIONS: &[&str] = &[
    "mr", "mrs", "ms", "dr", "prof", "vs", "etc", "inc", "ltd", "co", "corp", "no", "vol", "fig",
    "eq", "ca", "approx", "jan", "feb", "mar", "apr", "jun", "jul", "aug", "sep", "sept", "oct",
    "nov", "dec", "st", "e.g", "i.e", "u.s", "u.k", "mio",
];

fn push_trimmed(text: &str, start: usize, end: usize, spans: &mut Vec<(usize, usize)>) {
    if start >= end {
        return;
    }
    let seg = &text[start..end];
    let l = seg.len() - seg.trim_start().len();
    let r = seg.len() - seg.trim_end().len();
    if start + l < end - r {
        spans.push((start + l, end - r));
    }
}

/// Split `text` into sentences. Returns `(start, end)` byte spans.
///
/// A sentence ends at `.`, `!` or `?` followed by whitespace and an
/// uppercase letter/digit — except after known abbreviations, initials
/// (`J.`), or decimal numbers (`1.5`).
pub fn split_sentences(text: &str) -> Vec<(usize, usize)> {
    let chars: Vec<(usize, char)> = text.char_indices().collect();
    let n = chars.len();
    let mut spans = Vec::new();
    let mut start = 0usize;
    let mut i = 0;
    while i < n {
        let (bi, c) = chars[i];
        if c == '!' || c == '?' || c == '.' {
            let end_candidate = bi + c.len_utf8();
            let is_boundary = if c == '.' {
                !is_decimal_context(&chars, i) && !is_abbreviation(text, bi)
            } else {
                true
            } && followed_by_sentence_start(&chars, i);
            if is_boundary {
                push_trimmed(text, start, end_candidate, &mut spans);
                start = end_candidate;
            }
        }
        i += 1;
    }
    push_trimmed(text, start, text.len(), &mut spans);
    spans
}

/// `1.5` — dot flanked by digits.
fn is_decimal_context(chars: &[(usize, char)], i: usize) -> bool {
    let prev_digit = i > 0 && chars[i - 1].1.is_ascii_digit();
    let next_digit = i + 1 < chars.len() && chars[i + 1].1.is_ascii_digit();
    prev_digit && next_digit
}

/// The word before the period is an abbreviation or a single initial.
fn is_abbreviation(text: &str, dot_at: usize) -> bool {
    let before = &text[..dot_at];
    // `p + len_utf8`, not `p + 1`: the delimiter may be multi-byte.
    let word_start = before
        .char_indices()
        .rev()
        .find(|&(_, c)| !(c.is_alphanumeric() || c == '.'))
        .map(|(p, c)| p + c.len_utf8())
        .unwrap_or(0);
    let word = before[word_start..].trim_end_matches('.').to_lowercase();
    word.len() == 1 || ABBREVIATIONS.contains(&word.as_str())
}

/// After the terminator: whitespace then uppercase/digit (or end of text).
fn followed_by_sentence_start(chars: &[(usize, char)], i: usize) -> bool {
    let mut j = i + 1;
    // allow closing quotes/parens directly after the terminator
    while j < chars.len() && matches!(chars[j].1, '"' | '\'' | ')' | '”' | '’') {
        j += 1;
    }
    if j >= chars.len() {
        return true;
    }
    if !chars[j].1.is_whitespace() {
        return false;
    }
    while j < chars.len() && chars[j].1.is_whitespace() {
        j += 1;
    }
    j >= chars.len()
        || chars[j].1.is_uppercase()
        || chars[j].1.is_ascii_digit()
        || chars[j].1 == '$'
        || briq_regex::is_currency_symbol(chars[j].1)
}

/// Find the sentence span containing byte offset `at`.
pub fn sentence_containing(spans: &[(usize, usize)], at: usize) -> Option<(usize, usize)> {
    spans.iter().copied().find(|&(s, e)| s <= at && at < e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_sentences() {
        let t = "Sales were up 5%. Segment profit was up 11%. Margins grew.";
        let s = split_sentences(t);
        assert_eq!(s.len(), 3);
        assert_eq!(&t[s[0].0..s[0].1], "Sales were up 5%.");
    }

    #[test]
    fn decimals_do_not_split() {
        let t = "It was at 25.27 per cent. Volumes grew.";
        let s = split_sentences(t);
        assert_eq!(s.len(), 2);
        assert!(t[s[0].0..s[0].1].contains("25.27"));
    }

    #[test]
    fn abbreviations_do_not_split() {
        let t = "Revenue was ca. 5 million. Profit grew.";
        let s = split_sentences(t);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn initials_do_not_split() {
        let t = "J. Smith said so. We agree.";
        let s = split_sentences(t);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn question_and_exclamation() {
        let t = "Did it grow? Yes! By 5%.";
        let s = split_sentences(t);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn empty_text() {
        assert!(split_sentences("").is_empty());
    }

    #[test]
    fn sentence_containing_works() {
        let t = "One. Two here. Three.";
        let s = split_sentences(t);
        let at = t.find("Two").unwrap();
        let span = sentence_containing(&s, at).unwrap();
        assert_eq!(&t[span.0..span.1], "Two here.");
        assert_eq!(sentence_containing(&s, t.len() + 5), None);
    }

    #[test]
    fn multibyte_delimiter_before_period_does_not_panic() {
        // A multi-byte char directly before the candidate word used to
        // push the word-start offset into the middle of that char.
        let t = "]P.M$' 🗶j4r. Next sentence.";
        let s = split_sentences(t);
        assert!(!s.is_empty());
        let t = "€x. Done.";
        let _ = split_sentences(t);
        let t = "日本語の文です。 Value 5. Next.";
        let _ = split_sentences(t);
    }

    #[test]
    fn sentence_before_dollar_amount() {
        let t = "Income fell. $50 wholesale cost gives profit.";
        let s = split_sentences(t);
        assert_eq!(s.len(), 2);
    }
}
