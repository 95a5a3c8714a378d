//! Offset-preserving tokenizer.
//!
//! Splits text into word, number, punctuation and symbol tokens while
//! keeping exact byte spans, so downstream consumers (quantity extraction,
//! context windows, proximity features) can always map back into the
//! original document.

/// Classification of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Alphabetic word (may contain internal hyphens/apostrophes: `e-tron`).
    Word,
    /// Numeric literal, possibly with grouping/decimal marks: `3,263`, `1.5`.
    Number,
    /// A word with embedded digits (`Win10`, `A3`) — never a quantity.
    Alphanumeric,
    /// Single punctuation character.
    Punct,
    /// Currency or other symbol (`$`, `€`, `%`, `±`).
    Symbol,
}

/// A token with its byte span in the source text.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token text (owned slice of the source).
    pub text: String,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// Token classification.
    pub kind: TokenKind,
}

impl Token {
    /// Lowercased token text.
    pub fn lower(&self) -> String {
        self.text.to_lowercase()
    }

    /// True for word-like tokens (words and alphanumerics).
    pub fn is_wordlike(&self) -> bool {
        matches!(self.kind, TokenKind::Word | TokenKind::Alphanumeric)
    }
}

fn is_symbol_char(c: char) -> bool {
    briq_regex::is_currency_symbol(c)
}

/// Character classes the tokenizer cares about.
#[derive(Debug, PartialEq, Clone, Copy)]
enum Cc {
    Alpha,
    Digit,
    Space,
    Sym,
    Punct,
}

fn classify(c: char) -> Cc {
    if c.is_whitespace() {
        Cc::Space
    } else if c.is_ascii_digit() || (!c.is_ascii() && c.is_numeric()) {
        Cc::Digit
    } else if c.is_alphabetic() {
        Cc::Alpha
    } else if c == '%' || c == '±' || c == '°' || is_symbol_char(c) {
        Cc::Sym
    } else {
        Cc::Punct
    }
}

/// Tokenize `text` into offset-annotated tokens.
///
/// Rules (tuned for quantity-bearing web text):
/// * digit runs may include `,` `.` as grouping/decimal marks when flanked
///   by digits (`3,263`, `1.5`, `2,29,866`), and `:` is excluded so times
///   split apart;
/// * a word directly abutting digits forms one [`TokenKind::Alphanumeric`]
///   token (`Win10`, `37K` is *two* tokens `37` + `K` only when the letter
///   run starts after the number — we keep `37K` together as alphanumeric?
///   No: trailing scale letters are kept with the number only by the
///   quantity parser; the tokenizer emits `37` and `K` separately when
///   separated, and `37K` as one `Alphanumeric` token when glued. The
///   quantity layer handles both);
/// * each punctuation char is its own token;
/// * currency/percent symbols are [`TokenKind::Symbol`] tokens.
pub fn tokenize(text: &str) -> Vec<Token> {
    SpanScanner::default()
        .spans(text)
        .map(|(start, end, kind)| Token {
            text: text[start..end].to_string(),
            start,
            end,
            kind,
        })
        .collect()
}

/// The scanner under [`tokenize`]: it yields each token as a
/// `(start, end, kind)` byte span, copying no token text, and keeps its
/// char buffer from one text to the next.
#[derive(Debug, Default)]
pub struct SpanScanner {
    /// Byte offset, char and class of each char of the current text.
    chars: Vec<(usize, char, Cc)>,
}

impl SpanScanner {
    /// The token spans of `text`, by the rules of [`tokenize`].
    pub fn spans<'a>(&'a mut self, text: &str) -> Spans<'a> {
        self.chars.clear();
        self.chars
            .extend(text.char_indices().map(|(b, c)| (b, c, classify(c))));
        Spans {
            chars: &self.chars,
            len: text.len(),
            i: 0,
        }
    }
}

/// Iterator returned by [`SpanScanner::spans`].
#[derive(Debug)]
pub struct Spans<'a> {
    chars: &'a [(usize, char, Cc)],
    /// Byte length of the text.
    len: usize,
    /// Index in `chars` of the next unread char.
    i: usize,
}

impl Spans<'_> {
    /// Byte offset of char `j`, or the text's length past its last char.
    fn offset(&self, j: usize) -> usize {
        self.chars.get(j).map_or(self.len, |&(b, _, _)| b)
    }

    /// Is char `j` of class `cc`?
    fn is(&self, j: usize, cc: Cc) -> bool {
        self.chars.get(j).is_some_and(|&(_, _, k)| k == cc)
    }
}

impl Iterator for Spans<'_> {
    type Item = (usize, usize, TokenKind);

    fn next(&mut self) -> Option<Self::Item> {
        let chars = self.chars;
        let n = chars.len();
        while self.i < n {
            let i = self.i;
            let (bi, _, cc) = chars[i];
            let (j, kind) = match cc {
                Cc::Space => {
                    self.i += 1;
                    continue;
                }
                Cc::Sym => (i + 1, TokenKind::Symbol),
                Cc::Punct => (i + 1, TokenKind::Punct),
                Cc::Digit => {
                    // Consume a number: digits with internal , . used as marks.
                    let mut j = i + 1;
                    while j < n {
                        let (_, cj, kj) = chars[j];
                        if kj == Cc::Digit {
                            j += 1;
                        } else if (cj == ',' || cj == '.') && self.is(j + 1, Cc::Digit) {
                            j += 2;
                        } else {
                            break;
                        }
                    }
                    // Glued trailing letters (Win10-style came from Alpha side;
                    // here: `10k`, `5th`, `2Q`) → alphanumeric token.
                    let mut kind = TokenKind::Number;
                    while self.is(j, Cc::Alpha) {
                        kind = TokenKind::Alphanumeric;
                        j += 1;
                    }
                    (j, kind)
                }
                Cc::Alpha => {
                    let mut j = i + 1;
                    let mut kind = TokenKind::Word;
                    while j < n {
                        let (_, cj, kj) = chars[j];
                        if kj == Cc::Alpha {
                            j += 1;
                        } else if kj == Cc::Digit {
                            kind = TokenKind::Alphanumeric;
                            j += 1;
                        } else if (cj == '-' || cj == '\'' || cj == '’')
                            && self.is(j + 1, Cc::Alpha)
                        {
                            j += 2;
                        } else {
                            break;
                        }
                    }
                    (j, kind)
                }
            };
            self.i = j;
            return Some((bi, self.offset(j), kind));
        }
        None
    }
}

/// Very light stemmer for overlap comparisons: lowercases and strips
/// regular plural/inflection suffixes (`prices` → `price`, `ratings` →
/// `rating`). Deliberately conservative — it only needs to make the same
/// word form on both sides of a comparison collide.
pub fn light_stem(word: &str) -> String {
    let w = word.to_lowercase();
    match inflection_cut(&w) {
        (keep, true) => format!("{}y", &w[..keep]),
        (keep, false) if keep < w.len() => w[..keep].to_string(),
        _ => w,
    }
}

/// [`light_stem`] of `word`, written into `stem`. An ASCII word is
/// lowercased and cut inside `stem`, so it allocates nothing once `stem`
/// has room for it; any other word goes through [`light_stem`], which
/// lowercases with `str::to_lowercase` (a Greek final sigma stays `ς`).
pub fn light_stem_into(word: &str, stem: &mut String) {
    if !word.is_ascii() {
        *stem = light_stem(word);
        return;
    }
    stem.clear();
    stem.push_str(word);
    stem.make_ascii_lowercase();
    let (keep, y) = inflection_cut(stem);
    stem.truncate(keep);
    if y {
        stem.push('y');
    }
}

/// The suffix rules of [`light_stem`] on a lowercased word `w`: how many
/// leading bytes the stem keeps, and whether a `y` follows them.
fn inflection_cut(w: &str) -> (usize, bool) {
    let n = w.len();
    if n > 4 && w.ends_with("ies") {
        (n - 3, true)
    } else if n > 4 && (w.ends_with("ses") || w.ends_with("xes") || w.ends_with("hes")) {
        (n - 2, false)
    } else if n > 3 && w.ends_with('s') && !w.ends_with("ss") && !w.ends_with("us") {
        (n - 1, false)
    } else {
        (n, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(s: &str) -> Vec<(String, TokenKind)> {
        tokenize(s).into_iter().map(|t| (t.text, t.kind)).collect()
    }

    #[test]
    fn words_and_numbers() {
        let toks = kinds("revenue of 3,263 in 2013");
        assert_eq!(
            toks,
            vec![
                ("revenue".into(), TokenKind::Word),
                ("of".into(), TokenKind::Word),
                ("3,263".into(), TokenKind::Number),
                ("in".into(), TokenKind::Word),
                ("2013".into(), TokenKind::Number),
            ]
        );
    }

    #[test]
    fn decimal_and_percent() {
        let toks = kinds("up 1.5% now");
        assert_eq!(toks[1], ("1.5".into(), TokenKind::Number));
        assert_eq!(toks[2], ("%".into(), TokenKind::Symbol));
    }

    #[test]
    fn currency_symbols() {
        let toks = kinds("$3.26 billion and 37 €");
        assert_eq!(toks[0], ("$".into(), TokenKind::Symbol));
        assert_eq!(toks[1], ("3.26".into(), TokenKind::Number));
        assert_eq!(toks[4], ("37".into(), TokenKind::Number));
        assert_eq!(toks[5], ("€".into(), TokenKind::Symbol));
    }

    #[test]
    fn alphanumerics_stay_together() {
        let toks = kinds("Win10 and A3 e-tron and 37K");
        assert_eq!(toks[0], ("Win10".into(), TokenKind::Alphanumeric));
        assert_eq!(toks[2], ("A3".into(), TokenKind::Alphanumeric));
        assert_eq!(toks[3], ("e-tron".into(), TokenKind::Word));
        assert_eq!(toks[5], ("37K".into(), TokenKind::Alphanumeric));
    }

    #[test]
    fn indian_grouping_kept() {
        let toks = kinds("2,29,866 units");
        assert_eq!(toks[0], ("2,29,866".into(), TokenKind::Number));
    }

    #[test]
    fn trailing_punct_splits() {
        let toks = kinds("total 123.");
        assert_eq!(toks[1], ("123".into(), TokenKind::Number));
        assert_eq!(toks[2], (".".into(), TokenKind::Punct));
    }

    #[test]
    fn spans_roundtrip() {
        let s = "net $0.9 billion CDN.";
        for t in tokenize(s) {
            assert_eq!(&s[t.start..t.end], t.text);
        }
    }

    #[test]
    fn hyphenated_words() {
        let toks = kinds("two-wheelers rose");
        assert_eq!(toks[0], ("two-wheelers".into(), TokenKind::Word));
    }

    #[test]
    fn parenthesized_negative_pieces() {
        let toks = kinds("$(9.49) Million");
        assert_eq!(
            toks,
            vec![
                ("$".into(), TokenKind::Symbol),
                ("(".into(), TokenKind::Punct),
                ("9.49".into(), TokenKind::Number),
                (")".into(), TokenKind::Punct),
                ("Million".into(), TokenKind::Word),
            ]
        );
    }
}
