//! Edge-case tests for the text substrate: adversarial numerals, messy
//! web formatting, exclusion heuristics, unit corner cases.

use briq_text::cues::{detect_approximation, ApproxIndicator};
use briq_text::numparse::{parse_numeral, parse_suffixed, parse_word_number};
use briq_text::quantity::{extract_quantities, parse_cell_quantity};
use briq_text::token::{light_stem, tokenize, TokenKind};
use briq_text::units::{unit_from_header, Currency, Unit};

mod numerals {
    use super::*;

    #[test]
    fn leading_zeros() {
        assert_eq!(parse_numeral("007").unwrap().value, 7.0);
        assert_eq!(parse_numeral("0.50").unwrap().value, 0.5);
        assert_eq!(parse_numeral("0.50").unwrap().precision, 2);
    }

    #[test]
    fn huge_and_tiny() {
        assert_eq!(
            parse_numeral("999,999,999,999").unwrap().value,
            999_999_999_999.0
        );
        assert_eq!(parse_numeral("0.0001").unwrap().value, 0.0001);
        assert_eq!(parse_numeral("0.0001").unwrap().precision, 4);
    }

    #[test]
    fn misplaced_separators_rejected() {
        for bad in ["1,,2", "1..2", ",5", "5,", "5.", "1,23,4", "12,345,6"] {
            assert!(
                parse_numeral(bad).is_none(),
                "{bad:?} should not parse as a numeral"
            );
        }
    }

    #[test]
    fn sign_variants() {
        assert_eq!(parse_numeral("−42").unwrap().value, -42.0); // U+2212
        assert_eq!(parse_numeral("(0.5)").unwrap().value, -0.5);
        assert!(parse_numeral("--5").is_none());
        assert!(parse_numeral("(5").is_none());
    }

    #[test]
    fn suffix_case_insensitive() {
        assert_eq!(parse_suffixed("5m").unwrap().1, 1e6);
        assert_eq!(parse_suffixed("5M").unwrap().1, 1e6);
        assert_eq!(parse_suffixed("5T").unwrap().1, 1e12);
        // a spaced suffix is tolerated (the tokenizer normally splits it)
        assert_eq!(parse_suffixed("5 K").unwrap().1, 1e3);
    }

    #[test]
    fn word_numbers_compound() {
        assert_eq!(parse_word_number(&["ninety", "nine"]), Some((99.0, 2)));
        assert_eq!(
            parse_word_number(&["one", "hundred", "twenty", "three"]),
            Some((123.0, 4))
        );
        assert_eq!(
            parse_word_number(&["twelve", "thousand"]),
            Some((12_000.0, 2))
        );
    }
}

mod extraction {
    use super::*;

    #[test]
    fn adjacent_mentions_do_not_merge() {
        let ms = extract_quantities("scores of 15 20 35 were posted");
        let vals: Vec<f64> = ms.iter().map(|m| m.value).collect();
        assert_eq!(vals, vec![15.0, 20.0, 35.0]);
    }

    #[test]
    fn mention_at_text_boundaries() {
        let ms = extract_quantities("42");
        assert_eq!(ms.len(), 1);
        let ms = extract_quantities("the answer is 42");
        assert_eq!(ms[0].start, 14);
        let ms = extract_quantities("42 is the answer");
        assert_eq!(ms[0].start, 0);
    }

    #[test]
    fn currency_symbol_and_code_combined() {
        let ms = extract_quantities("priced at $12 USD here");
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].unit, Unit::Currency(Currency::Usd));
    }

    #[test]
    fn euro_symbol_postfix() {
        let ms = extract_quantities("costs 37€ in Berlin");
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].unit, Unit::Currency(Currency::Eur));
    }

    #[test]
    fn negative_quantities_in_text() {
        let ms = extract_quantities("the delta was (9.49) million this year");
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].value, -9.49e6);
    }

    #[test]
    fn year_not_excluded_when_clearly_a_count() {
        // a 4-digit number with a unit noun is a quantity, not a year
        let ms = extract_quantities("the factory shipped 2020 units to stores");
        assert_eq!(ms.len(), 1, "{ms:?}");
        assert_eq!(ms[0].value, 2020.0);
    }

    #[test]
    fn fy_and_quarter_years_excluded() {
        let ms = extract_quantities("in FY 2013 sales hit 900 units");
        let vals: Vec<f64> = ms.iter().map(|m| m.value).collect();
        assert_eq!(vals, vec![900.0]);
    }

    #[test]
    fn percent_without_space() {
        let ms = extract_quantities("up 13.3% on margin");
        assert_eq!(ms[0].unit, Unit::Percent);
        assert_eq!(ms[0].raw, "13.3%");
    }

    #[test]
    fn multiple_units_different_mentions() {
        let ms = extract_quantities("37K EUR in Germany and 39K USD in the US");
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].unit, Unit::Currency(Currency::Eur));
        assert_eq!(ms[1].unit, Unit::Currency(Currency::Usd));
        assert_eq!(ms[0].value, 37_000.0);
        assert_eq!(ms[1].value, 39_000.0);
    }

    #[test]
    fn empty_and_whitespace_text() {
        assert!(extract_quantities("").is_empty());
        assert!(extract_quantities("   \n\t  ").is_empty());
        assert!(extract_quantities("no digits whatsoever").is_empty());
    }

    #[test]
    fn bare_currency_symbol_not_a_mention() {
        assert!(extract_quantities("the $ sign and the % sign").is_empty());
    }
}

mod cells {
    use super::*;

    #[test]
    fn cells_with_units_inside() {
        assert_eq!(parse_cell_quantity("105 MPGe").unwrap().value, 105.0);
        assert_eq!(
            parse_cell_quantity("60 bps").unwrap().unit,
            Unit::BasisPoints
        );
        assert_eq!(
            parse_cell_quantity("$1.15").unwrap().unit,
            Unit::Currency(Currency::Usd)
        );
    }

    #[test]
    fn cell_placeholders() {
        for p in ["--", "-", "n/a", "N/A", "NIL", "?", "—", ""] {
            assert!(parse_cell_quantity(p).is_none(), "{p:?} should be empty");
        }
    }

    #[test]
    fn cell_with_trailing_footnote() {
        assert_eq!(parse_cell_quantity("1,234*").unwrap().value, 1234.0);
        assert_eq!(parse_cell_quantity("  42  ").unwrap().value, 42.0);
    }

    #[test]
    fn textual_cells_have_no_quantity() {
        for c in ["BEV", "Focus E", "total", "male"] {
            assert!(parse_cell_quantity(c).is_none(), "{c:?}");
        }
    }
}

mod units_and_cues {
    use super::*;

    #[test]
    fn header_with_multiple_hints_takes_first_unit() {
        let (u, s) = unit_from_header("Revenue ($ Millions, unaudited)");
        assert_eq!(u, Unit::Currency(Currency::Usd));
        assert_eq!(s, Some(1e6));
    }

    #[test]
    fn header_single_letters_not_scales() {
        let (_, s) = unit_from_header("Group B totals");
        assert_eq!(s, None);
        let (_, s) = unit_from_header("Column K");
        assert_eq!(s, None);
    }

    #[test]
    fn unit_words_case_insensitive() {
        let unit = |text: &str| {
            let ms = extract_quantities(text);
            assert_eq!(ms.len(), 1, "{text}");
            ms[0].unit
        };
        assert_eq!(unit("12 EUR"), Unit::Currency(Currency::Eur));
        assert_eq!(unit("12 eur"), Unit::Currency(Currency::Eur));
        assert_eq!(unit("12 Percent"), Unit::Percent);
        assert_eq!(unit("twenty Dollars"), Unit::Currency(Currency::Usd));
    }

    #[test]
    fn bound_cues_two_words_required() {
        // "more" alone (without "than") is not a bound cue
        assert_eq!(detect_approximation(&["more"]), ApproxIndicator::None);
        assert_eq!(
            detect_approximation(&["more", "than"]),
            ApproxIndicator::LowerBound
        );
        // "up to" is an upper bound
        assert_eq!(
            detect_approximation(&["up", "to"]),
            ApproxIndicator::UpperBound
        );
    }
}

mod tokens {
    use super::*;

    #[test]
    fn unicode_words_tokenize() {
        let toks = tokenize("Saarbrücken reported 42 cases");
        assert_eq!(toks[0].text, "Saarbrücken");
        assert_eq!(toks[0].kind, TokenKind::Word);
    }

    #[test]
    fn mixed_script_roundtrip() {
        let s = "价格 is 37 € or ¥250";
        for t in tokenize(s) {
            assert_eq!(&s[t.start..t.end], t.text);
        }
    }

    #[test]
    fn stemming_cases() {
        assert_eq!(light_stem("prices"), "price");
        assert_eq!(light_stem("categories"), "category");
        assert_eq!(light_stem("boxes"), "box");
        assert_eq!(light_stem("classes"), "class");
        // not over-stemmed
        assert_eq!(light_stem("glass"), "glass");
        assert_eq!(light_stem("bus"), "bus");
        assert_eq!(light_stem("was"), "was"); // length guard
    }

    #[test]
    fn apostrophes_kept_in_words() {
        let toks = tokenize("the company's profit");
        assert_eq!(toks[1].text, "company's");
    }
}
