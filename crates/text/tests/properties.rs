//! Property-based tests for the text substrate.

use briq_text::numparse::{order_of_magnitude, parse_numeral};
use briq_text::quantity::extract_quantities;
use briq_text::sentence::split_sentences;
use briq_text::token::{light_stem, light_stem_into, tokenize};
use proptest::prelude::*;

proptest! {
    /// Token spans tile the non-whitespace source text and round-trip.
    #[test]
    fn token_spans_roundtrip(s in "\\PC{0,120}") {
        let toks = tokenize(&s);
        let mut prev_end = 0usize;
        for t in &toks {
            prop_assert!(t.start >= prev_end, "tokens must not overlap");
            prop_assert!(t.end > t.start);
            prop_assert_eq!(&s[t.start..t.end], t.text.as_str());
            prev_end = t.end;
        }
    }

    /// Formatting an integer with Western grouping parses back exactly.
    #[test]
    fn grouped_integers_roundtrip(v in 0u64..10_000_000_000) {
        let grouped = group_thousands(v);
        let p = parse_numeral(&grouped).expect("grouped integer must parse");
        prop_assert_eq!(p.value, v as f64);
        prop_assert_eq!(p.precision, 0);
    }

    /// Plain decimal strings parse to the same value f64 parsing gives.
    #[test]
    fn decimals_match_std_parse(int in 0u32..1_000_000, frac in 0u32..1000) {
        let s = format!("{int}.{frac:03}");
        let p = parse_numeral(&s).unwrap();
        let expect: f64 = s.parse().unwrap();
        prop_assert!((p.value - expect).abs() < 1e-9);
        prop_assert_eq!(p.precision, 3);
    }

    /// Negation symmetry: "-x" parses to the negation of "x".
    #[test]
    fn negation_symmetry(int in 1u32..1_000_000) {
        let pos = parse_numeral(&int.to_string()).unwrap().value;
        let neg = parse_numeral(&format!("-{int}")).unwrap().value;
        let acc = parse_numeral(&format!("({int})")).unwrap().value;
        prop_assert_eq!(neg, -pos);
        prop_assert_eq!(acc, -pos);
    }

    /// Sentence spans are ordered, non-overlapping, and within bounds.
    #[test]
    fn sentence_spans_wellformed(s in "[A-Za-z0-9 .,!?%$]{0,200}") {
        let spans = split_sentences(&s);
        let mut prev = 0usize;
        for (a, b) in spans {
            prop_assert!(a >= prev);
            prop_assert!(b <= s.len());
            prop_assert!(a < b);
            prev = b;
        }
    }

    /// Quantity extraction is total and spans round-trip to surface forms.
    #[test]
    fn extraction_is_total(s in "\\PC{0,200}") {
        for m in extract_quantities(&s) {
            prop_assert_eq!(&s[m.start..m.end], m.raw.as_str());
            prop_assert!(m.value.is_finite());
        }
    }

    /// Every extracted value's scale() agrees with order_of_magnitude.
    #[test]
    fn scale_consistency(v in 1u64..1_000_000_000) {
        let text = format!("we counted {v} things");
        let ms = extract_quantities(&text);
        prop_assert_eq!(ms.len(), 1);
        prop_assert_eq!(ms[0].scale(), order_of_magnitude(v as f64));
    }

    /// Extraction of "N units" always finds exactly N when N is not a year.
    #[test]
    fn plain_counts_extracted(v in 1u64..1800) {
        let text = format!("the team sold {v} units today");
        let ms = extract_quantities(&text);
        prop_assert_eq!(ms.len(), 1);
        prop_assert_eq!(ms[0].value, v as f64);
    }
}

proptest! {
    /// Stemming into a reused buffer gives what `light_stem` returns:
    /// ASCII words near every suffix rule, and any text at all (Greek
    /// final sigma, Turkish dotted capital I).
    #[test]
    fn light_stem_into_matches_light_stem(
        stem in "[a-zA-Z]{0,6}",
        suffix in 0usize..8,
        any in "\\PC{0,12}",
        greek in "[ΑΣΟΔσςİIı]{1,6}",
    ) {
        let ascii = stem + ["", "s", "S", "ies", "IES", "ses", "ss", "us"][suffix];
        let mut buf = String::from("stale");
        for word in [ascii.as_str(), any.as_str(), greek.as_str()] {
            light_stem_into(word, &mut buf);
            prop_assert_eq!(&buf, &light_stem(word), "word {:?}", word);
        }
    }
}

fn group_thousands(v: u64) -> String {
    let s = v.to_string();
    let mut out = String::new();
    let bytes = s.as_bytes();
    for (i, b) in bytes.iter().enumerate() {
        if i > 0 && (bytes.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(*b as char);
    }
    out
}
