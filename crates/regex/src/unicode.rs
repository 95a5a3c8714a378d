//! Minimal Unicode property tables.
//!
//! Only the properties the BriQ extraction patterns use are implemented.
//! Currency symbols follow the Unicode `Sc` (Currency_Symbol) category,
//! restricted to the ranges that occur in practice on the Web.

/// Is `c` in the Unicode `Currency_Symbol` (`Sc`) category?
pub fn is_currency_symbol(c: char) -> bool {
    matches!(
        c,
        '$' | '¢'
            | '£'
            | '¤'
            | '¥'
            | '֏'
            | '؋'
            | '৲'
            | '৳'
            | '৻'
            | '૱'
            | '௹'
            | '฿'
            | '៛'
            | '\u{20A0}'
            ..='\u{20BF}' // the Currency Symbols block: ₠..₿ (€ is U+20AC)
        | '꠸' | '﷼' | '﹩' | '＄' | '￠' | '￡' | '￥' | '￦'
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_currency_symbols() {
        for c in ['$', '€', '£', '¥', '₹', '₿', '¢', '￥'] {
            assert!(is_currency_symbol(c), "{c} should be a currency symbol");
        }
    }

    #[test]
    fn non_currency_chars() {
        for c in ['a', '1', '%', ' ', '#', '±'] {
            assert!(
                !is_currency_symbol(c),
                "{c} should not be a currency symbol"
            );
        }
    }
}
