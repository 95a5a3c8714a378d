//! # briq-regex
//!
//! The Unicode currency-symbol table the BriQ quantity extractors use.
//!
//! The paper ("Bridging Quantities in Tables and Text", ICDE 2019, §III)
//! writes its extraction patterns with `\p{Currency_Symbol}`. In this
//! reproduction `briq-text`'s hand-written scanners (tokenizer, sentence
//! splitter, unit recognizer) do that extraction, and this crate supplies
//! the one property they ask about: [`is_currency_symbol`].

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod unicode;

pub use unicode::is_currency_symbol;
