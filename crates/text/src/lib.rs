//! # briq-text
//!
//! Text-processing substrate for BriQ ("Bridging Quantities in Tables and
//! Text", ICDE 2019). The paper's extraction stage (§III) and feature stage
//! (§IV-B) need a small but real NLP toolchain:
//!
//! * [`token`] — offset-preserving tokenizer,
//! * [`sentence`] — sentence segmentation,
//! * [`numparse`] — numeric-literal parsing across the formats found in web
//!   tables (`3,263`, `2,29,866`, `0,877`, `(9.49)`, `37K`, `$3.26 billion`,
//!   word numbers like `twenty`),
//! * [`units`] — unit lexicon (currencies, percent, basis points, physical
//!   measures),
//! * [`quantity`] — quantity-mention extraction from running text and table
//!   cells, with the paper's exclusions (dates, headings, references,
//!   phone numbers, identifiers such as `Win10`),
//! * [`cues`] — cue-word dictionaries for aggregation functions and
//!   approximation modifiers (§V-A),
//! * [`pos`] / [`chunker`] — a rule/lexicon POS-lite tagger and noun-phrase
//!   chunker powering the phrase-overlap features f4/f5.
//!
//! Everything is deterministic and dependency-light; where the original
//! system used heavyweight NLP tooling, this crate substitutes transparent
//! rules applied uniformly to both sides of every comparison (see
//! DESIGN.md, substitution table).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod chunker;
pub mod cues;
pub mod numparse;
pub mod pos;
pub mod qkb;
pub mod quantity;
pub mod sentence;
pub mod token;
pub mod units;

pub use cues::{AggregationKind, ApproxIndicator};
pub use quantity::{extract_quantities, parse_cell_quantity, QuantityMention};
pub use token::{tokenize, Token, TokenKind};
pub use units::Unit;
