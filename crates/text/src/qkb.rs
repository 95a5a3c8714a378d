//! A miniature quantity knowledge base (QKB).
//!
//! The paper considered a baseline derived from earlier work on linking
//! quantities to a knowledge base (§VII-D): map both the text mention and
//! the table cell to the QKB — normalizing measure and unit — and align
//! when they link to the same entry with exactly matching values. It was
//! dismissed because (a) real QKBs are small and manually crafted, so
//! most units are simply not covered, and (b) exact matching fails on the
//! approximate mentions that dominate web text.
//!
//! This module reproduces that setting: a deliberately small registry of
//! canonical measures (the kind of coverage a hand-built QKB has), with
//! unit conversions to a canonical base.

use crate::quantity::QuantityMention;
use crate::units::{Currency, Measure, Unit};

/// Canonical dimensions the mini-QKB knows about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dimension {
    /// Monetary amounts; canonical unit: one unit of the stated currency.
    /// Currencies are *not* converted into each other (a QKB registers
    /// units, not exchange rates).
    Money(Currency),
    /// Dimensionless ratios; canonical unit: percent. Basis points
    /// normalize (60 bps → 0.6%).
    Ratio,
    /// Distances; canonical unit: kilometre.
    Distance,
    /// Masses; canonical unit: gram.
    Mass,
}

/// A canonicalized quantity: value expressed in the dimension's base unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CanonicalQuantity {
    /// Value in canonical units.
    pub value: f64,
    /// The dimension.
    pub dimension: Dimension,
}

/// Map a parsed quantity into the QKB, if its unit is registered.
///
/// Coverage is intentionally limited — that is the point of the baseline.
pub fn canonicalize(q: &QuantityMention) -> Option<CanonicalQuantity> {
    let (value, dimension) = match q.unit {
        Unit::Currency(c @ (Currency::Usd | Currency::Eur | Currency::Gbp)) => {
            (q.value, Dimension::Money(c))
        }
        // Other currencies are "not registered" in the mini-QKB.
        Unit::Currency(_) => return None,
        Unit::Percent => (q.value, Dimension::Ratio),
        Unit::BasisPoints => (q.value / 100.0, Dimension::Ratio),
        Unit::Measure(Measure::Km) => (q.value, Dimension::Distance),
        Unit::Measure(Measure::Mg) => (q.value / 1000.0, Dimension::Mass),
        // MPGe, g/km, kWh, plain counts: not in the registry.
        _ => return None,
    };
    Some(CanonicalQuantity { value, dimension })
}

/// QKB equality: same entry (dimension) and *exactly* matching values —
/// the paper notes "the test can work only if the values of the two
/// normalized mentions match exactly".
pub fn same_entry(a: &CanonicalQuantity, b: &CanonicalQuantity) -> bool {
    a.dimension == b.dimension && a.value == b.value
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cues::ApproxIndicator;

    fn q(value: f64, unit: Unit) -> QuantityMention {
        QuantityMention {
            raw: format!("{value}"),
            value,
            unnormalized: value,
            unit,
            precision: 0,
            approx: ApproxIndicator::None,
            start: 0,
            end: 1,
        }
    }

    #[test]
    fn registered_currencies_canonicalize() {
        let c = canonicalize(&q(37_000.0, Unit::Currency(Currency::Eur))).unwrap();
        assert_eq!(c.dimension, Dimension::Money(Currency::Eur));
        assert_eq!(c.value, 37_000.0);
    }

    #[test]
    fn unregistered_units_are_out_of_coverage() {
        assert!(canonicalize(&q(100.0, Unit::Currency(Currency::Inr))).is_none());
        assert!(canonicalize(&q(100.0, Unit::Measure(Measure::Mpge))).is_none());
        assert!(canonicalize(&q(100.0, Unit::None)).is_none());
    }

    #[test]
    fn basis_points_normalize_to_percent() {
        let bps = canonicalize(&q(60.0, Unit::BasisPoints)).unwrap();
        let pct = canonicalize(&q(0.6, Unit::Percent)).unwrap();
        assert!(same_entry(&bps, &pct));
    }

    #[test]
    fn milligrams_normalize_to_grams() {
        let mg = canonicalize(&q(500.0, Unit::Measure(Measure::Mg))).unwrap();
        assert_eq!(mg.dimension, Dimension::Mass);
        assert_eq!(mg.value, 0.5);
    }

    #[test]
    fn exact_match_is_strict() {
        let a = canonicalize(&q(37_000.0, Unit::Currency(Currency::Eur))).unwrap();
        let b = canonicalize(&q(36_900.0, Unit::Currency(Currency::Eur))).unwrap();
        assert!(!same_entry(&a, &b)); // '37K' vs 36900 — the QKB fails here
        let c = canonicalize(&q(37_000.0, Unit::Currency(Currency::Usd))).unwrap();
        assert!(!same_entry(&a, &c)); // currencies don't convert
    }
}
