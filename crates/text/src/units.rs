//! Unit lexicon: currencies, percent, basis points and physical measures.
//!
//! The paper's tagger (§V-A) restricts itself to dollar, euro, percent,
//! pound and "unknown unit"; extraction (§III) additionally pulls units
//! from symbols (`$`, `€`), ISO-ish codes (`USD`, `CDN`), words
//! (`dollars`), and table headers (`($ Millions)`, `Emission (g/km)`).

/// Currency identification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Currency {
    /// US dollar (also the generic `$`).
    Usd,
    /// Euro.
    Eur,
    /// British pound.
    Gbp,
    /// Canadian dollar (`CDN`, `CAD`).
    Cad,
    /// Indian rupee.
    Inr,
    /// Japanese yen.
    Jpy,
    /// A currency symbol/code we recognize as monetary but do not map.
    Other,
}

/// Physical / domain measures seen in the paper's examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Measure {
    /// Miles-per-gallon-equivalent (Fig. 1b).
    Mpge,
    /// Grams per kilometre (CO₂ emission, Fig. 1b).
    GramsPerKm,
    /// Kilowatt hours.
    KWh,
    /// Milligrams (clinical dosage, §XI).
    Mg,
    /// Kilometres.
    Km,
    /// Generic count of things ("patients", "units", "people").
    Count,
}

/// A quantity's unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Unit {
    /// A currency amount.
    Currency(Currency),
    /// Percentage (`%`, `per cent`, `percent`).
    Percent,
    /// Basis points (`bps`, Fig. 3).
    BasisPoints,
    /// A physical measure.
    Measure(Measure),
    /// No unit could be determined.
    None,
}

impl Unit {
    /// True if a unit was determined.
    pub fn is_specified(self) -> bool {
        !matches!(self, Unit::None)
    }

    /// Do two units agree? (Used by feature f8 and pruning.)
    ///
    /// Currency amounts in different currencies *disagree*; `Other`
    /// matches any currency (we know it's monetary, not which one).
    pub fn matches(self, other: Unit) -> bool {
        use Unit::*;
        match (self, other) {
            (Currency(a), Currency(b)) => {
                a == b || a == self::Currency::Other || b == self::Currency::Other
            }
            (a, b) => a == b,
        }
    }
}

/// Resolve a currency symbol character.
pub fn currency_from_symbol(c: char) -> Option<Currency> {
    Some(match c {
        '$' | '＄' => Currency::Usd,
        '€' => Currency::Eur,
        '£' | '￡' => Currency::Gbp,
        '₹' => Currency::Inr,
        '¥' | '￥' => Currency::Jpy,
        c if briq_regex::is_currency_symbol(c) => Currency::Other,
        _ => return None,
    })
}

/// Resolve a unit word or code that is already lowercase (`usd`, `eur`,
/// `cdn`, `dollars`, `percent`, `bps`, `mpge`, `g/km`, …): the extractor
/// and [`unit_from_header`] lowercase their text once, before the lookup.
pub(crate) fn unit_from_lowercase(w: &str) -> Option<Unit> {
    Some(match w {
        "usd" | "dollar" | "dollars" | "us$" => Unit::Currency(Currency::Usd),
        "eur" | "euro" | "euros" => Unit::Currency(Currency::Eur),
        "gbp" | "pound" | "pounds" | "sterling" => Unit::Currency(Currency::Gbp),
        "cad" | "cdn" => Unit::Currency(Currency::Cad),
        "inr" | "rupee" | "rupees" | "rs" => Unit::Currency(Currency::Inr),
        "jpy" | "yen" => Unit::Currency(Currency::Jpy),
        "percent" | "pct" | "percentage" => Unit::Percent,
        "bps" | "bp" => Unit::BasisPoints,
        "mpge" | "mpg" => Unit::Measure(Measure::Mpge),
        "g/km" => Unit::Measure(Measure::GramsPerKm),
        "kwh" => Unit::Measure(Measure::KWh),
        "mg" => Unit::Measure(Measure::Mg),
        "km" => Unit::Measure(Measure::Km),
        "units" | "unit" | "patients" | "people" | "persons" | "vehicles" | "cases" => {
            Unit::Measure(Measure::Count)
        }
        _ => return None,
    })
}

/// Extract a unit hint from header/caption text like `($ Millions)`,
/// `Emission (g/km)`, `Income gains (in Mio)`, `MSRP in EUR`.
///
/// Returns the unit and an optional scale multiplier implied by the header
/// (`($ Millions)` → ×1e6).
pub fn unit_from_header(text: &str) -> (Unit, Option<f64>) {
    // Each word is a piece of this lowercase text, so it is read as is.
    let lower = text.to_lowercase();
    let mut unit = Unit::None;
    let mut scale = None;
    for raw in lower.split(|c: char| {
        !(c.is_alphanumeric() || c == '$' || c == '€' || c == '£' || c == '%' || c == '/')
    }) {
        if raw.is_empty() {
            continue;
        }
        if unit == Unit::None {
            if let Some(u) = unit_from_lowercase(raw) {
                unit = u;
            } else if let Some(c) = raw.chars().next().and_then(currency_from_symbol) {
                unit = Unit::Currency(c);
            } else if raw == "%" {
                unit = Unit::Percent;
            }
        }
        if scale.is_none() && raw.len() > 1 {
            // Single letters (`b`, `m`, `k`) only act as scales when glued
            // to a numeral (`37K`); as free-standing header tokens they
            // are almost always initials or labels ("segment B").
            if let Some(m) = crate::numparse::scale_of_lowercase(raw) {
                scale = Some(m);
            }
        }
    }
    // A bare symbol like "($ Millions)" won't split off cleanly above:
    if unit == Unit::None {
        if let Some(c) = lower.chars().find_map(currency_from_symbol) {
            unit = Unit::Currency(c);
        } else if lower.contains('%') {
            unit = Unit::Percent;
        }
    }
    (unit, scale)
}

/// The five-valued unit category used by the text-mention tagger (§V-A):
/// dollar, euro, percent, pound, unknown.
pub fn tagger_unit_category(u: Unit) -> usize {
    match u {
        Unit::Currency(Currency::Usd) | Unit::Currency(Currency::Cad) => 0,
        Unit::Currency(Currency::Eur) => 1,
        Unit::Percent | Unit::BasisPoints => 2,
        Unit::Currency(Currency::Gbp) => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbols_resolve() {
        assert_eq!(currency_from_symbol('$'), Some(Currency::Usd));
        assert_eq!(currency_from_symbol('€'), Some(Currency::Eur));
        assert_eq!(currency_from_symbol('£'), Some(Currency::Gbp));
        assert_eq!(currency_from_symbol('₿'), Some(Currency::Other));
        assert_eq!(currency_from_symbol('x'), None);
    }

    #[test]
    fn words_resolve() {
        assert_eq!(
            unit_from_lowercase("eur"),
            Some(Unit::Currency(Currency::Eur))
        );
        assert_eq!(
            unit_from_lowercase("cdn"),
            Some(Unit::Currency(Currency::Cad))
        );
        assert_eq!(unit_from_lowercase("percent"), Some(Unit::Percent));
        assert_eq!(unit_from_lowercase("bps"), Some(Unit::BasisPoints));
        assert_eq!(
            unit_from_lowercase("mpge"),
            Some(Unit::Measure(Measure::Mpge))
        );
        assert_eq!(unit_from_lowercase("frobnitz"), None);
    }

    #[test]
    fn unit_matching() {
        assert!(Unit::Currency(Currency::Usd).matches(Unit::Currency(Currency::Usd)));
        assert!(!Unit::Currency(Currency::Usd).matches(Unit::Currency(Currency::Eur)));
        assert!(Unit::Currency(Currency::Usd).matches(Unit::Currency(Currency::Other)));
        assert!(!Unit::Percent.matches(Unit::BasisPoints));
        assert!(Unit::None.matches(Unit::None));
    }

    #[test]
    fn header_units() {
        let (u, s) = unit_from_header("($ Millions)");
        assert_eq!(u, Unit::Currency(Currency::Usd));
        assert_eq!(s, Some(1e6));

        let (u, s) = unit_from_header("Emission (g/km)");
        assert_eq!(u, Unit::Measure(Measure::GramsPerKm));
        assert_eq!(s, None);

        let (u, s) = unit_from_header("Income gains (in Mio)");
        assert_eq!(u, Unit::None);
        assert_eq!(s, Some(1e6));

        let (u, _) = unit_from_header("% Change");
        assert_eq!(u, Unit::Percent);

        let (u, s) = unit_from_header("Final rating");
        assert_eq!(u, Unit::None);
        assert_eq!(s, None);
    }

    #[test]
    fn tagger_categories_are_stable() {
        assert_eq!(tagger_unit_category(Unit::Currency(Currency::Usd)), 0);
        assert_eq!(tagger_unit_category(Unit::Currency(Currency::Eur)), 1);
        assert_eq!(tagger_unit_category(Unit::Percent), 2);
        assert_eq!(tagger_unit_category(Unit::Currency(Currency::Gbp)), 3);
        assert_eq!(tagger_unit_category(Unit::None), 4);
        assert_eq!(tagger_unit_category(Unit::Measure(Measure::Km)), 4);
    }
}

briq_json::json_unit_enum!(Currency {
    Usd,
    Eur,
    Gbp,
    Cad,
    Inr,
    Jpy,
    Other
});
briq_json::json_unit_enum!(Measure {
    Mpge,
    GramsPerKm,
    KWh,
    Mg,
    Km,
    Count
});
briq_json::json_enum!(Unit {
    Currency(Currency),
    Percent,
    BasisPoints,
    Measure(Measure),
    None,
});
