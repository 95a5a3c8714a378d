//! Quantity extraction pinned against CQE's categories (PAPERS.md):
//! ranges, changes, compound and shared units, fractions, scientific
//! notation, approximations, negatives and years. One sentence per case,
//! each pinned at what `extract_quantities` returns today (raw, value,
//! unit, precision, approximation) — wrong readings included, so a fix
//! shows up here as a deliberate edit of its case. A case the extractor
//! does not support yet names the reason; a case without one reads the
//! way it should.

use briq_text::cues::ApproxIndicator::{self, Approximate, LowerBound, UpperBound};
use briq_text::quantity::extract_quantities;
use briq_text::units::{Currency, Measure, Unit};

/// One extracted quantity: raw surface, normalized value, unit,
/// precision, approximation.
type Q = (&'static str, f64, Unit, u8, ApproxIndicator);

/// One probe sentence.
struct Case {
    text: &'static str,
    /// Every quantity extracted today, in text order.
    today: &'static [Q],
    /// Why today's reading is not the right one; `None` when it is.
    unsupported: Option<&'static str>,
}

const NONE: Unit = Unit::None;
const USD: Unit = Unit::Currency(Currency::Usd);
const EUR: Unit = Unit::Currency(Currency::Eur);
const COUNT: Unit = Unit::Measure(Measure::Count);
const EXACT: ApproxIndicator = ApproxIndicator::None;

#[rustfmt::skip]
const RANGES: &[Case] = &[
    Case {
        text: "Prices ranged between 5 and 10 dollars.",
        today: &[("5", 5.0, NONE, 0, EXACT), ("10 dollars", 10.0, USD, 0, EXACT)],
        unsupported: Some("the shared unit reaches only the last member"),
    },
    Case {
        text: "The trial enrolled 120-150 patients.",
        today: &[("120", 120.0, NONE, 0, EXACT), ("150 patients", 150.0, COUNT, 0, EXACT)],
        unsupported: Some("the shared unit reaches only the last member"),
    },
    Case {
        text: "Revenue was $3.2 to $4.1 million.",
        today: &[
            ("$3.2", 3.2, USD, 1, EXACT),
            ("$4.1 million", 4_099_999.999_999_999_5, USD, 1, EXACT),
        ],
        unsupported: Some("the shared scale reaches only the last member, and 4.1 million is scaled inexactly"),
    },
    Case {
        text: "Scores ranged from 5 to 10.",
        today: &[("5", 5.0, NONE, 0, EXACT), ("10", 10.0, NONE, 0, EXACT)],
        unsupported: None,
    },
];

/// A change (`from X to Y`, `by Z%`) reads right when its quantities do:
/// the relation itself is not extracted until something consumes it.
#[rustfmt::skip]
const CHANGES: &[Case] = &[
    Case {
        text: "Revenue rose from $3.2 million to $4.1 million.",
        today: &[
            ("$3.2 million", 3_200_000.0, USD, 1, EXACT),
            ("$4.1 million", 4_099_999.999_999_999_5, USD, 1, EXACT),
        ],
        unsupported: Some("4.1 million is scaled inexactly"),
    },
    Case {
        text: "Sales grew by 12% to 340 units.",
        today: &[("12%", 12.0, Unit::Percent, 0, EXACT), ("340 units", 340.0, COUNT, 0, EXACT)],
        unsupported: None,
    },
    Case {
        text: "Output fell 7 percent to 1.5 billion.",
        today: &[
            ("7 percent", 7.0, Unit::Percent, 0, EXACT),
            ("1.5 billion", 1_500_000_000.0, NONE, 1, EXACT),
        ],
        unsupported: None,
    },
];

#[rustfmt::skip]
const UNITS: &[Case] = &[
    Case {
        text: "Emissions fell to 95 g/km this year.",
        today: &[("95", 95.0, NONE, 0, EXACT)],
        unsupported: Some("g/km is not read, although Measure::GramsPerKm exists"),
    },
    Case {
        text: "The car reached 120 km/h on the track.",
        today: &[("120 km", 120.0, Unit::Measure(Measure::Km), 0, EXACT)],
        unsupported: Some("km/h is read as km"),
    },
    Case {
        text: "The bags weighed 5 and 10 kg.",
        today: &[("5", 5.0, NONE, 0, EXACT), ("10", 10.0, NONE, 0, EXACT)],
        unsupported: Some("kg is not a unit, and a shared unit reaches only the last member"),
    },
    Case {
        text: "The bag weighed 10 kg.",
        today: &[("10", 10.0, NONE, 0, EXACT)],
        unsupported: Some("kg is not a unit"),
    },
    Case {
        text: "Revenue reached $4.1 million.",
        today: &[("$4.1 million", 4_099_999.999_999_999_5, USD, 1, EXACT)],
        unsupported: Some("4.1 million is scaled inexactly"),
    },
    Case {
        text: "The deal was worth €5bn in total.",
        today: &[("€5bn", 5_000_000_000.0, EUR, 0, EXACT)],
        unsupported: None,
    },
    Case {
        text: "Rates rose by 60 bps overall.",
        today: &[("60 bps", 60.0, Unit::BasisPoints, 0, EXACT)],
        unsupported: None,
    },
    Case {
        text: "Inflation was 2.5% in May.",
        today: &[("2.5%", 2.5, Unit::Percent, 1, EXACT)],
        unsupported: None,
    },
    Case {
        text: "The crowd reached twenty-five thousand people.",
        today: &[("twenty-five thousand people", 25_000.0, COUNT, 0, EXACT)],
        unsupported: None,
    },
    Case {
        text: "Profit was $12.5M and revenue $1.2bn.",
        today: &[
            ("$12.5M", 12_500_000.0, USD, 1, EXACT),
            ("$1.2bn", 1_200_000_000.0, USD, 1, EXACT),
        ],
        unsupported: None,
    },
];

#[rustfmt::skip]
const FRACTIONS: &[Case] = &[
    Case {
        text: "About 1/2 of them agreed.",
        today: &[("1", 1.0, NONE, 0, Approximate), ("2", 2.0, NONE, 0, Approximate)],
        unsupported: Some("a numeric fraction splits into its numerator and denominator"),
    },
    Case {
        text: "Two-thirds of voters agreed.",
        today: &[],
        unsupported: Some("a spelled-out fraction is not read"),
    },
];

#[rustfmt::skip]
const SCIENTIFIC: &[Case] = &[
    Case {
        text: "The sample held 1.2e6 cells.",
        today: &[("6", 6.0, NONE, 0, EXACT)],
        unsupported: Some("only the exponent is read"),
    },
    Case {
        text: "The load was 4E3 tonnes.",
        today: &[("3", 3.0, NONE, 0, EXACT)],
        unsupported: Some("only the exponent is read"),
    },
];

#[rustfmt::skip]
const APPROXIMATIONS: &[Case] = &[
    Case {
        text: "Roughly 40 people came.",
        today: &[("40 people", 40.0, COUNT, 0, Approximate)],
        unsupported: None,
    },
    Case {
        text: "The town has nearly 3,000 residents.",
        today: &[("3,000", 3_000.0, NONE, 0, Approximate)],
        unsupported: None,
    },
    Case {
        text: "The firm has more than 500 staff.",
        today: &[("500", 500.0, NONE, 0, LowerBound)],
        unsupported: None,
    },
    Case {
        text: "The plant cost at most 20 million euros.",
        today: &[("20 million euros", 20_000_000.0, EUR, 0, UpperBound)],
        unsupported: None,
    },
];

#[rustfmt::skip]
const NEGATIVES: &[Case] = &[
    Case {
        text: "The fund lost -4.5 million last year.",
        today: &[("4.5 million", 4_500_000.0, NONE, 1, EXACT)],
        unsupported: Some("the minus sign is dropped"),
    },
    Case {
        text: "The fund lost (4.5) million last year.",
        today: &[("4.5) million", -4_500_000.0, NONE, 1, EXACT)],
        unsupported: Some("the accounting negative's raw string loses its opening parenthesis"),
    },
    Case {
        text: "Temperatures fell to -12 degrees.",
        today: &[("12", 12.0, NONE, 0, EXACT)],
        unsupported: Some("the minus sign is dropped"),
    },
];

/// Years and ordinals: neither is a quantity.
#[rustfmt::skip]
const YEARS: &[Case] = &[
    Case {
        text: "Sales were up compared with 2018.",
        today: &[("2018", 2018.0, NONE, 0, EXACT)],
        unsupported: Some("a year is extracted as a quantity"),
    },
    Case {
        text: "She won in the 2019 race.",
        today: &[("2019", 2019.0, NONE, 0, EXACT)],
        unsupported: Some("a year is extracted as a quantity"),
    },
    Case {
        text: "It happened in 1999 and 2001 with 17 trials.",
        today: &[("2001", 2001.0, NONE, 0, EXACT), ("17", 17.0, NONE, 0, EXACT)],
        unsupported: Some("a year list loses only its first member as a date"),
    },
    Case {
        text: "He finished 3rd in the race.",
        today: &[],
        unsupported: None,
    },
];

#[test]
fn extraction_matches_the_pinned_cqe_categories() {
    let categories = [
        ("ranges", RANGES),
        ("changes", CHANGES),
        ("compound and shared units", UNITS),
        ("fractions", FRACTIONS),
        ("scientific notation", SCIENTIFIC),
        ("approximations", APPROXIMATIONS),
        ("negatives", NEGATIVES),
        ("years", YEARS),
    ];
    let mut drifted = Vec::new();
    for (category, cases) in categories {
        for case in cases {
            let got = extract_quantities(case.text);
            // Values compare by bit pattern, so an inexact scaling counts.
            let same = got.len() == case.today.len()
                && got
                    .iter()
                    .zip(case.today)
                    .all(|(q, &(raw, value, unit, precision, approx))| {
                        (
                            q.raw.as_str(),
                            q.value.to_bits(),
                            q.unit,
                            q.precision,
                            q.approx,
                        ) == (raw, value.to_bits(), unit, precision, approx)
                    });
            if !same {
                let got: Vec<_> = got
                    .iter()
                    .map(|q| (&q.raw, q.value, q.unit, q.precision, q.approx))
                    .collect();
                // A fix of an unsupported case lands here too: re-pin the
                // case and drop its reason.
                let status = case.unsupported.unwrap_or("supported");
                drifted.push(format!(
                    "{category}: {:?} ({status})\n  pinned {:?}\n  got    {got:?}",
                    case.text, case.today
                ));
            }
        }
    }
    assert!(drifted.is_empty(), "{}", drifted.join("\n"));
}
