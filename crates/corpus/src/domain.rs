//! Thematic domains and their vocabularies.
//!
//! The tableL corpus "mostly falls under five major topics: finance,
//! environment, health, politics, and sports" (§VII-A), plus "others".
//! Table IX fixes each domain's average table shape; the vocabularies
//! below drive entity/attribute naming so context features have real
//! signal to work with.

use briq_text::units::{Currency, Unit};

/// Corpus domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Quarterly reports, revenues, margins.
    Finance,
    /// Cars, emissions, energy.
    Environment,
    /// Clinical trials, side effects.
    Health,
    /// Census, election statistics.
    Politics,
    /// Season statistics, match results.
    Sports,
    /// Miscellaneous product/price pages.
    Others,
}

impl Domain {
    /// All six domains, in the paper's reporting order (Table VIII).
    pub const ALL: [Domain; 6] = [
        Domain::Environment,
        Domain::Finance,
        Domain::Health,
        Domain::Politics,
        Domain::Sports,
        Domain::Others,
    ];

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Domain::Environment => "environment",
            Domain::Finance => "finance",
            Domain::Health => "health",
            Domain::Politics => "politics",
            Domain::Sports => "sports",
            Domain::Others => "others",
        }
    }

    /// Target data-table shape `(rows, cols)`, following Table IX.
    pub fn table_shape(self) -> (usize, usize) {
        match self {
            Domain::Environment => (7, 4),
            Domain::Finance => (7, 4),
            Domain::Health => (3, 2),
            Domain::Politics => (8, 3),
            Domain::Sports => (8, 6),
            Domain::Others => (7, 4),
        }
    }

    /// Row-entity vocabulary (row header values).
    pub fn entities(self) -> &'static [&'static str] {
        match self {
            Domain::Finance => &[
                "Total Revenue",
                "Gross Income",
                "Net Income",
                "Operating Costs",
                "Income Taxes",
                "Segment Profit",
                "Segment Margin",
                "Cash Flow",
                "Dividends",
                "Share Buybacks",
                "Interest Expense",
                "R&D Spending",
            ],
            Domain::Environment => &[
                "Focus Electric",
                "A3 e-tron",
                "VW Golf",
                "Model 3",
                "Leaf",
                "Prius Prime",
                "Ioniq",
                "Bolt",
                "Kona Electric",
                "Zoe",
                "i3",
                "e-Golf",
            ],
            Domain::Health => &[
                "Rash",
                "Depression",
                "Hypertension",
                "Nausea",
                "Eye Disorders",
                "Headache",
                "Fatigue",
                "Insomnia",
                "Dizziness",
                "Anxiety",
            ],
            Domain::Politics => &[
                "Northern District",
                "Southern District",
                "Eastern District",
                "Western District",
                "Central Ward",
                "Harbour Ward",
                "Riverside Precinct",
                "Hillside Precinct",
                "Old Town",
                "New Town",
                "Lakeside",
                "Greenfield",
            ],
            Domain::Sports => &[
                "United",
                "Rovers",
                "Athletic",
                "Wanderers",
                "City",
                "Rangers",
                "Albion",
                "County",
                "Town",
                "Harriers",
                "Dynamos",
                "Corinthians",
            ],
            Domain::Others => &[
                "Making Cost",
                "Materials Cost",
                "Shipping Cost",
                "Packaging Cost",
                "Assembly Cost",
                "Creative Fee",
                "Wholesale Price",
                "Retail Price",
                "Extra Parts",
                "Handling Fee",
            ],
        }
    }

    /// Column-attribute vocabulary (column header values) with the unit
    /// each column carries.
    pub fn attributes(self) -> &'static [(&'static str, ColumnKind)] {
        use ColumnKind::*;
        match self {
            Domain::Finance => &[
                ("FY 2013", Money),
                ("FY 2012", Money),
                ("FY 2011", Money),
                ("Q3 Estimate", Money),
                ("Q3 Actual", Money),
                ("% Change", Percent),
            ],
            Domain::Environment => &[
                ("German MSRP", Money),
                ("American MSRP", Money),
                ("Emission (g/km)", SmallCount),
                ("Fuel Economy", SmallCount),
                ("Final Rating", Rating),
                ("Range (km)", SmallCount),
            ],
            Domain::Health => &[
                ("male", Count),
                ("female", Count),
                ("total", Count),
                ("placebo", Count),
            ],
            Domain::Politics => &[
                ("Registered Voters", BigCount),
                ("Votes Cast", BigCount),
                ("Population", BigCount),
                ("Households", Count),
                ("Turnout %", Percent),
            ],
            Domain::Sports => &[
                ("Played", SmallCount),
                ("Won", SmallCount),
                ("Drawn", SmallCount),
                ("Lost", SmallCount),
                ("Goals For", SmallCount),
                ("Goals Against", SmallCount),
                ("Points", SmallCount),
                ("Attendance", BigCount),
            ],
            Domain::Others => &[
                ("Unit Price", Money),
                ("Bulk Price", Money),
                ("Stock", Count),
                ("Weight (kg)", SmallCount),
                ("Orders", Count),
            ],
        }
    }

    /// Topical filler words for paragraph prose.
    pub fn filler(self) -> &'static [&'static str] {
        match self {
            Domain::Finance => &[
                "the quarterly report shows solid momentum",
                "analysts expected weaker organic growth",
                "currency headwinds weighed on the outlook",
                "management reaffirmed its full-year guidance",
            ],
            Domain::Environment => &[
                "the ratings compare efficiency across trims",
                "charging infrastructure keeps improving",
                "incentives differ between markets",
                "the test cycle follows the official procedure",
            ],
            Domain::Health => &[
                "the drug trial followed standard protocol",
                "adverse events were recorded by clinicians",
                "the cohort completed the follow-up phase",
                "dosage was kept constant throughout",
            ],
            Domain::Politics => &[
                "the census night count is preliminary",
                "electoral boundaries were unchanged",
                "the returning officer certified the tally",
                "postal ballots are included in the figures",
            ],
            Domain::Sports => &[
                "the season entered its decisive phase",
                "the derby drew a record crowd",
                "injuries reshaped the starting lineup",
                "the table remains tight at the top",
            ],
            Domain::Others => &[
                "pricing assumes standard shipping terms",
                "the catalogue is updated every month",
                "bulk discounts apply beyond ten units",
                "handmade items vary slightly in finish",
            ],
        }
    }

    /// Noun used when counting things in this domain ("patients", …).
    pub fn count_noun(self) -> &'static str {
        match self {
            Domain::Finance => "units",
            Domain::Environment => "vehicles",
            Domain::Health => "patients",
            Domain::Politics => "people",
            Domain::Sports => "points",
            Domain::Others => "units",
        }
    }
}

/// What kind of values a column holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnKind {
    /// Monetary amounts (hundreds to millions).
    Money,
    /// Percentages (0–100, one decimal).
    Percent,
    /// Ratings (1.0–5.0, two decimals).
    Rating,
    /// Small counts (0–150).
    SmallCount,
    /// Medium counts (10–5 000).
    Count,
    /// Large counts (10 000–5 000 000).
    BigCount,
}

impl ColumnKind {
    /// The unit cells in this column carry (before header hints).
    pub fn unit(self) -> Unit {
        match self {
            ColumnKind::Money => Unit::Currency(Currency::Usd),
            ColumnKind::Percent => Unit::Percent,
            _ => Unit::None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_domains_with_names() {
        assert_eq!(Domain::ALL.len(), 6);
        let names: Vec<&str> = Domain::ALL.iter().map(|d| d.name()).collect();
        assert_eq!(
            names,
            vec![
                "environment",
                "finance",
                "health",
                "politics",
                "sports",
                "others"
            ]
        );
    }

    #[test]
    fn shapes_follow_table_ix() {
        assert_eq!(Domain::Health.table_shape(), (3, 2));
        assert_eq!(Domain::Sports.table_shape(), (8, 6));
        assert_eq!(Domain::Finance.table_shape(), (7, 4));
    }

    #[test]
    fn vocabularies_large_enough_for_shapes() {
        for d in Domain::ALL {
            let (rows, cols) = d.table_shape();
            assert!(d.entities().len() >= rows, "{:?} entities", d);
            assert!(d.attributes().len() >= cols, "{:?} attributes", d);
            assert!(!d.filler().is_empty());
        }
    }

    #[test]
    fn column_kinds_have_units() {
        assert_eq!(ColumnKind::Money.unit(), Unit::Currency(Currency::Usd));
        assert_eq!(ColumnKind::Percent.unit(), Unit::Percent);
        assert_eq!(ColumnKind::Count.unit(), Unit::None);
    }
}
