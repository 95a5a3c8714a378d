//! Cue-word dictionaries for aggregation functions and approximation
//! modifiers (§IV-B features f11/f12, §V-A tagger features).

/// The aggregation functions BriQ considers over table cells (§II-A).
///
/// The evaluation restricts itself to the four kinds that occur in ≥5% of
/// tables (sum, difference, percentage, change ratio); average, min and max
/// are supported by the framework and exercised in the extension benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregationKind {
    /// Row/column total.
    Sum,
    /// Difference of two cells `a − b`.
    Difference,
    /// Percentage of two cells `a / b · 100%`.
    Percentage,
    /// Change ratio `(a − b) / a`.
    ChangeRatio,
    /// Row/column average.
    Average,
    /// Row/column maximum.
    Max,
    /// Row/column minimum.
    Min,
}

impl AggregationKind {
    /// The four kinds used in the paper's experiments (§II-A).
    pub const EVALUATED: [AggregationKind; 4] = [
        Self::Sum,
        Self::Difference,
        Self::Percentage,
        Self::ChangeRatio,
    ];

    /// All supported kinds.
    pub const ALL: [AggregationKind; 7] = [
        Self::Sum,
        Self::Difference,
        Self::Percentage,
        Self::ChangeRatio,
        Self::Average,
        Self::Max,
        Self::Min,
    ];

    /// Position of this kind in [`AggregationKind::ALL`].
    pub const fn index(self) -> usize {
        match self {
            Self::Sum => 0,
            Self::Difference => 1,
            Self::Percentage => 2,
            Self::ChangeRatio => 3,
            Self::Average => 4,
            Self::Max => 5,
            Self::Min => 6,
        }
    }

    /// Short name used in reports (matches the paper's table headers).
    pub fn name(self) -> &'static str {
        match self {
            Self::Sum => "sum",
            Self::Difference => "diff",
            Self::Percentage => "percent",
            Self::ChangeRatio => "ratio",
            Self::Average => "avg",
            Self::Max => "max",
            Self::Min => "min",
        }
    }
}

/// Approximation indicator attached to a text mention (feature f11, §IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ApproxIndicator {
    /// An explicit exactness cue ("exactly", "precisely").
    Exact,
    /// An approximation cue ("about", "ca.", "nearly", "approximately").
    Approximate,
    /// An upper-bound cue ("less than", "at most", "under").
    UpperBound,
    /// A lower-bound cue ("more than", "at least", "over").
    LowerBound,
    /// No cue found.
    #[default]
    None,
}

/// Cue words for each aggregation function (§V-A: "total, summed, overall,
/// together" for sum, and analogous lists for the other tags).
pub fn aggregation_cues(kind: AggregationKind) -> &'static [&'static str] {
    match kind {
        AggregationKind::Sum => &[
            "total",
            "totals",
            "totalled",
            "totaled",
            "sum",
            "summed",
            "overall",
            "together",
            "combined",
            "altogether",
            "in-all",
        ],
        AggregationKind::Difference => &[
            "difference",
            "fell",
            "rose",
            "gained",
            "lost",
            "dropped",
            "up",
            "down",
            "more",
            "fewer",
            "less",
            "cheaper",
            "higher",
            "lower",
            "increase",
            "decrease",
            "increased",
            "decreased",
            "gap",
            "change",
        ],
        AggregationKind::Percentage => &[
            "percent",
            "percentage",
            "share",
            "proportion",
            "fraction",
            "accounted",
            "accounting",
            "constitute",
            "constitutes",
            "represents",
        ],
        AggregationKind::ChangeRatio => &[
            "growth",
            "grew",
            "rate",
            "increased",
            "decreased",
            "jumped",
            "surged",
            "climbed",
            "declined",
            "shrank",
            "compared",
            "year-on-year",
            "change",
        ],
        AggregationKind::Average => &["average", "avg", "mean", "typically", "per"],
        AggregationKind::Max => &[
            "maximum",
            "max",
            "highest",
            "largest",
            "most",
            "biggest",
            "top",
            "least-affordable",
            "peak",
        ],
        AggregationKind::Min => &[
            "minimum", "min", "lowest", "smallest", "least", "cheapest", "bottom",
        ],
    }
}

const APPROX_CUES: &[&str] = &[
    "about",
    "around",
    "approximately",
    "ca",
    "circa",
    "nearly",
    "almost",
    "roughly",
    "some",
    "approx",
    "estimated",
];
const EXACT_CUES: &[&str] = &["exactly", "precisely", "exact"];
const UPPER_CUES: &[(&str, &str)] = &[
    ("less", "than"),
    ("fewer", "than"),
    ("at", "most"),
    ("under", ""),
    ("below", ""),
    ("up", "to"),
];
const LOWER_CUES: &[(&str, &str)] = &[
    ("more", "than"),
    ("over", ""),
    ("at", "least"),
    ("above", ""),
    ("exceeding", ""),
    ("exceeds", ""),
];

/// Detect the approximation indicator from the lowercase words immediately
/// preceding a text mention (closest cue wins; the paper uses a 10-word
/// window, which the caller supplies).
pub fn detect_approximation(preceding: &[&str]) -> ApproxIndicator {
    // scan from nearest to farthest
    for (i, w) in preceding.iter().enumerate().rev() {
        let w = w.trim_end_matches('.');
        if APPROX_CUES.contains(&w) {
            return ApproxIndicator::Approximate;
        }
        if EXACT_CUES.contains(&w) {
            return ApproxIndicator::Exact;
        }
        let next = preceding.get(i + 1).copied().unwrap_or("");
        for &(a, b) in UPPER_CUES {
            if w == a && (b.is_empty() || next == b) {
                return ApproxIndicator::UpperBound;
            }
        }
        for &(a, b) in LOWER_CUES {
            if w == a && (b.is_empty() || next == b) {
                return ApproxIndicator::LowerBound;
            }
        }
    }
    ApproxIndicator::None
}

/// Count cue words supporting `kind` among `words` (already lowercased).
/// Used by the tagger's immediate/local/global context features (§V-A).
pub fn count_aggregation_cues(kind: AggregationKind, words: &[&str]) -> usize {
    let cues = aggregation_cues(kind);
    words
        .iter()
        .filter(|w| cues.contains(&w.trim_end_matches(['.', ','])))
        .count()
}

/// Infer the single best-supported aggregation among the evaluated kinds
/// from `words`, or `None` when no cue is present.
pub fn infer_aggregation(words: &[&str]) -> Option<AggregationKind> {
    let mut best: Option<(AggregationKind, usize)> = None;
    for kind in AggregationKind::EVALUATED {
        let c = count_aggregation_cues(kind, words);
        if c > 0 && best.is_none_or(|(_, bc)| c > bc) {
            best = Some((kind, c));
        }
    }
    best.map(|(k, _)| k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_the_position_in_all() {
        for (i, k) in AggregationKind::ALL.into_iter().enumerate() {
            assert_eq!(k.index(), i, "{k:?}");
        }
    }

    #[test]
    fn sum_cues_present() {
        assert!(aggregation_cues(AggregationKind::Sum).contains(&"total"));
        assert!(aggregation_cues(AggregationKind::Sum).contains(&"overall"));
    }

    #[test]
    fn approx_detection() {
        assert_eq!(
            detect_approximation(&["about"]),
            ApproxIndicator::Approximate
        );
        assert_eq!(
            detect_approximation(&["costs", "exactly"]),
            ApproxIndicator::Exact
        );
        assert_eq!(
            detect_approximation(&["more", "than"]),
            ApproxIndicator::LowerBound
        );
        assert_eq!(
            detect_approximation(&["less", "than"]),
            ApproxIndicator::UpperBound
        );
        assert_eq!(
            detect_approximation(&["at", "least"]),
            ApproxIndicator::LowerBound
        );
        assert_eq!(detect_approximation(&["ca."]), ApproxIndicator::Approximate);
        assert_eq!(
            detect_approximation(&["the", "value"]),
            ApproxIndicator::None
        );
        assert_eq!(detect_approximation(&[]), ApproxIndicator::None);
    }

    #[test]
    fn nearest_cue_wins() {
        // "about" is closer to the mention than "exactly"
        assert_eq!(
            detect_approximation(&["exactly", "but", "about"]),
            ApproxIndicator::Approximate
        );
    }

    #[test]
    fn cue_counting() {
        let words = ["a", "total", "of", "patients", "overall"];
        assert_eq!(count_aggregation_cues(AggregationKind::Sum, &words), 2);
        assert_eq!(count_aggregation_cues(AggregationKind::Max, &words), 0);
    }

    #[test]
    fn aggregation_inference() {
        assert_eq!(
            infer_aggregation(&["total", "of"]),
            Some(AggregationKind::Sum)
        );
        assert_eq!(
            infer_aggregation(&["growth", "rate", "compared"]),
            Some(AggregationKind::ChangeRatio)
        );
        assert_eq!(infer_aggregation(&["the", "report"]), None);
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(AggregationKind::Sum.name(), "sum");
        assert_eq!(AggregationKind::ChangeRatio.name(), "ratio");
        assert_eq!(AggregationKind::EVALUATED.len(), 4);
    }
}

briq_json::json_unit_enum!(AggregationKind {
    Sum,
    Difference,
    Percentage,
    ChangeRatio,
    Average,
    Max,
    Min,
});
