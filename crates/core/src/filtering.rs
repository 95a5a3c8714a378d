//! Adaptive filtering (§V): reduce thousands of candidate pairs to the
//! hundreds global resolution can afford, without losing true targets.
//!
//! Order of operations per text mention:
//! 1. **Tag-based pruning** — keep all single-cell candidates; keep an
//!    aggregate candidate only when its aggregation function matches the
//!    tagger's prediction for the mention.
//! 2. **Value/unit pruning** — drop pairs whose values differ by more than
//!    `v` while the classifier score is below `p`; drop pairs whose
//!    specified units disagree.
//! 3. **Adaptive top-k** — pick k from the mention type (exact mentions
//!    need fewer candidates than approximate/truncated ones) and from the
//!    entropy of the score distribution (§V-B).

use briq_ml::entropy::normalized_entropy;
use briq_table::{TableMention, TableMentionKind};
use briq_text::cues::{AggregationKind, ApproxIndicator};
use std::collections::BTreeMap;

use crate::mention::TextMention;

/// A surviving candidate pair: target table-mention index plus the
/// classifier's confidence (the prior `σ` of §VI).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Index into the document's table-mention list.
    pub target: usize,
    /// Classifier confidence score.
    pub score: f64,
}

/// Filtering parameters (`v`, `p`, `k…` are tuned on validation data).
#[derive(Debug, Clone, Copy)]
pub struct FilterConfig {
    /// Value-difference threshold `v` (relative difference).
    pub value_diff_threshold: f64,
    /// Score threshold `p` below which large value differences are pruned.
    pub score_threshold: f64,
    /// Top-k for exact mentions.
    pub k_exact: usize,
    /// Top-k for approximate/truncated mentions.
    pub k_approx: usize,
    /// Top-k under low entropy (skewed scores).
    pub k_small: usize,
    /// Top-k under high entropy (near-ties).
    pub k_large: usize,
    /// Normalized-entropy threshold separating the two regimes.
    pub entropy_threshold: f64,
    /// Candidates with classifier score below this floor are dropped
    /// outright (speed guard; 0 disables).
    pub score_floor: f64,
}

impl Default for FilterConfig {
    fn default() -> Self {
        FilterConfig {
            value_diff_threshold: 0.35,
            score_threshold: 0.5,
            k_exact: 3,
            k_approx: 6,
            k_small: 3,
            k_large: 8,
            entropy_threshold: 0.75,
            score_floor: 0.02,
        }
    }
}

/// Mention type for top-k selection (§V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MentionType {
    /// The mention value matches candidates exactly.
    Exact,
    /// Approximate (modifier present or no exact candidate).
    Approximate,
}

/// Classify a text mention as exact/approximate using its modifiers, then
/// by majority vote over high-confidence candidates (§V-B).
pub fn mention_type(
    x: &TextMention,
    candidates: &[(usize, f64)],
    targets: &[TableMention],
) -> MentionType {
    match x.quantity.approx {
        ApproxIndicator::Exact => return MentionType::Exact,
        ApproxIndicator::Approximate
        | ApproxIndicator::UpperBound
        | ApproxIndicator::LowerBound => return MentionType::Approximate,
        ApproxIndicator::None => {}
    }
    // Majority vote among the top-5 scored candidates: exact value match?
    // Ranked under a total order (score descending, then target index) so
    // ties and non-finite scores cannot perturb the vote.
    let mut ranked: Vec<&(usize, f64)> = candidates.iter().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let top = &ranked[..ranked.len().min(5)];
    if top.is_empty() {
        return MentionType::Approximate;
    }
    let exact = top
        .iter()
        .filter(|(t, _)| {
            let tv = targets[*t].value;
            tv == x.quantity.value || targets[*t].unnormalized == x.quantity.unnormalized
        })
        .count();
    if exact * 2 >= top.len() {
        MentionType::Exact
    } else {
        MentionType::Approximate
    }
}

/// Per-kind selectivity statistics (Table VI).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FilterStats {
    /// Candidate pairs seen by the classifier, per target kind.
    pub total: BTreeMap<String, usize>,
    /// Pairs surviving the filter, per target kind.
    pub kept: BTreeMap<String, usize>,
}

/// Add `n` to `map[kind]`, allocating the key only the first time the
/// kind is seen: a document has at most eight kinds, but every scored,
/// pruned or retrieval-dropped pair is counted.
fn bump(map: &mut BTreeMap<String, usize>, kind: &str, n: usize) {
    match map.get_mut(kind) {
        Some(count) => *count += n,
        None => {
            map.insert(kind.to_string(), n);
        }
    }
}

impl FilterStats {
    fn record(&mut self, kind: TableMentionKind, kept: bool) {
        bump(&mut self.total, kind.name(), 1);
        if kept {
            bump(&mut self.kept, kind.name(), 1);
        }
    }

    /// Bulk-account `n` candidate pairs of kind `kind_name` that the
    /// retrieval index proved non-viable and never handed to the
    /// classifier: they enter `total` (the classifier *would* have seen
    /// them on the exhaustive path) but never `kept`, so selectivity
    /// figures stay comparable with `use_index: false` runs.
    pub fn record_dropped(&mut self, kind_name: &str, n: usize) {
        bump(&mut self.total, kind_name, n);
    }

    /// Merge another stats object into this one.
    pub fn merge(&mut self, other: &FilterStats) {
        for (k, &v) in &other.total {
            bump(&mut self.total, k, v);
        }
        for (k, &v) in &other.kept {
            bump(&mut self.kept, k, v);
        }
    }

    /// Selectivity (kept / total) for a kind name; `None` if unseen.
    pub fn selectivity(&self, kind: &str) -> Option<f64> {
        let t = *self.total.get(kind)?;
        if t == 0 {
            return None;
        }
        Some(*self.kept.get(kind).unwrap_or(&0) as f64 / t as f64)
    }

    /// Overall selectivity.
    pub fn overall_selectivity(&self) -> f64 {
        let t: usize = self.total.values().sum();
        if t == 0 {
            return 0.0;
        }
        self.kept.values().sum::<usize>() as f64 / t as f64
    }

    /// Emit the per-kind totals into an observability recorder (a no-op
    /// on a disabled recorder): `filter_total.<kind>` /
    /// `filter_kept.<kind>` counters plus the overall `candidates_kept`.
    pub fn record_into(&self, rec: &crate::obs::Recorder) {
        use crate::obs::names;
        if !rec.is_enabled() {
            return;
        }
        for (kind, &n) in &self.total {
            rec.count(&format!("{}{kind}", names::FILTER_TOTAL_PREFIX), n as u64);
        }
        for (kind, &n) in &self.kept {
            rec.count(&format!("{}{kind}", names::FILTER_KEPT_PREFIX), n as u64);
        }
        rec.count(
            names::CANDIDATES_KEPT,
            self.kept.values().sum::<usize>() as u64,
        );
    }
}

/// Apply adaptive filtering for one text mention.
///
/// `scored`: every `(target index, classifier score)` pair for the
/// mention. `tags`: the tagger's predictions (empty = single cell).
///
/// Following §V-A, single-cell and aggregate candidates are treated
/// differently: aggregate candidates survive only when their aggregation
/// function matches a predicted tag (value/unit pruning still applies,
/// plus a generous cap for the quadratic pair aggregates); single-cell
/// candidates are never tag-pruned but go through value/unit pruning and
/// the adaptive top-k ("further pruning steps for the single-cell cases").
/// Returns surviving candidates sorted by descending score.
pub fn filter_mention(
    x: &TextMention,
    scored: &[(usize, f64)],
    targets: &[TableMention],
    tags: &[AggregationKind],
    cfg: &FilterConfig,
    stats: &mut FilterStats,
) -> Vec<Candidate> {
    filter_mention_pruned(x, scored, &[], targets, tags, cfg, stats)
}

/// [`filter_mention`] over a partially scored candidate set: `computed`
/// holds the exactly scored `(target index, score)` pairs and `pruned`
/// the target indices whose scoring was abandoned by the bound-based
/// pruning engine.
///
/// Exactness contract (upheld by the caller, `scoring`): a non-viable
/// pruned pair (unit strong-mismatch, or untagged aggregate) has keep
/// decision `false` at any score and is excluded from the vote, so it may
/// be abandoned unconditionally; a viable pruned pair's true score is
/// strictly below both (a) the smallest score at which it could pass
/// value/unit pruning and the score floor, so its keep decision is
/// `false` without computing it, and (b) the fifth-highest *viable*
/// computed score when the mention-type vote looks at scores at all, so
/// it can never appear in [`mention_type`]'s top-5 (at least five viable
/// computed pairs outrank it under the total order). Kept candidates are
/// therefore always exactly scored, the entropy input (kept singles) is
/// unchanged, and the result is identical to [`filter_mention`] over the
/// fully scored set. With `pruned` empty this *is* [`filter_mention`].
pub fn filter_mention_pruned(
    x: &TextMention,
    computed: &[(usize, f64)],
    pruned: &[usize],
    targets: &[TableMention],
    tags: &[AggregationKind],
    cfg: &FilterConfig,
    stats: &mut FilterStats,
) -> Vec<Candidate> {
    let scored = computed;
    for &ti in pruned {
        stats.record(targets[ti].kind, false);
    }
    let mut singles: Vec<(usize, f64)> = Vec::new();
    let mut aggregates: Vec<(usize, f64)> = Vec::new();

    let value_ok = |t: &TableMention, score: f64| {
        let vd = crate::features::relative_difference(x.quantity.value, t.value);
        !(vd > cfg.value_diff_threshold && score < cfg.score_threshold)
    };
    let unit_ok = |t: &TableMention| {
        !(x.quantity.unit.is_specified()
            && t.unit.is_specified()
            && !x.quantity.unit.matches(t.unit))
    };

    for &(ti, score) in scored {
        let t = &targets[ti];
        match t.kind {
            TableMentionKind::SingleCell => {
                let keep = score >= cfg.score_floor && value_ok(t, score) && unit_ok(t);
                stats.record(t.kind, keep);
                if keep {
                    singles.push((ti, score));
                }
            }
            TableMentionKind::Aggregate(k) => {
                let keep = tags.contains(&k) && value_ok(t, score) && unit_ok(t);
                stats.record(t.kind, keep);
                if keep {
                    aggregates.push((ti, score));
                }
            }
        }
    }

    // Total order: score descending, ties broken by ascending target
    // index. `total_cmp` gives NaN a defined rank, so a degenerate score
    // can never make the comparator inconsistent, and the explicit
    // tiebreak makes the truncation cut deterministic by construction
    // rather than by stable-sort insertion order.
    let by_score = |a: &(usize, f64), b: &(usize, f64)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));

    // Cap the (quadratic) pair aggregates at a generous bound.
    aggregates.sort_by(by_score);
    let agg_cap = cfg.k_large * 3;
    for &(ti, _) in aggregates.iter().skip(agg_cap) {
        decrement(stats, targets[ti].kind);
    }
    aggregates.truncate(agg_cap);

    // Adaptive top-k over single cells. The mention-type vote polls only
    // *viable* pairs — those the value/unit/tag predicates could keep at
    // some score — so provably dead pairs (unit strong-mismatches,
    // untagged aggregates) can neither sway the exact-vs-approximate
    // majority nor need scoring on the retrieval path.
    singles.sort_by(by_score);
    let viable: Vec<(usize, f64)> = scored
        .iter()
        .copied()
        .filter(|&(ti, _)| {
            let t = &targets[ti];
            unit_ok(t)
                && match t.kind {
                    TableMentionKind::SingleCell => true,
                    TableMentionKind::Aggregate(k) => tags.contains(&k),
                }
        })
        .collect();
    let k_type = match mention_type(x, &viable, targets) {
        MentionType::Exact => cfg.k_exact,
        MentionType::Approximate => cfg.k_approx,
    };
    let scores: Vec<f64> = singles.iter().map(|&(_, s)| s).collect();
    let k_entropy = if normalized_entropy(&scores) < cfg.entropy_threshold {
        cfg.k_small
    } else {
        cfg.k_large
    };
    let k = k_type.max(k_entropy);
    for &(ti, _) in singles.iter().skip(k) {
        decrement(stats, targets[ti].kind);
    }
    singles.truncate(k);

    let mut out: Vec<Candidate> = singles
        .into_iter()
        .chain(aggregates)
        .map(|(target, score)| Candidate { target, score })
        .collect();
    // Stable score-only sort: equal-score singles stay ahead of
    // aggregates (their insertion order), which the resolution stage's
    // edge ordering relies on.
    out.sort_by(|a, b| b.score.total_cmp(&a.score));
    out
}

fn decrement(stats: &mut FilterStats, kind: TableMentionKind) {
    if let Some(c) = stats.kept.get_mut(kind.name()) {
        *c = c.saturating_sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use briq_text::quantity::QuantityMention;
    use briq_text::units::{Currency, Unit};

    fn mention(value: f64, approx: ApproxIndicator, unit: Unit) -> TextMention {
        TextMention {
            id: 0,
            quantity: QuantityMention {
                raw: crate::features::format_value(value),
                value,
                unnormalized: value,
                unit,
                precision: 0,
                approx,
                start: 0,
                end: 4,
            },
        }
    }

    fn target(value: f64, kind: TableMentionKind, unit: Unit) -> TableMention {
        TableMention {
            table: 0,
            kind,
            cells: vec![(1, 1)],
            value,
            unnormalized: value,
            raw: crate::features::format_value(value),
            unit,
            precision: 0,
            orientation: None,
        }
    }

    #[test]
    fn aggregates_pruned_unless_tag_matches() {
        let x = mention(123.0, ApproxIndicator::None, Unit::None);
        let targets = vec![
            target(123.0, TableMentionKind::SingleCell, Unit::None),
            target(
                123.0,
                TableMentionKind::Aggregate(AggregationKind::Sum),
                Unit::None,
            ),
            target(
                123.0,
                TableMentionKind::Aggregate(AggregationKind::Difference),
                Unit::None,
            ),
        ];
        let scored: Vec<(usize, f64)> = (0..3).map(|i| (i, 0.8)).collect();
        let mut stats = FilterStats::default();
        // tag = Sum → single-cell and sum survive, diff is pruned
        let kept = filter_mention(
            &x,
            &scored,
            &targets,
            &[AggregationKind::Sum],
            &FilterConfig::default(),
            &mut stats,
        );
        let kinds: Vec<&str> = kept.iter().map(|c| targets[c.target].kind.name()).collect();
        assert!(kinds.contains(&"single-cell"));
        assert!(kinds.contains(&"sum"));
        assert!(!kinds.contains(&"diff"));
    }

    #[test]
    fn single_cell_tag_prunes_all_aggregates() {
        let x = mention(50.0, ApproxIndicator::None, Unit::None);
        let targets = vec![
            target(50.0, TableMentionKind::SingleCell, Unit::None),
            target(
                50.0,
                TableMentionKind::Aggregate(AggregationKind::Sum),
                Unit::None,
            ),
        ];
        let scored = vec![(0, 0.9), (1, 0.9)];
        let mut stats = FilterStats::default();
        let kept = filter_mention(
            &x,
            &scored,
            &targets,
            &[],
            &FilterConfig::default(),
            &mut stats,
        );
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].target, 0);
    }

    #[test]
    fn value_difference_pruning_needs_low_score() {
        let x = mention(100.0, ApproxIndicator::None, Unit::None);
        let targets = vec![
            target(500.0, TableMentionKind::SingleCell, Unit::None), // far value
        ];
        let cfg = FilterConfig::default();
        let mut stats = FilterStats::default();
        // low score → pruned
        let kept = filter_mention(&x, &[(0, 0.1)], &targets, &[], &cfg, &mut stats);
        assert!(kept.is_empty());
        // high score → survives despite distance
        let kept = filter_mention(&x, &[(0, 0.9)], &targets, &[], &cfg, &mut stats);
        assert_eq!(kept.len(), 1);
    }

    #[test]
    fn unit_disagreement_always_prunes() {
        let x = mention(100.0, ApproxIndicator::None, Unit::Currency(Currency::Usd));
        let targets = vec![target(
            100.0,
            TableMentionKind::SingleCell,
            Unit::Currency(Currency::Eur),
        )];
        let mut stats = FilterStats::default();
        let kept = filter_mention(
            &x,
            &[(0, 0.95)],
            &targets,
            &[],
            &FilterConfig::default(),
            &mut stats,
        );
        assert!(kept.is_empty());
    }

    #[test]
    fn top_k_limits_candidates() {
        let x = mention(10.0, ApproxIndicator::None, Unit::None);
        let targets: Vec<TableMention> = (0..20)
            .map(|i| {
                target(
                    10.0 + i as f64 * 0.001,
                    TableMentionKind::SingleCell,
                    Unit::None,
                )
            })
            .collect();
        let scored: Vec<(usize, f64)> = (0..20).map(|i| (i, 0.9 - i as f64 * 0.001)).collect();
        let cfg = FilterConfig::default();
        let mut stats = FilterStats::default();
        let kept = filter_mention(&x, &scored, &targets, &[], &cfg, &mut stats);
        assert!(kept.len() <= cfg.k_large.max(cfg.k_approx));
        // sorted by descending score
        for w in kept.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        // stats reflect the final kept count
        assert_eq!(stats.kept["single-cell"], kept.len());
        assert_eq!(stats.total["single-cell"], 20);
    }

    #[test]
    fn exact_mention_gets_small_k() {
        let x = mention(10.0, ApproxIndicator::Exact, Unit::None);
        // Highly skewed scores → low entropy → k_small; exact → k_exact.
        let targets: Vec<TableMention> = (0..10)
            .map(|_| target(10.0, TableMentionKind::SingleCell, Unit::None))
            .collect();
        let mut scored: Vec<(usize, f64)> = (0..10).map(|i| (i, 0.02)).collect();
        scored[0].1 = 0.98;
        let cfg = FilterConfig::default();
        let mut stats = FilterStats::default();
        let kept = filter_mention(&x, &scored, &targets, &[], &cfg, &mut stats);
        assert!(kept.len() <= cfg.k_exact.max(cfg.k_small));
        assert_eq!(kept[0].target, 0);
    }

    #[test]
    fn candidate_order_is_total_under_ties_and_nan() {
        let x = mention(10.0, ApproxIndicator::None, Unit::None);
        let targets: Vec<TableMention> = (0..8)
            .map(|_| target(10.0, TableMentionKind::SingleCell, Unit::None))
            .collect();
        // All scores tied, one NaN: the comparator must stay consistent
        // and the cut must fall on ascending target index.
        let mut scored: Vec<(usize, f64)> = (0..8).map(|i| (i, 0.9)).collect();
        scored[3].1 = f64::NAN;
        let cfg = FilterConfig::default();
        let mut stats = FilterStats::default();
        let kept = filter_mention(&x, &scored, &targets, &[], &cfg, &mut stats);
        assert!(!kept.is_empty());
        // NaN ranks above every finite score under total_cmp but must not
        // panic or scramble the rest; tied finite scores keep index order.
        let finite: Vec<usize> = kept
            .iter()
            .filter(|c| c.score.is_finite())
            .map(|c| c.target)
            .collect();
        let mut sorted = finite.clone();
        sorted.sort_unstable();
        assert_eq!(finite, sorted, "tied scores must rank by target index");
        // Reversed input produces the same kept set: the order is total,
        // not an artifact of insertion order.
        let mut rev = scored.clone();
        rev.reverse();
        let mut stats2 = FilterStats::default();
        let kept_rev = filter_mention(&x, &rev, &targets, &[], &cfg, &mut stats2);
        let ids: Vec<usize> = kept.iter().map(|c| c.target).collect();
        let ids_rev: Vec<usize> = kept_rev.iter().map(|c| c.target).collect();
        assert_eq!(ids, ids_rev);
    }

    #[test]
    fn mention_type_resolution() {
        let targets = vec![
            target(10.0, TableMentionKind::SingleCell, Unit::None),
            target(10.5, TableMentionKind::SingleCell, Unit::None),
        ];
        let exact = mention(10.0, ApproxIndicator::None, Unit::None);
        assert_eq!(
            mention_type(&exact, &[(0, 0.9), (1, 0.2)], &targets),
            MentionType::Exact
        );
        let approx = mention(10.2, ApproxIndicator::None, Unit::None);
        assert_eq!(
            mention_type(&approx, &[(0, 0.9), (1, 0.8)], &targets),
            MentionType::Approximate
        );
        let modified = mention(10.0, ApproxIndicator::Approximate, Unit::None);
        assert_eq!(
            mention_type(&modified, &[(0, 0.9)], &targets),
            MentionType::Approximate
        );
    }

    #[test]
    fn stats_selectivity() {
        let mut s = FilterStats::default();
        s.record(TableMentionKind::SingleCell, true);
        s.record(TableMentionKind::SingleCell, false);
        s.record(TableMentionKind::Aggregate(AggregationKind::Sum), false);
        assert_eq!(s.selectivity("single-cell"), Some(0.5));
        assert_eq!(s.selectivity("sum"), Some(0.0));
        assert_eq!(s.selectivity("ratio"), None);
        assert!((s.overall_selectivity() - 1.0 / 3.0).abs() < 1e-12);
        let mut s2 = FilterStats::default();
        s2.record(TableMentionKind::SingleCell, true);
        s.merge(&s2);
        assert_eq!(s.total["single-cell"], 3);
        assert_eq!(s.kept["single-cell"], 2);
    }
}

briq_json::json_struct!(FilterConfig {
    value_diff_threshold,
    score_threshold,
    k_exact,
    k_approx,
    k_small,
    k_large,
    entropy_threshold,
    score_floor,
});
