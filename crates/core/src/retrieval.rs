//! Sublinear candidate retrieval: a per-document inverted index that
//! hands the [`crate::scoring::ScoringEngine`] a bounded candidate set
//! per mention instead of the full mention × cell cross product
//! (DESIGN.md §13).
//!
//! [`CandidateIndex`] is built once per document over two keys:
//!
//! * **aggregation-kind slots** — single cells plus one slot per
//!   [`AggregationKind`], so a mention's tagger prediction selects whole
//!   kind classes without scanning their members;
//! * **unit classes** — within a slot, targets group by their exact
//!   [`Unit`], so unit-incompatible pairs (feature `f8 == 3.0`,
//!   the `StrongMismatch` that filtering can never keep) are skipped
//!   wholesale.
//!
//! Each retrieved member of a unit group is split near/far by one exact
//! [`relative_difference`] evaluation against `value_diff_threshold`.
//!
//! # Recall contract
//!
//! [`CandidateIndex::retrieve`] returns **exactly** the mention's
//! *viable* pairs — the pairs adaptive filtering
//! ([`crate::filtering::filter_mention_pruned`]) could keep at any
//! score, and exactly the pairs its mention-type vote polls:
//!
//! * single-cell targets whose unit does not strongly mismatch;
//! * aggregate targets whose kind is tagged and whose unit does not
//!   strongly mismatch.
//!
//! Every returned pair is additionally classified *near* or *far* with
//! bit-exact agreement to the filter's `row[5] > value_diff_threshold`
//! test (same [`relative_difference`] function, same f64 inputs). Recall
//! against the exhaustive oracle is therefore exactly 1.0 by
//! construction, and alignments are byte-identical with the index on or
//! off — CI's determinism stage and the equivalence suites enforce both.
//!
//! The production path never builds the aggregates of a kind that no
//! mention of the document is tagged with (DESIGN.md §13): no mention
//! could retrieve them. Extraction counts them instead, and
//! `CandidateIndex::count_ungenerated` adds those counts to the index's
//! kind totals, so [`CandidateIndex::record_dropped`] still reports every
//! pair the oracle scores, and Table VI is unchanged.

use briq_table::virtual_cells::KindCounts;
use briq_table::{TableMention, TableMentionKind};
use briq_text::cues::AggregationKind;
use briq_text::units::Unit;

use crate::features::relative_difference;
use crate::filtering::FilterStats;

/// Kind slots: single cells, then one per aggregation kind in
/// [`AggregationKind::ALL`] order.
pub const KIND_SLOTS: usize = 1 + AggregationKind::ALL.len();

/// Slot index of a target kind.
fn kind_slot(kind: TableMentionKind) -> usize {
    match kind {
        TableMentionKind::SingleCell => 0,
        TableMentionKind::Aggregate(k) => 1 + k.index(),
    }
}

/// Stable kind name of a slot (matches [`TableMentionKind::name`]).
fn slot_name(slot: usize) -> &'static str {
    match slot.checked_sub(1) {
        None => "single-cell",
        Some(i) => AggregationKind::ALL[i].name(),
    }
}

/// One unit class within a kind slot.
struct UnitGroup {
    unit: Unit,
    /// `(target index, value)` per member, in target order.
    members: Vec<(usize, f64)>,
}

/// Pair-level unit viability — identical to filtering's `unit_ok` and to
/// the feature row's `f8 != 3.0` (`StrongMismatch`): only two
/// *specified, non-matching* units kill a pair.
fn unit_compatible(m: Unit, g: Unit) -> bool {
    !(m.is_specified() && g.is_specified() && !m.matches(g))
}

/// Caller-owned retrieval buffers, reused across mentions so a warm
/// retrieve allocates nothing.
#[derive(Debug, Default)]
pub struct RetrievalScratch {
    /// Retrieved targets whose value is near the mention's
    /// (`relative_difference <= value_diff_threshold`).
    pub near: Vec<usize>,
    /// Retrieved targets with a far value (still viable: filtering keeps
    /// them at a high enough score, and they vote).
    pub far: Vec<usize>,
    /// Retrieved-per-slot counts of the last retrieve.
    pub per_slot: [usize; KIND_SLOTS],
}

impl RetrievalScratch {
    /// Total candidates retrieved for the last mention.
    pub fn retrieved(&self) -> usize {
        self.near.len() + self.far.len()
    }
}

/// Per-document inverted candidate index. Build once per document with
/// [`CandidateIndex::build`], then call [`CandidateIndex::retrieve`] once
/// per mention.
pub struct CandidateIndex {
    slots: [Vec<UnitGroup>; KIND_SLOTS],
    kind_counts: [usize; KIND_SLOTS],
    theta: f64,
}

impl CandidateIndex {
    /// Index `targets` for retrieval against value-difference threshold
    /// `theta` (the filter's `value_diff_threshold`).
    pub fn build(targets: &[TableMention], theta: f64) -> CandidateIndex {
        let mut slots: [Vec<UnitGroup>; KIND_SLOTS] = Default::default();
        let mut kind_counts = [0usize; KIND_SLOTS];

        for (ti, t) in targets.iter().enumerate() {
            let slot = kind_slot(t.kind);
            kind_counts[slot] += 1;
            let groups = &mut slots[slot];
            let gi = match groups.iter().position(|g| g.unit == t.unit) {
                Some(gi) => gi,
                None => {
                    groups.push(UnitGroup {
                        unit: t.unit,
                        members: Vec::new(),
                    });
                    groups.len() - 1
                }
            };
            groups[gi].members.push((ti, t.value));
        }

        CandidateIndex {
            slots,
            kind_counts,
            theta,
        }
    }

    /// Count the aggregate targets that extraction counted but never
    /// built, per kind ([`briq_table::virtual_cells::TableMentions::ungenerated`]):
    /// no mention is tagged with their kind, so retrieval never returns
    /// them and [`CandidateIndex::record_dropped`] reports every one of
    /// them for every mention, as the oracle, which builds and scores
    /// them, does.
    pub(crate) fn count_ungenerated(&mut self, ungenerated: &KindCounts) {
        for (k, &n) in ungenerated.iter().enumerate() {
            self.kind_counts[1 + k] += n;
        }
    }

    /// Retrieve the viable candidate set for one mention into `out`:
    /// every tag- and unit-compatible target, split into `near` and
    /// `far` by the exact `value_diff_threshold` test (see the
    /// module-level recall contract). Allocation-free once `out` is
    /// warm.
    pub fn retrieve(
        &self,
        value: f64,
        unit: Unit,
        tags: &[AggregationKind],
        out: &mut RetrievalScratch,
    ) {
        out.near.clear();
        out.far.clear();
        out.per_slot = [0; KIND_SLOTS];
        for (slot, groups) in self.slots.iter().enumerate() {
            if slot != 0 && !tags.contains(&AggregationKind::ALL[slot - 1]) {
                continue;
            }
            let before = out.retrieved();
            for g in groups {
                if !unit_compatible(unit, g.unit) {
                    continue;
                }
                for &(ti, tv) in &g.members {
                    if relative_difference(value, tv) > self.theta {
                        out.far.push(ti);
                    } else {
                        out.near.push(ti);
                    }
                }
            }
            out.per_slot[slot] = out.retrieved() - before;
        }
    }

    /// Record the pairs retrieval never surfaced into the filter
    /// statistics, so per-kind totals stay identical to the exhaustive
    /// oracle's (which records every pair): per slot, the indexed
    /// targets minus the retrieved ones, all counted as seen-and-dropped.
    pub fn record_dropped(&self, out: &RetrievalScratch, stats: &mut FilterStats) {
        for slot in 0..KIND_SLOTS {
            let dropped = self.kind_counts[slot] - out.per_slot[slot];
            if dropped > 0 {
                stats.record_dropped(slot_name(slot), dropped);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use briq_text::units::Currency;

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

    /// Brute-force viable set + near/far split, straight from the
    /// filter's own predicates.
    fn oracle(
        targets: &[TableMention],
        value: f64,
        unit: Unit,
        tags: &[AggregationKind],
        theta: f64,
    ) -> (Vec<usize>, Vec<usize>) {
        let mut near = Vec::new();
        let mut far = Vec::new();
        for (ti, t) in targets.iter().enumerate() {
            let viable = unit_compatible(unit, t.unit)
                && match t.kind {
                    TableMentionKind::SingleCell => true,
                    TableMentionKind::Aggregate(k) => tags.contains(&k),
                };
            if viable {
                if relative_difference(value, t.value) > theta {
                    far.push(ti);
                } else {
                    near.push(ti);
                }
            }
        }
        (near, far)
    }

    fn check_exact(
        targets: &[TableMention],
        value: f64,
        unit: Unit,
        tags: &[AggregationKind],
        theta: f64,
    ) {
        let idx = CandidateIndex::build(targets, theta);
        let mut out = RetrievalScratch::default();
        idx.retrieve(value, unit, tags, &mut out);
        let (mut near, mut far) = (out.near.clone(), out.far.clone());
        near.sort_unstable();
        far.sort_unstable();
        let (onear, ofar) = oracle(targets, value, unit, tags, theta);
        assert_eq!(near, onear, "near mismatch for value {value:e} θ {theta}");
        assert_eq!(far, ofar, "far mismatch for value {value:e} θ {theta}");
    }

    /// Value grid covering every near/far edge: signs, zeros,
    /// subnormals, infinities, NaN, boundary ratios around θ.
    fn adversarial_values() -> Vec<f64> {
        vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.35,
            0.65,
            1.0 - 0.35,
            1.0 + 0.35,
            123.0,
            123.4,
            1e-300,
            -1e-300,
            1e300,
            -1e300,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0, // subnormal
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            2.0,
            4.0,
            8.0,
            1.999_999_999,
            2.000_000_001,
            1e9,
            1e9 + 1.0,
            -1e9,
        ]
    }

    #[test]
    fn retrieval_matches_oracle_over_adversarial_values() {
        let vals = adversarial_values();
        let mut targets = Vec::new();
        for (i, &v) in vals.iter().enumerate() {
            let kind = match i % 3 {
                0 => TableMentionKind::SingleCell,
                1 => TableMentionKind::Aggregate(AggregationKind::Sum),
                _ => TableMentionKind::Aggregate(AggregationKind::Average),
            };
            let unit = match i % 4 {
                0 => Unit::None,
                1 => Unit::Currency(Currency::Usd),
                2 => Unit::Percent,
                _ => Unit::Currency(Currency::Other),
            };
            targets.push(target(v, kind, unit));
        }
        let tag_sets: [&[AggregationKind]; 3] = [
            &[],
            &[AggregationKind::Sum],
            &[AggregationKind::Sum, AggregationKind::Average],
        ];
        for &value in &vals {
            for unit in [Unit::None, Unit::Currency(Currency::Eur), Unit::Percent] {
                for tags in tag_sets {
                    for theta in [0.0, 0.35, 0.95, 1.0, f64::NAN, -0.5] {
                        check_exact(&targets, value, unit, tags, theta);
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_is_clean() {
        let targets = vec![
            target(10.0, TableMentionKind::SingleCell, Unit::None),
            target(1e9, TableMentionKind::SingleCell, Unit::None),
        ];
        let idx = CandidateIndex::build(&targets, 0.35);
        let mut out = RetrievalScratch::default();
        idx.retrieve(10.0, Unit::None, &[], &mut out);
        assert_eq!(out.near, vec![0]);
        assert_eq!(out.far, vec![1]);
        assert_eq!(out.per_slot[0], 2);
        idx.retrieve(f64::NAN, Unit::None, &[], &mut out);
        assert_eq!(
            out.near.len() + out.far.len(),
            2,
            "NaN mention still viable"
        );
        idx.retrieve(10.0, Unit::Percent, &[], &mut out);
        assert_eq!(
            out.retrieved(),
            2,
            "unspecified target unit stays compatible"
        );
    }

    #[test]
    fn unit_groups_prune_strong_mismatch_only() {
        let targets = vec![
            target(
                5.0,
                TableMentionKind::SingleCell,
                Unit::Currency(Currency::Usd),
            ),
            target(
                5.0,
                TableMentionKind::SingleCell,
                Unit::Currency(Currency::Eur),
            ),
            target(5.0, TableMentionKind::SingleCell, Unit::None),
            target(
                5.0,
                TableMentionKind::SingleCell,
                Unit::Currency(Currency::Other),
            ),
        ];
        let idx = CandidateIndex::build(&targets, 0.35);
        let mut out = RetrievalScratch::default();
        idx.retrieve(5.0, Unit::Currency(Currency::Usd), &[], &mut out);
        let mut got = out.near.clone();
        got.sort_unstable();
        // EUR strongly mismatches; unspecified and Other-currency stay.
        assert_eq!(got, vec![0, 2, 3]);
    }

    #[test]
    fn record_dropped_restores_oracle_totals() {
        let targets = vec![
            target(5.0, TableMentionKind::SingleCell, Unit::None),
            target(
                5.0,
                TableMentionKind::Aggregate(AggregationKind::Sum),
                Unit::None,
            ),
            target(
                5.0,
                TableMentionKind::Aggregate(AggregationKind::Difference),
                Unit::None,
            ),
        ];
        let idx = CandidateIndex::build(&targets, 0.35);
        let mut out = RetrievalScratch::default();
        idx.retrieve(5.0, Unit::None, &[AggregationKind::Sum], &mut out);
        assert_eq!(out.retrieved(), 2);
        let mut stats = FilterStats::default();
        idx.record_dropped(&out, &mut stats);
        assert_eq!(stats.total.get("diff"), Some(&1));
        assert_eq!(
            stats.total.get("single-cell"),
            None,
            "nothing dropped there"
        );
    }
}
