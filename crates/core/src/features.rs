//! The 12 mention-pair features of §IV-B.
//!
//! | # | feature | group |
//! |---|---------|-------|
//! | f1 | surface-form Jaro-Winkler similarity | surface |
//! | f2 | local context word overlap (position-weighted) | context |
//! | f3 | global context word overlap | context |
//! | f4 | local context noun-phrase overlap | context |
//! | f5 | global context noun-phrase overlap | context |
//! | f6 | relative difference of normalized values | quantity |
//! | f7 | relative difference of unnormalized values | quantity |
//! | f8 | unit match (4-valued categorical) | quantity |
//! | f9 | scale (order-of-magnitude) difference | quantity |
//! | f10 | precision difference | quantity |
//! | f11 | approximation indicator (categorical) | context |
//! | f12 | aggregate-function match (4-valued categorical) | context |
//!
//! The ablation grouping (surface / context / quantity) follows §VIII-B.

use briq_table::TableMention;
use briq_text::cues::{AggregationKind, ApproxIndicator};
use briq_text::units::Unit;
use std::collections::HashMap;

use crate::context::{overlap, weighted_overlap, DocContext, TableContext};
use crate::jaro::{jaro_winkler, JaroScratch};
use crate::mention::TextMention;

/// Number of features per mention pair.
pub const FEATURE_COUNT: usize = 12;

/// Four-valued match degree shared by f8 and f12 (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchDegree {
    /// Both sides specified and equal.
    StrongMatch,
    /// Neither side specified.
    WeakMatch,
    /// Exactly one side specified.
    WeakMismatch,
    /// Both sides specified and different.
    StrongMismatch,
}

impl MatchDegree {
    /// Encode as a small ordinal for tree features.
    pub fn encode(self) -> f64 {
        match self {
            Self::StrongMatch => 0.0,
            Self::WeakMatch => 1.0,
            Self::WeakMismatch => 2.0,
            Self::StrongMismatch => 3.0,
        }
    }
}

/// Degree to which two units match (feature f8).
pub fn unit_match(x: Unit, t: Unit) -> MatchDegree {
    match (x.is_specified(), t.is_specified()) {
        (true, true) => {
            if x.matches(t) {
                MatchDegree::StrongMatch
            } else {
                MatchDegree::StrongMismatch
            }
        }
        (false, false) => MatchDegree::WeakMatch,
        _ => MatchDegree::WeakMismatch,
    }
}

fn encode_approx(a: ApproxIndicator) -> f64 {
    match a {
        ApproxIndicator::None => 0.0,
        ApproxIndicator::Approximate => 1.0,
        ApproxIndicator::Exact => 2.0,
        ApproxIndicator::UpperBound => 3.0,
        ApproxIndicator::LowerBound => 4.0,
    }
}

/// Relative difference `|x − t| / max(|x|, |t|)`, 0 when both are 0,
/// capped at 2 (opposite signs can exceed 1).
pub fn relative_difference(x: f64, t: f64) -> f64 {
    let denom = x.abs().max(t.abs());
    if denom == 0.0 {
        return 0.0;
    }
    ((x - t).abs() / denom).min(2.0)
}

/// Canonical surface form of a table mention for f1: the cell text for
/// single cells, the formatted value for virtual cells (which have no
/// natural surface form).
pub fn table_surface(t: &TableMention) -> String {
    if t.is_aggregate() {
        format_value(t.value)
    } else {
        t.raw.clone()
    }
}

/// Format a numeric value the way a writer would (trim float noise).
pub fn format_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        let s = format!("{v:.4}");
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    }
}

/// The chars of `format_value(v).to_lowercase()`, built without the
/// float formatter: a virtual cell's f1 surface. Below `1e15`, `v` is
/// `m · 2^-k` exactly (`m < 2^53`), so `|v| · 10^4` rounds to an integer
/// in `u128` arithmetic, ties to even as `{:.4}` rounds the exact binary
/// value (an integer `v` needs no rounding, and `-0.0` prints as `0`, as
/// `format_value`'s `v as i64` does); its digits are then trimmed as
/// [`format_value`] trims. Non-finite and larger values take
/// [`format_value`] itself. The proptests in this module's tests hold
/// the two equal over arbitrary bit patterns.
fn value_surface(v: f64) -> Vec<char> {
    if !v.is_finite() || v.abs() >= 1e15 {
        return format_value(v).to_lowercase().chars().collect();
    }
    let bits = v.abs().to_bits();
    let (exp, frac) = ((bits >> 52) as i64, bits & ((1 << 52) - 1));
    // Below 1e15 < 2^50 the binary exponent is negative: `-k`, `k >= 3`.
    let (m, k) = match exp {
        0 => (frac, 1074),
        e => (frac | 1 << 52, 1075 - e),
    };
    // `m · 10^4 < 2^67`, so past `k = 67` the quotient rounds to 0.
    let scaled = u128::from(m) * 10_000;
    let ten_thousandths = if k > 67 {
        0
    } else {
        let (q, r, half) = (scaled >> k, scaled & ((1 << k) - 1), 1u128 << (k - 1));
        q + u128::from(r > half || (r == half && q & 1 == 1))
    };
    let mut out = Vec::new();
    if v < 0.0 {
        out.push('-');
    }
    let digit = |d: u128| char::from(b'0' + (d % 10) as u8);
    let (mut int, start) = (ten_thousandths / 10_000, out.len());
    loop {
        out.push(digit(int));
        int /= 10;
        if int == 0 {
            break;
        }
    }
    out[start..].reverse();
    let frac4 = ten_thousandths % 10_000;
    if frac4 != 0 {
        out.push('.');
        out.extend([1000, 100, 10, 1].map(|div| digit(frac4 / div)));
        while out.last() == Some(&'0') {
            out.pop();
        }
    }
    out
}

/// Compute the 12-feature vector for text mention `x` against table
/// mention `t` within a prepared document context.
pub fn feature_vector(x: &TextMention, t: &TableMention, ctx: &DocContext) -> Vec<f64> {
    let mctx = &ctx.mentions[x.id];
    let tctx = &ctx.tables[t.table];
    let q = &x.quantity;

    let f1 = jaro_winkler(&q.raw.to_lowercase(), &table_surface(t).to_lowercase());

    let t_local_words = tctx.local_words(t);
    let f2 = weighted_overlap(&mctx.local_weights, &t_local_words);
    let f3 = overlap(&ctx.paragraph_words, &tctx.table_words);
    let f4 = overlap(&mctx.sentence_phrases, &tctx.local_phrases(t));
    let f5 = overlap(&ctx.paragraph_phrases, &tctx.table_phrases);

    let f6 = relative_difference(q.value, t.value);
    let f7 = relative_difference(q.unnormalized, t.unnormalized);
    let f8 = unit_match(q.unit, t.unit).encode();
    let f9 = (q.scale() - t.scale()).abs() as f64;
    let f10 = (q.precision as i32 - t.precision as i32).abs() as f64;
    let f11 = encode_approx(q.approx);

    let f12 = {
        let x_agg = mctx.inferred_aggregation;
        let t_agg = t.aggregation();
        match (x_agg, t_agg) {
            (Some(a), Some(b)) if a == b => MatchDegree::StrongMatch,
            (Some(_), Some(_)) => MatchDegree::StrongMismatch,
            (None, None) => MatchDegree::WeakMatch,
            _ => MatchDegree::WeakMismatch,
        }
        .encode()
    };

    vec![f1, f2, f3, f4, f5, f6, f7, f8, f9, f10, f11, f12]
}

/// Per-mention invariants of the pair features, computed once per mention
/// instead of once per pair.
#[derive(Debug, Clone)]
struct MentionInvariants {
    /// Lowercased surface form as chars (f1 operand).
    raw_chars: Vec<char>,
    /// Sum of the local-window word weights, accumulated in the same
    /// (sorted) order as `weighted_overlap`'s `weights.values().sum()`.
    text_mass: f64,
    value: f64,
    unnormalized: f64,
    unit: Unit,
    scale: i32,
    precision: u8,
    /// Encoded approximation indicator (f11).
    approx_code: f64,
    aggregation: Option<AggregationKind>,
}

/// Per-target invariants, computed once per target instead of once per
/// pair: the row/column context unions dominate the naive per-pair cost.
/// The f1 surface is not here: [`PairFeaturizer`] builds it on first use.
#[derive(Debug, Clone)]
struct TargetInvariants {
    /// Index of the owning table (selects the [`TableIndex`]).
    table: usize,
    /// Offset of this target's member-row/member-col bitmasks in the
    /// shared `member_bits` arena (`row_blocks` then `col_blocks` words).
    bits_off: usize,
    /// `min(|local word union|, cap)` where the cap is at least every
    /// mention's `text_mass` — exactly enough for f2's denominator.
    union_words: f64,
    /// `min(|local phrase union|, cap)` where the cap is at least every
    /// mention's sentence-phrase count — exactly enough for f4.
    union_phrases: u32,
    value: f64,
    unnormalized: f64,
    unit: Unit,
    scale: i32,
    precision: u8,
    aggregation: Option<AggregationKind>,
    /// Global word overlap — constant per (document, table) pair (f3).
    f3: f64,
    /// Global phrase overlap — constant per (document, table) pair (f5).
    f5: f64,
}

/// Interned per-table context: every stemmed word and noun phrase of the
/// table's rows/columns gets a dense id plus bitmasks of the rows and
/// columns containing it. Membership of a word in a target's row/column
/// union then becomes two mask intersections instead of a `BTreeSet`
/// lookup, and the unions themselves are never materialized.
struct TableIndex<'c> {
    n_rows: usize,
    n_cols: usize,
    /// `u64` words per row bitmask (`n_rows.div_ceil(64)`).
    row_blocks: usize,
    /// `u64` words per column bitmask.
    col_blocks: usize,
    word_ids: HashMap<&'c str, u32>,
    /// Row bitmask per word id (`row_blocks` words each).
    word_row_bits: Vec<u64>,
    /// Column bitmask per word id.
    word_col_bits: Vec<u64>,
    /// Word ids per row (each row's set, any order, no duplicates).
    row_word_ids: Vec<Vec<u32>>,
    col_word_ids: Vec<Vec<u32>>,
    phrase_ids: HashMap<&'c str, u32>,
    phrase_row_bits: Vec<u64>,
    phrase_col_bits: Vec<u64>,
    row_phrase_ids: Vec<Vec<u32>>,
    col_phrase_ids: Vec<Vec<u32>>,
}

impl<'c> TableIndex<'c> {
    fn build(tctx: &'c TableContext) -> TableIndex<'c> {
        let n_rows = tctx.row_words.len();
        let n_cols = tctx.col_words.len();
        let row_blocks = n_rows.div_ceil(64);
        let col_blocks = n_cols.div_ceil(64);
        let (word_ids, word_row_bits, word_col_bits, row_word_ids, col_word_ids) =
            Self::index_sets(&tctx.row_words, &tctx.col_words, row_blocks, col_blocks);
        let (phrase_ids, phrase_row_bits, phrase_col_bits, row_phrase_ids, col_phrase_ids) =
            Self::index_sets(&tctx.row_phrases, &tctx.col_phrases, row_blocks, col_blocks);
        TableIndex {
            n_rows,
            n_cols,
            row_blocks,
            col_blocks,
            word_ids,
            word_row_bits,
            word_col_bits,
            row_word_ids,
            col_word_ids,
            phrase_ids,
            phrase_row_bits,
            phrase_col_bits,
            row_phrase_ids,
            col_phrase_ids,
        }
    }

    /// Intern the strings of per-row and per-column sets and record, for
    /// each id, the bitmask of rows and columns containing it.
    #[allow(clippy::type_complexity)]
    fn index_sets(
        rows: &'c [std::collections::BTreeSet<String>],
        cols: &'c [std::collections::BTreeSet<String>],
        row_blocks: usize,
        col_blocks: usize,
    ) -> (
        HashMap<&'c str, u32>,
        Vec<u64>,
        Vec<u64>,
        Vec<Vec<u32>>,
        Vec<Vec<u32>>,
    ) {
        let mut ids: HashMap<&'c str, u32> = HashMap::new();
        let mut row_bits: Vec<u64> = Vec::new();
        let mut col_bits: Vec<u64> = Vec::new();
        let mut next_id = 0u32;
        let mut intern = |s: &'c str, row_bits: &mut Vec<u64>, col_bits: &mut Vec<u64>| -> u32 {
            *ids.entry(s).or_insert_with(|| {
                row_bits.resize(row_bits.len() + row_blocks, 0);
                col_bits.resize(col_bits.len() + col_blocks, 0);
                let id = next_id;
                next_id += 1;
                id
            })
        };
        let mut per_row: Vec<Vec<u32>> = Vec::with_capacity(rows.len());
        for (r, set) in rows.iter().enumerate() {
            let mut ids_here = Vec::with_capacity(set.len());
            for s in set {
                let id = intern(s, &mut row_bits, &mut col_bits);
                row_bits[id as usize * row_blocks + r / 64] |= 1 << (r % 64);
                ids_here.push(id);
            }
            per_row.push(ids_here);
        }
        let mut per_col: Vec<Vec<u32>> = Vec::with_capacity(cols.len());
        for (c, set) in cols.iter().enumerate() {
            let mut ids_here = Vec::with_capacity(set.len());
            for s in set {
                let id = intern(s, &mut row_bits, &mut col_bits);
                col_bits[id as usize * col_blocks + c / 64] |= 1 << (c % 64);
                ids_here.push(id);
            }
            per_col.push(ids_here);
        }
        (ids, row_bits, col_bits, per_row, per_col)
    }
}

/// Whether interned item `id` occurs in a member row or member column —
/// exactly `union.contains(item)` without materializing the union.
#[inline]
fn mask_hit(
    row_bits: &[u64],
    col_bits: &[u64],
    id: u32,
    row_blocks: usize,
    col_blocks: usize,
    member_rows: &[u64],
    member_cols: &[u64],
) -> bool {
    let r_off = id as usize * row_blocks;
    let c_off = id as usize * col_blocks;
    row_bits[r_off..r_off + row_blocks]
        .iter()
        .zip(member_rows)
        .any(|(&a, &b)| a & b != 0)
        || col_bits[c_off..c_off + col_blocks]
            .iter()
            .zip(member_cols)
            .any(|(&a, &b)| a & b != 0)
}

/// Count the distinct items of the member rows'/columns' sets, stopping
/// at `cap`. Returns `min(|union|, cap)`; `seen` entries equal to `epoch`
/// mark already-counted ids (epoch-stamped so it is never cleared).
fn count_union_capped(
    member_rows: &[u64],
    member_cols: &[u64],
    per_row: &[Vec<u32>],
    per_col: &[Vec<u32>],
    seen: &mut [u32],
    epoch: u32,
    cap: usize,
) -> usize {
    let mut count = 0usize;
    if count >= cap {
        return count;
    }
    for (per_line, member) in [(per_row, member_rows), (per_col, member_cols)] {
        for (b, &block) in member.iter().enumerate() {
            let mut m = block;
            while m != 0 {
                let line = b * 64 + m.trailing_zeros() as usize;
                m &= m - 1;
                for &id in &per_line[line] {
                    let s = &mut seen[id as usize];
                    if *s != epoch {
                        *s = epoch;
                        count += 1;
                        if count >= cap {
                            return count;
                        }
                    }
                }
            }
        }
    }
    count
}

/// Local-window words of one mention that occur anywhere in one table:
/// `(weight, word id)` in the sorted order of the mention's weight map,
/// so f2's intersection sum visits the same values in the same order as
/// `weighted_overlap`. Words absent from the table can never be in a
/// target's union and are dropped up front.
struct MentionTableHits {
    words: Vec<(f64, u32)>,
    /// Sentence-phrase ids present in the table (f4 numerator operands).
    phrases: Vec<u32>,
}

/// Allocation-free pair featurizer: precomputes the per-mention and
/// per-target invariants once, then fills caller-provided rows.
///
/// [`PairFeaturizer::fill`] is bit-identical to [`feature_vector`] — same
/// expressions, same evaluation order — but performs no heap allocation
/// per pair once every target it reads has been seen: strings are
/// lowercased into char buffers once, a target's surface on the first
/// row that reads it (retrieval hands only about half the targets to the
/// featurizer, and a virtual cell's surface is a formatted float); the
/// per-table global overlaps (f3/f5) are folded to constants, the
/// Jaro-Winkler match buffers live in a reused [`JaroScratch`], and the
/// per-target row/column unions of f2/f4 are replaced by interned-id
/// bitmask intersections (the private `TableIndex`) — the unions are
/// never materialized at all. The f2/f4 denominators only ever need a union
/// size up to the largest mention-side mass, so union cardinalities are
/// counted with a cap (the private `TargetInvariants::union_words`),
/// which keeps per-target setup O(cap) instead of O(union).
pub struct PairFeaturizer<'c> {
    ctx: &'c DocContext,
    mentions: Vec<MentionInvariants>,
    targets: Vec<TargetInvariants>,
    /// The targets themselves, for the f1 surfaces built on first use.
    target_mentions: &'c [TableMention],
    /// Per target: its lowercased canonical surface as chars (f1
    /// operand), once a filled row has needed it.
    surfaces: Vec<Option<Vec<char>>>,
    tables: Vec<TableIndex<'c>>,
    /// `mention_tables[mi * tables.len() + table]`.
    mention_tables: Vec<MentionTableHits>,
    /// Member-row/member-col bitmask arena, indexed by
    /// [`TargetInvariants::bits_off`].
    member_bits: Vec<u64>,
    jaro: JaroScratch,
}

impl<'c> PairFeaturizer<'c> {
    /// Precompute invariants for every mention and target of a document;
    /// target surfaces wait for the first row that reads them.
    pub fn new(
        mentions: &[TextMention],
        targets: &'c [TableMention],
        ctx: &'c DocContext,
    ) -> PairFeaturizer<'c> {
        let mention_inv: Vec<MentionInvariants> = mentions
            .iter()
            .enumerate()
            .map(|(mi, x)| {
                let q = &x.quantity;
                MentionInvariants {
                    raw_chars: q.raw.to_lowercase().chars().collect(),
                    text_mass: ctx.mentions[mi].local_weights.values().sum(),
                    value: q.value,
                    unnormalized: q.unnormalized,
                    unit: q.unit,
                    scale: q.scale(),
                    precision: q.precision,
                    approx_code: encode_approx(q.approx),
                    aggregation: ctx.mentions[x.id].inferred_aggregation,
                }
            })
            .collect();

        // f3/f5 depend only on the table, not the target within it.
        let per_table: Vec<(f64, f64)> = ctx
            .tables
            .iter()
            .map(|tctx| {
                (
                    overlap(&ctx.paragraph_words, &tctx.table_words),
                    overlap(&ctx.paragraph_phrases, &tctx.table_phrases),
                )
            })
            .collect();

        let tables: Vec<TableIndex<'c>> = ctx.tables.iter().map(TableIndex::build).collect();

        // Union-size caps: f2 needs `min(text_mass, |union|)` and f4 needs
        // `min(|sentence phrases|, |union|)`, so counting a union past the
        // largest mention-side operand can never change a feature value.
        let cap_words = mention_inv
            .iter()
            .map(|m| m.text_mass.ceil() as usize)
            .max()
            .unwrap_or(0);
        let cap_phrases = (0..mentions.len())
            .map(|mi| ctx.mentions[mi].sentence_phrases.len())
            .max()
            .unwrap_or(0);

        let mut mention_tables = Vec::with_capacity(mentions.len() * tables.len());
        for mi in 0..mentions.len() {
            let mctx = &ctx.mentions[mi];
            for idx in &tables {
                let words = mctx
                    .local_weights
                    .iter()
                    .filter_map(|(w, &weight)| idx.word_ids.get(w.as_str()).map(|&id| (weight, id)))
                    .collect();
                let phrases = mctx
                    .sentence_phrases
                    .iter()
                    .filter_map(|p| idx.phrase_ids.get(p.as_str()).copied())
                    .collect();
                mention_tables.push(MentionTableHits { words, phrases });
            }
        }

        let mut member_bits: Vec<u64> = Vec::new();
        let mut seen_words: Vec<Vec<u32>> =
            tables.iter().map(|i| vec![0; i.word_ids.len()]).collect();
        let mut seen_phrases: Vec<Vec<u32>> =
            tables.iter().map(|i| vec![0; i.phrase_ids.len()]).collect();
        let mut epochs = vec![0u32; tables.len()];
        let target_inv = targets
            .iter()
            .map(|t| {
                let idx = &tables[t.table];
                let (f3, f5) = per_table[t.table];
                let bits_off = member_bits.len();
                member_bits.resize(bits_off + idx.row_blocks + idx.col_blocks, 0);
                for &(r, c) in &t.cells {
                    // Same bounds-check-skip semantics as the
                    // `row_words.get(r)` lookups in `local_words`.
                    if r < idx.n_rows {
                        member_bits[bits_off + r / 64] |= 1 << (r % 64);
                    }
                    if c < idx.n_cols {
                        member_bits[bits_off + idx.row_blocks + c / 64] |= 1 << (c % 64);
                    }
                }
                epochs[t.table] += 1;
                let (mrows, mcols) = member_bits[bits_off..].split_at(idx.row_blocks);
                let union_words = count_union_capped(
                    mrows,
                    mcols,
                    &idx.row_word_ids,
                    &idx.col_word_ids,
                    &mut seen_words[t.table],
                    epochs[t.table],
                    cap_words,
                );
                let union_phrases = count_union_capped(
                    mrows,
                    mcols,
                    &idx.row_phrase_ids,
                    &idx.col_phrase_ids,
                    &mut seen_phrases[t.table],
                    epochs[t.table],
                    cap_phrases,
                );
                TargetInvariants {
                    table: t.table,
                    bits_off,
                    union_words: union_words as f64,
                    union_phrases: union_phrases as u32,
                    value: t.value,
                    unnormalized: t.unnormalized,
                    unit: t.unit,
                    scale: t.scale(),
                    precision: t.precision,
                    aggregation: t.aggregation(),
                    f3,
                    f5,
                }
            })
            .collect();

        PairFeaturizer {
            ctx,
            mentions: mention_inv,
            targets: target_inv,
            target_mentions: targets,
            surfaces: vec![None; targets.len()],
            tables,
            mention_tables,
            member_bits,
            jaro: JaroScratch::new(),
        }
    }

    /// Fill `out` with the 12 features of pair `(mi, ti)` — bit-identical
    /// to `feature_vector(&mentions[mi], &targets[ti], ctx)`, with zero
    /// heap allocation once the scratch buffers are warm.
    pub fn fill(&mut self, mi: usize, ti: usize, out: &mut [f64; FEATURE_COUNT]) {
        self.fill_row(mi, ti, out);
    }

    /// Fill one flat row matrix with every target's features for mention
    /// `mi` (`rows[ti * FEATURE_COUNT..][..FEATURE_COUNT]` is pair
    /// `(mi, ti)`). The matrix is reused across mentions by the caller.
    pub fn fill_mention_rows(&mut self, mi: usize, rows: &mut Vec<f64>) {
        rows.clear();
        rows.resize(self.targets.len() * FEATURE_COUNT, 0.0);
        for (ti, row) in rows.chunks_exact_mut(FEATURE_COUNT).enumerate() {
            self.fill_row(mi, ti, row);
        }
    }

    /// Fill one flat row matrix with the features of mention `mi`
    /// against the *selected* targets `tis` only
    /// (`rows[k * FEATURE_COUNT..][..FEATURE_COUNT]` is pair
    /// `(mi, tis[k])`) — the retrieval-index counterpart of
    /// [`PairFeaturizer::fill_mention_rows`]. Each filled row is
    /// bit-identical to the same pair's row in the exhaustive matrix.
    pub fn fill_rows_for(&mut self, mi: usize, tis: &[usize], rows: &mut Vec<f64>) {
        rows.clear();
        rows.resize(tis.len() * FEATURE_COUNT, 0.0);
        for (&ti, row) in tis.iter().zip(rows.chunks_exact_mut(FEATURE_COUNT)) {
            self.fill_row(mi, ti, row);
        }
    }

    fn fill_row(&mut self, mi: usize, ti: usize, out: &mut [f64]) {
        debug_assert_eq!(out.len(), FEATURE_COUNT);
        let m = &self.mentions[mi];
        let t = &self.targets[ti];
        let mctx = &self.ctx.mentions[mi];
        let idx = &self.tables[t.table];
        let hits = &self.mention_tables[mi * self.tables.len() + t.table];
        let member = &self.member_bits[t.bits_off..t.bits_off + idx.row_blocks + idx.col_blocks];
        let (mrows, mcols) = member.split_at(idx.row_blocks);

        let surface = self.surfaces[ti].get_or_insert_with(|| {
            let t = &self.target_mentions[ti];
            if t.is_aggregate() {
                value_surface(t.value)
            } else {
                t.raw.to_lowercase().chars().collect()
            }
        });
        out[0] = self.jaro.jaro_winkler_chars(&m.raw_chars, surface);
        out[1] = {
            // `weighted_overlap` against the (never materialized) member
            // union: the intersection sum visits the same weights in the
            // same sorted order through the same `Sum` impl (whose empty
            // identity is -0.0), and the capped union size is exact
            // wherever it can win the `min` (see `TargetInvariants`).
            let inter: f64 = hits
                .words
                .iter()
                .filter(|&&(_, id)| {
                    mask_hit(
                        &idx.word_row_bits,
                        &idx.word_col_bits,
                        id,
                        idx.row_blocks,
                        idx.col_blocks,
                        mrows,
                        mcols,
                    )
                })
                .map(|&(weight, _)| weight)
                .sum();
            let denom = m.text_mass.min(t.union_words);
            if denom <= 0.0 {
                0.0
            } else {
                (inter / denom).min(1.0)
            }
        };
        out[2] = t.f3;
        out[3] = {
            // `overlap` between sentence phrases and the member union.
            let a_len = mctx.sentence_phrases.len();
            let b_len = t.union_phrases as usize;
            if a_len == 0 || b_len == 0 {
                0.0
            } else {
                let inter = hits
                    .phrases
                    .iter()
                    .filter(|&&id| {
                        mask_hit(
                            &idx.phrase_row_bits,
                            &idx.phrase_col_bits,
                            id,
                            idx.row_blocks,
                            idx.col_blocks,
                            mrows,
                            mcols,
                        )
                    })
                    .count();
                inter as f64 / a_len.min(b_len) as f64
            }
        };
        out[4] = t.f5;
        out[5] = relative_difference(m.value, t.value);
        out[6] = relative_difference(m.unnormalized, t.unnormalized);
        out[7] = unit_match(m.unit, t.unit).encode();
        out[8] = (m.scale - t.scale).abs() as f64;
        out[9] = (m.precision as i32 - t.precision as i32).abs() as f64;
        out[10] = m.approx_code;
        out[11] = match (m.aggregation, t.aggregation) {
            (Some(a), Some(b)) if a == b => MatchDegree::StrongMatch,
            (Some(_), Some(_)) => MatchDegree::StrongMismatch,
            (None, None) => MatchDegree::WeakMatch,
            _ => MatchDegree::WeakMismatch,
        }
        .encode();
    }
}

/// Ablation mask over the three feature groups of §VIII-B. Masked features
/// are zeroed (constant features are never chosen as tree splits, so this
/// is equivalent to removing them — while keeping vector shapes stable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureMask {
    /// Keep f1.
    pub surface: bool,
    /// Keep f2–f5, f11, f12.
    pub context: bool,
    /// Keep f6–f10.
    pub quantity: bool,
}

impl Default for FeatureMask {
    fn default() -> Self {
        FeatureMask {
            surface: true,
            context: true,
            quantity: true,
        }
    }
}

impl FeatureMask {
    /// All features on.
    pub fn all() -> Self {
        Self::default()
    }

    /// Group membership of each feature index: is feature `idx` kept?
    /// Used by mask-baked scoring paths so they can honour the mask
    /// without copying the feature row.
    pub fn keeps(&self, idx: usize) -> bool {
        match idx {
            0 => self.surface,
            1..=4 | 10 | 11 => self.context,
            5..=9 => self.quantity,
            _ => true,
        }
    }

    /// Apply the mask in place.
    pub fn apply(&self, features: &mut [f64]) {
        for (i, f) in features.iter_mut().enumerate() {
            if !self.keeps(i) {
                *f = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{ContextConfig, DocContext};
    use crate::mention::text_mentions;
    use briq_table::{Document, Table, TableMentionKind};
    use briq_text::units::Currency;

    fn doc() -> Document {
        Document::new(
            0,
            "A total of 123 patients reported side effects; depression was \
             reported by 38 patients.",
            vec![Table::from_grid(
                "",
                vec![
                    vec!["side effects".into(), "patients".into()],
                    vec!["Rash".into(), "35".into()],
                    vec!["Depression".into(), "38".into()],
                ],
            )],
        )
    }

    fn setup() -> (Document, Vec<crate::mention::TextMention>, DocContext) {
        let d = doc();
        let ms = text_mentions(&d);
        let ctx = DocContext::build(&d, &ms, &ContextConfig::default());
        (d, ms, ctx)
    }

    fn single(cells: (usize, usize), value: f64, raw: &str) -> TableMention {
        TableMention {
            table: 0,
            kind: TableMentionKind::SingleCell,
            cells: vec![cells],
            value,
            unnormalized: value,
            raw: raw.into(),
            unit: Unit::None,
            precision: 0,
            orientation: None,
        }
    }

    #[test]
    fn vector_has_twelve_features() {
        let (_, ms, ctx) = setup();
        let t = single((2, 1), 38.0, "38");
        let v = feature_vector(&ms[1], &t, &ctx);
        assert_eq!(v.len(), FEATURE_COUNT);
    }

    #[test]
    fn exact_value_match_beats_mismatch() {
        let (_, ms, ctx) = setup();
        let right = single((2, 1), 38.0, "38");
        let wrong = single((1, 1), 35.0, "35");
        let v_right = feature_vector(&ms[1], &right, &ctx);
        let v_wrong = feature_vector(&ms[1], &wrong, &ctx);
        // f1 surface and f6 value distance both favor the right cell
        assert!(v_right[0] > v_wrong[0]);
        assert!(v_right[5] < v_wrong[5]);
        // context: "depression" appears in the right cell's row
        assert!(v_right[1] > v_wrong[1]);
    }

    #[test]
    fn relative_difference_properties() {
        assert_eq!(relative_difference(0.0, 0.0), 0.0);
        assert_eq!(relative_difference(10.0, 10.0), 0.0);
        assert!((relative_difference(37000.0, 36900.0) - 100.0 / 37000.0).abs() < 1e-12);
        assert_eq!(relative_difference(-1.0, 1.0), 2.0);
        assert_eq!(relative_difference(5.0, 0.0), 1.0);
    }

    #[test]
    fn unit_match_degrees() {
        use MatchDegree::*;
        let usd = Unit::Currency(Currency::Usd);
        let eur = Unit::Currency(Currency::Eur);
        assert_eq!(unit_match(usd, usd), StrongMatch);
        assert_eq!(unit_match(usd, eur), StrongMismatch);
        assert_eq!(unit_match(Unit::None, Unit::None), WeakMatch);
        assert_eq!(unit_match(usd, Unit::None), WeakMismatch);
        assert_eq!(unit_match(Unit::None, Unit::Percent), WeakMismatch);
    }

    #[test]
    fn aggregate_match_feature() {
        let (_, ms, ctx) = setup();
        // Mention 0 ("total of 123") infers Sum.
        let sum_target = TableMention {
            kind: TableMentionKind::Aggregate(briq_text::AggregationKind::Sum),
            cells: vec![(1, 1), (2, 1)],
            value: 73.0,
            unnormalized: 73.0,
            raw: "sum".into(),
            orientation: Some(briq_table::Orientation::Column(1)),
            ..single((1, 1), 73.0, "73")
        };
        let diff_target = TableMention {
            kind: TableMentionKind::Aggregate(briq_text::AggregationKind::Difference),
            ..sum_target.clone()
        };
        let v_sum = feature_vector(&ms[0], &sum_target, &ctx);
        let v_diff = feature_vector(&ms[0], &diff_target, &ctx);
        assert_eq!(v_sum[11], MatchDegree::StrongMatch.encode());
        assert_eq!(v_diff[11], MatchDegree::StrongMismatch.encode());
    }

    #[test]
    fn featurizer_matches_feature_vector() {
        let (_, ms, ctx) = setup();
        let targets = vec![
            single((2, 1), 38.0, "38"),
            single((1, 1), 35.0, "35"),
            TableMention {
                kind: TableMentionKind::Aggregate(briq_text::AggregationKind::Sum),
                cells: vec![(1, 1), (2, 1)],
                value: 73.0,
                unnormalized: 73.0,
                raw: "sum".into(),
                orientation: Some(briq_table::Orientation::Column(1)),
                ..single((1, 1), 73.0, "73")
            },
        ];
        let mut fz = PairFeaturizer::new(&ms, &targets, &ctx);
        let mut row = [0.0; FEATURE_COUNT];
        let mut rows = Vec::new();
        for (mi, x) in ms.iter().enumerate() {
            fz.fill_mention_rows(mi, &mut rows);
            for (ti, t) in targets.iter().enumerate() {
                let naive = feature_vector(x, t, &ctx);
                fz.fill(mi, ti, &mut row);
                assert_eq!(&row[..], &naive[..], "pair ({mi}, {ti})");
                assert_eq!(
                    &rows[ti * FEATURE_COUNT..(ti + 1) * FEATURE_COUNT],
                    &naive[..],
                    "row ({mi}, {ti})"
                );
            }
        }
    }

    #[test]
    fn format_value_trims() {
        assert_eq!(format_value(123.0), "123");
        assert_eq!(format_value(1.5), "1.5");
        assert_eq!(format_value(1.5730000), "1.573");
        assert_eq!(format_value(-70.0), "-70");
    }

    /// `value_surface(v)` against its oracle, `format_value(v)`
    /// lowercased, as chars.
    fn surface_matches(v: f64) -> Result<(), String> {
        let oracle: Vec<char> = format_value(v).to_lowercase().chars().collect();
        let got = value_surface(v);
        if got == oracle {
            Ok(())
        } else {
            Err(format!(
                "{v:e} ({:#x}): {:?} != {:?}",
                v.to_bits(),
                String::from_iter(&got),
                String::from_iter(&oracle)
            ))
        }
    }

    #[test]
    fn value_surface_edges() {
        let two52 = 4_503_599_627_370_496.0_f64;
        let named: [(f64, Option<&str>); 20] = [
            // An exact tie rounds to even, as `{:.4}` does.
            (0.03125, Some("0.0312")),
            (0.09375, Some("0.0938")),
            (-0.03125, Some("-0.0312")),
            // Rounding to zero keeps the sign of a negative value …
            (-0.00001, Some("-0")),
            (0.00001, Some("0")),
            // … but an exact negative zero is the integer 0.
            (-0.0, Some("0")),
            (0.0, Some("0")),
            (f64::NAN, Some("nan")),
            (f64::INFINITY, Some("inf")),
            (f64::NEG_INFINITY, Some("-inf")),
            (f64::from_bits(1), Some("0")),
            (-f64::from_bits(1), Some("-0")),
            (f64::MIN_POSITIVE / 2.0, Some("0")),
            (0.99995, None),
            (1.573, Some("1.573")),
            (-70.0, Some("-70")),
            // Around 1e15, where `format_value` leaves the integer form,
            // and both sides of 2^52, where `f64` stops holding fractions.
            (999_999_999_999_999.9, None),
            (1e15, None),
            (two52 - 0.5, None),
            (two52 + 1.0, None),
        ];
        for (v, want) in named {
            surface_matches(v).unwrap();
            if let Some(want) = want {
                assert_eq!(String::from_iter(value_surface(v)), want, "{v:e}");
            }
        }
        for v in [
            two52,
            -two52,
            2.0 * two52,
            f64::MAX,
            f64::MIN,
            1e300,
            1e-300,
        ] {
            surface_matches(v).unwrap();
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]

        /// Any bit pattern: NaNs, infinities, subnormals and the huge and
        /// tiny exponents that dominate uniform bits.
        #[test]
        fn value_surface_matches_format_value_on_any_bits(bits in 0u64..=u64::MAX) {
            proptest::prop_assert_eq!(surface_matches(f64::from_bits(bits)), Ok(()));
        }

        /// Exponents from 2^-30 to 2^60, where the four decimals and
        /// their rounding matter and the 1e15 and 2^52 edges sit.
        #[test]
        fn value_surface_matches_format_value_near_the_decimals(
            sign in 0u64..=1,
            exp in 993u64..=1083,
            mantissa in 0u64..(1 << 52),
        ) {
            let v = f64::from_bits(sign << 63 | exp << 52 | mantissa);
            proptest::prop_assert_eq!(surface_matches(v), Ok(()));
        }

        /// Ratios of small integers: the percentages, ratios and halves
        /// (exact ties) that virtual cells hold.
        #[test]
        fn value_surface_matches_format_value_on_ratios(
            n in -10_000_000i64..=10_000_000,
            d in 1i64..=100_000,
        ) {
            let v = n as f64 / d as f64;
            proptest::prop_assert_eq!(surface_matches(v), Ok(()));
            proptest::prop_assert_eq!(surface_matches(v * 100.0), Ok(()));
        }
    }

    #[test]
    fn mask_zeroes_groups() {
        let mut v: Vec<f64> = (1..=12).map(|i| i as f64).collect();
        let m = FeatureMask {
            surface: false,
            context: true,
            quantity: true,
        };
        m.apply(&mut v);
        assert_eq!(v[0], 0.0);
        assert_eq!(v[1], 2.0);

        let mut v: Vec<f64> = (1..=12).map(|i| i as f64).collect();
        let m = FeatureMask {
            surface: true,
            context: false,
            quantity: true,
        };
        m.apply(&mut v);
        assert_eq!(v[0], 1.0);
        for i in [1, 2, 3, 4, 10, 11] {
            assert_eq!(v[i], 0.0, "f{} should be masked", i + 1);
        }
        for i in [5, 6, 7, 8, 9] {
            assert_ne!(v[i], 0.0);
        }

        let mut v: Vec<f64> = (1..=12).map(|i| i as f64).collect();
        let m = FeatureMask {
            surface: true,
            context: true,
            quantity: false,
        };
        m.apply(&mut v);
        for i in [5, 6, 7, 8, 9] {
            assert_eq!(v[i], 0.0);
        }
    }
}

briq_json::json_struct!(FeatureMask {
    surface,
    context,
    quantity
});
