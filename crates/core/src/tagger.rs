//! The text-mention tagger (§V-A).
//!
//! Tags each text mention with one of: difference, sum, change ratio,
//! percentage, or single cell — from local features only. Implemented as
//! one-vs-rest Random Forests over the feature set the paper lists:
//! approximation indicator, per-aggregation cue counts at immediate /
//! local / global scope, scale, precision, unit category, and the count of
//! exact matches in the document's tables. Tuned for high precision: an
//! aggregation tag is only emitted above a confidence threshold, otherwise
//! the mention is tagged single-cell (mis-tagging a single-cell mention as
//! an aggregate would prune away its true candidates — §V-A accepts lower
//! recall instead).

use briq_ml::{Dataset, FlatForest, RandomForest, RandomForestConfig};
use briq_table::Document;
use briq_text::cues::{count_aggregation_cues, AggregationKind, ApproxIndicator};
use briq_text::units::tagger_unit_category;

use crate::context::DocContext;
use crate::mention::TextMention;

/// Number of tagger features.
pub const TAGGER_FEATURE_COUNT: usize = 1 + 3 * 4 + 4;

/// A trained text-mention tagger.
#[derive(Debug, Clone)]
pub struct MentionTagger {
    /// One binary forest per evaluated aggregation kind, in
    /// [`AggregationKind::EVALUATED`] order.
    forests: Vec<RandomForest>,
    /// Minimum confidence to emit an aggregation tag.
    pub threshold: f64,
    /// Flattened copies of `forests` for allocation-free scoring
    /// (derived state, rebuilt on deserialization).
    flats: Vec<FlatForest>,
}

/// Compute the tagger feature vector for a text mention.
pub fn tagger_features(x: &TextMention, ctx: &DocContext, doc: &Document) -> Vec<f64> {
    let m = &ctx.mentions[x.id];
    let mut v = Vec::with_capacity(TAGGER_FEATURE_COUNT);

    // Approximation indicator (categorical).
    v.push(match x.quantity.approx {
        ApproxIndicator::None => 0.0,
        ApproxIndicator::Approximate => 1.0,
        ApproxIndicator::Exact => 2.0,
        ApproxIndicator::UpperBound => 3.0,
        ApproxIndicator::LowerBound => 4.0,
    });

    // Cue counts per aggregation kind × scope.
    let imm: Vec<&str> = m.immediate_words.iter().map(|s| s.as_str()).collect();
    let loc: Vec<&str> = m.sentence_words.iter().map(|s| s.as_str()).collect();
    let glob: Vec<&str> = ctx.paragraph_word_list.iter().map(|s| s.as_str()).collect();
    for kind in AggregationKind::EVALUATED {
        v.push(count_aggregation_cues(kind, &imm) as f64);
        v.push(count_aggregation_cues(kind, &loc) as f64);
        v.push(count_aggregation_cues(kind, &glob) as f64);
    }

    // Scale, precision, unit category.
    v.push(x.quantity.scale() as f64);
    v.push(x.quantity.precision as f64);
    v.push(tagger_unit_category(x.quantity.unit) as f64);

    // Exact matches in tables (summed over all tables).
    let exact = doc
        .tables
        .iter()
        .flat_map(|t| t.quantities().map(|(_, q)| q))
        .filter(|q| q.value == x.quantity.value || q.unnormalized == x.quantity.unnormalized)
        .count();
    v.push(exact as f64);

    debug_assert_eq!(v.len(), TAGGER_FEATURE_COUNT);
    v
}

/// Lexical detection of the *extended* aggregation kinds (average, min,
/// max) from the immediate context. The paper keeps these in the
/// framework but outside the evaluated four (§II-A); they are only
/// consulted when extended virtual cells are enabled.
pub fn extended_lexical_tags(immediate_words: &[String]) -> Vec<AggregationKind> {
    use briq_text::cues::count_aggregation_cues;
    let refs: Vec<&str> = immediate_words.iter().map(|s| s.as_str()).collect();
    [
        AggregationKind::Average,
        AggregationKind::Max,
        AggregationKind::Min,
    ]
    .into_iter()
    .filter(|&k| count_aggregation_cues(k, &refs) > 0)
    .collect()
}

/// One tagger training instance.
#[derive(Debug, Clone)]
pub struct TaggerExample {
    /// Feature vector from [`tagger_features`].
    pub features: Vec<f64>,
    /// Gold tag (None = single cell).
    pub label: Option<AggregationKind>,
}

impl MentionTagger {
    /// Train one-vs-rest forests on labeled examples.
    pub fn train(examples: &[TaggerExample], rf: RandomForestConfig, threshold: f64) -> Self {
        let forests = AggregationKind::EVALUATED
            .iter()
            .map(|&kind| {
                let mut d = Dataset::new();
                for e in examples {
                    d.push(e.features.clone(), e.label == Some(kind));
                }
                d.apply_class_weights();
                RandomForest::fit(&d, rf)
            })
            .collect();
        Self::from_parts(forests, threshold)
    }

    /// A purely lexical fallback tagger (used before training data is
    /// available): emits the cue-inferred aggregation.
    pub fn lexical(threshold: f64) -> Self {
        Self::from_parts(Vec::new(), threshold)
    }

    /// Assemble a tagger, building the flattened scoring layout.
    fn from_parts(forests: Vec<RandomForest>, threshold: f64) -> Self {
        let flats = forests.iter().map(FlatForest::from_forest).collect();
        MentionTagger {
            forests,
            threshold,
            flats,
        }
    }

    /// Lexical per-kind confidences from the immediate-scope cue counts.
    fn lexical_confidences(features: &[f64]) -> Vec<f64> {
        AggregationKind::EVALUATED
            .iter()
            .enumerate()
            .map(|(k, _)| {
                let imm = features[1 + 3 * k];
                if imm > 0.0 {
                    (0.5 + 0.25 * imm).min(1.0)
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Per-kind confidences, in [`AggregationKind::EVALUATED`] order.
    ///
    /// Trained forests are blended with the lexical cue signal by taking
    /// the maximum: a miss on a true aggregate prunes its gold candidates
    /// (unrecoverable), while over-tagging merely keeps extra virtual
    /// cells alongside the never-pruned single cells (§V-A: "we can prune
    /// mention-pairs conservatively").
    pub fn confidences(&self, features: &[f64]) -> Vec<f64> {
        let lexical = Self::lexical_confidences(features);
        if self.flats.is_empty() {
            return lexical;
        }
        self.flats
            .iter()
            .zip(lexical)
            .map(|(f, lex)| f.predict_proba_slice(features).max(lex))
            .collect()
    }

    /// Tag a mention: an aggregation kind, or `None` for single-cell.
    /// When several kinds tie (cue vocabularies overlap: "up … compared
    /// with" supports both difference and change ratio), the first in
    /// [`AggregationKind::EVALUATED`] order wins; use [`MentionTagger::tags`]
    /// to get every kind above threshold.
    pub fn tag(&self, features: &[f64]) -> Option<AggregationKind> {
        let conf = self.confidences(features);
        let mut best: Option<(usize, f64)> = None;
        for (i, &c) in conf.iter().enumerate() {
            if best.is_none_or(|(_, b)| c > b) {
                best = Some((i, c));
            }
        }
        match best {
            Some((i, score)) if score >= self.threshold => Some(AggregationKind::EVALUATED[i]),
            _ => None,
        }
    }

    /// Every aggregation kind whose confidence reaches the threshold
    /// (empty = single cell). Adaptive filtering uses this set: keeping
    /// two plausible aggregate families is cheap, losing the right one is
    /// unrecoverable.
    pub fn tags(&self, features: &[f64]) -> Vec<AggregationKind> {
        self.confidences(features)
            .iter()
            .zip(AggregationKind::EVALUATED)
            .filter(|&(&c, _)| c >= self.threshold)
            .map(|(_, k)| k)
            .collect()
    }
}

// The serialized form stays `{forests, threshold}` exactly as
// `json_struct!` produced before the flat layout existed — the flat
// layouts are derived state, rebuilt on deserialization once every split
// is known to read a column of the tagger row.
impl briq_json::ToJson for MentionTagger {
    fn to_json(&self) -> briq_json::Value {
        briq_json::Value::Object(vec![
            ("forests".to_string(), self.forests.to_json()),
            ("threshold".to_string(), self.threshold.to_json()),
        ])
    }
}

impl briq_json::FromJson for MentionTagger {
    fn from_json(v: &briq_json::Value) -> briq_json::Result<Self> {
        let obj = v
            .as_object()
            .ok_or_else(|| briq_json::JsonError::new("expected MentionTagger object"))?;
        let forests: Vec<RandomForest> = briq_json::field(obj, "forests")?;
        for (k, forest) in forests.iter().enumerate() {
            forest.check_width(TAGGER_FEATURE_COUNT).map_err(|e| {
                briq_json::JsonError::new(format!("field \"forests\": forest {k}: {e}"))
            })?;
        }
        let threshold: f64 = briq_json::field(obj, "threshold")?;
        Ok(Self::from_parts(forests, threshold))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ContextConfig;
    use crate::mention::text_mentions;
    use briq_table::Table;

    fn doc(text: &str) -> (Document, Vec<TextMention>, DocContext) {
        let d = Document::new(
            0,
            text,
            vec![Table::from_grid(
                "",
                vec![
                    vec!["effect".into(), "patients".into()],
                    vec!["Rash".into(), "35".into()],
                    vec!["Depression".into(), "38".into()],
                ],
            )],
        );
        let ms = text_mentions(&d);
        let ctx = DocContext::build(&d, &ms, &ContextConfig::default());
        (d, ms, ctx)
    }

    #[test]
    fn feature_vector_shape() {
        let (d, ms, ctx) = doc("a total of 73 patients were treated");
        let v = tagger_features(&ms[0], &ctx, &d);
        assert_eq!(v.len(), TAGGER_FEATURE_COUNT);
    }

    #[test]
    fn sum_cues_counted_in_immediate_scope() {
        let (d, ms, ctx) = doc("a total of 73 patients were treated");
        let v = tagger_features(&ms[0], &ctx, &d);
        // index 1 = sum/immediate
        assert!(v[1] >= 1.0, "{v:?}");
    }

    #[test]
    fn exact_match_count() {
        let (d, ms, ctx) = doc("exactly 38 patients and 99 others");
        let v38 = tagger_features(&ms[0], &ctx, &d);
        let v99 = tagger_features(&ms[1], &ctx, &d);
        assert_eq!(v38[TAGGER_FEATURE_COUNT - 1], 1.0);
        assert_eq!(v99[TAGGER_FEATURE_COUNT - 1], 0.0);
    }

    #[test]
    fn lexical_tagger_tags_sum() {
        let (d, ms, ctx) = doc("a total of 73 patients were treated");
        let tagger = MentionTagger::lexical(0.5);
        let v = tagger_features(&ms[0], &ctx, &d);
        assert_eq!(tagger.tag(&v), Some(AggregationKind::Sum));
    }

    #[test]
    fn lexical_tagger_defaults_to_single_cell() {
        let (d, ms, ctx) = doc("depression was reported by 38 patients");
        let tagger = MentionTagger::lexical(0.5);
        let v = tagger_features(&ms[0], &ctx, &d);
        assert_eq!(tagger.tag(&v), None);
    }

    #[test]
    fn trained_tagger_learns_cue_signal() {
        // Synthesize examples: sum label iff sum/immediate count > 0.
        let mut examples = Vec::new();
        for i in 0..200 {
            let mut v = vec![0.0; TAGGER_FEATURE_COUNT];
            let is_sum = i % 3 == 0;
            v[1] = if is_sum { 1.0 + (i % 2) as f64 } else { 0.0 };
            examples.push(TaggerExample {
                features: v,
                label: if is_sum {
                    Some(AggregationKind::Sum)
                } else {
                    None
                },
            });
        }
        let tagger = MentionTagger::train(&examples, RandomForestConfig::default(), 0.6);
        let mut probe = vec![0.0; TAGGER_FEATURE_COUNT];
        probe[1] = 2.0;
        assert_eq!(tagger.tag(&probe), Some(AggregationKind::Sum));
        let none = vec![0.0; TAGGER_FEATURE_COUNT];
        assert_eq!(tagger.tag(&none), None);
    }

    #[test]
    fn threshold_controls_precision() {
        let (d, ms, ctx) = doc("a total of 73 patients were treated");
        let v = tagger_features(&ms[0], &ctx, &d);
        let strict = MentionTagger::lexical(0.99);
        assert_eq!(strict.tag(&v), None); // lexical conf 0.75 < 0.99
    }
}
