//! The two published baselines (§VII-D).
//!
//! * **Classifier-only (RF)** — "for each text mention, the cell of the
//!   classifier's top-ranked mention-pair is chosen as output". No
//!   filtering, no joint inference.
//! * **Random-walk-only (RWR)** — the graph algorithm without trained
//!   priors: text-table edges combine the features with uniform weights;
//!   no pruning of mention pairs ("making this baseline fairly expensive").

use briq_table::virtual_cells::all_table_mentions;
use briq_table::Document;

use crate::context::DocContext;
use crate::filtering::Candidate;
use crate::graph_builder::build_graph;
use crate::mention::{text_mentions, Alignment};
use crate::pipeline::{Briq, ScoredDocument};
use crate::resolution::{resolve, ResolutionConfig};

/// Classifier-only baseline: argmax classifier score per mention.
pub fn rf_only(briq: &Briq, doc: &Document) -> Vec<Alignment> {
    let sd = briq.score_document(doc);
    rf_only_scored(&sd)
}

/// Classifier-only baseline over an already-scored document.
pub fn rf_only_scored(sd: &ScoredDocument) -> Vec<Alignment> {
    let mut out = Vec::new();
    for (x, scored) in sd.mentions.iter().zip(&sd.scored) {
        let best = scored
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        if let Some(&(ti, score)) = best {
            out.push(Alignment::new(x, &sd.targets[ti], score));
        }
    }
    out
}

/// Random-walk-only baseline: all pairs enter the graph with
/// uniform-weight feature scores; alignment by walk probability alone.
///
/// It reads only the extraction of [`Briq::score_document`] (under an
/// unlimited budget) and never runs the classifier: edge weights come
/// from the uniform feature combination.
pub fn rwr_only(briq: &Briq, doc: &Document) -> Vec<Alignment> {
    use crate::features::{PairFeaturizer, FEATURE_COUNT};
    use crate::pipeline::heuristic_prior_masked;

    let mentions = text_mentions(doc);
    let ctx = DocContext::build(doc, &mentions, &briq.cfg.context);
    let targets = all_table_mentions(&doc.tables, &briq.cfg.virtual_cells);
    // All pairs are candidates (no pruning), scored uniformly. Rows are
    // filled through the precomputed featurizer and masked inside the
    // prior, so no per-pair vector is built.
    let mut featurizer = PairFeaturizer::new(&mentions, &targets, &ctx);
    let mut rows: Vec<f64> = Vec::new();
    let candidates: Vec<Vec<Candidate>> = (0..mentions.len())
        .map(|mi| {
            featurizer.fill_mention_rows(mi, &mut rows);
            rows.chunks_exact(FEATURE_COUNT)
                .enumerate()
                .map(|(ti, row)| {
                    // Sharpen the uniform combination before normalizing
                    // to traversal probabilities: with no pruning the walk
                    // spreads over hundreds of candidates, and a convex
                    // transform keeps plausible matches from being washed
                    // out (the "normalized to graph-traversal
                    // probabilities" step of §VII-D).
                    Candidate {
                        target: ti,
                        score: heuristic_prior_masked(row, &briq.cfg.mask).powi(4),
                    }
                })
                .collect()
        })
        .collect();

    let positions: Vec<usize> = ctx.mentions.iter().map(|m| m.token_index).collect();
    let ag = build_graph(
        &mentions,
        &positions,
        ctx.tokens.len(),
        &targets,
        &candidates,
        &briq.cfg.graph,
    );
    // π only: α = 1, β = 0. With no pruning, π mass spreads over hundreds
    // of candidates, so no absolute acceptance threshold is meaningful —
    // the baseline ranks and always answers (ε = 0).
    let cfg = ResolutionConfig {
        alpha: 1.0,
        beta: 0.0,
        epsilon: 0.0,
        sigma_min: 0.0,
        ..briq.cfg.resolution
    };
    let resolved = resolve(ag, &candidates, &cfg);
    resolved
        .into_iter()
        .map(|r| Alignment::new(&mentions[r.mention], &targets[r.target], r.score))
        .collect()
}

/// QKB baseline (§VII-D): canonicalize both sides through a small quantity
/// knowledge base and align on *exact* entry matches. The paper did not
/// pursue it because coverage is tiny and approximate mentions never match
/// exactly; this implementation exists to demonstrate that quantitatively
/// (see `briq-eval qkb`). Like [`rwr_only`], it reads only extraction,
/// never the classifier.
pub fn qkb_only(briq: &Briq, doc: &Document) -> Vec<Alignment> {
    use briq_text::qkb::{canonicalize, same_entry};

    let targets = all_table_mentions(&doc.tables, &briq.cfg.virtual_cells);
    let mut out = Vec::new();
    for x in &text_mentions(doc) {
        let Some(cx) = canonicalize(&x.quantity) else {
            continue;
        };
        // Exact-match candidates among explicit single cells.
        let matches: Vec<usize> = targets
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_aggregate())
            .filter_map(|(ti, t)| {
                let table = &doc.tables[t.table];
                let (r, c) = t.cells[0];
                let q = table.quantity(r, c)?;
                let ct = canonicalize(q)?;
                same_entry(&cx, &ct).then_some(ti)
            })
            .collect();
        // The QKB has no disambiguation machinery: only an unambiguous
        // exact match produces an alignment.
        if let [ti] = matches[..] {
            out.push(Alignment::new(x, &targets[ti], 1.0));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::BriqConfig;
    use briq_table::Table;

    fn doc() -> Document {
        Document::new(
            0,
            "Depression was reported by 38 patients and rash by 35 patients.",
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

    #[test]
    fn rf_only_outputs_one_alignment_per_mention() {
        let briq = Briq::untrained(BriqConfig::default());
        let out = rf_only(&briq, &doc());
        assert_eq!(out.len(), 2);
        let a38 = out
            .iter()
            .find(|a| a.mention_raw.starts_with("38"))
            .unwrap();
        assert_eq!(a38.target.cells, vec![(2, 1)]);
    }

    #[test]
    fn rwr_only_aligns_unambiguous_values() {
        let briq = Briq::untrained(BriqConfig::default());
        let out = rwr_only(&briq, &doc());
        let a35 = out.iter().find(|a| a.mention_raw.starts_with("35"));
        assert!(
            a35.is_some_and(|a| a.target.cells == vec![(1, 1)]),
            "{out:?}"
        );
    }

    #[test]
    fn empty_doc_yields_nothing() {
        let briq = Briq::untrained(BriqConfig::default());
        let d = Document::new(0, "text without digits", vec![]);
        assert!(rf_only(&briq, &d).is_empty());
        assert!(rwr_only(&briq, &d).is_empty());
        assert!(qkb_only(&briq, &d).is_empty());
    }

    #[test]
    fn qkb_aligns_only_exact_registered_matches() {
        let briq = Briq::untrained(BriqConfig::default());
        let d = Document::new(
            0,
            "The fee is $15 while shipping costs about $5.20 and 37K EUR elsewhere.",
            vec![Table::from_grid(
                "",
                vec![
                    vec!["item".into(), "price".into()],
                    vec!["Fee".into(), "$15".into()],
                    vec!["Shipping".into(), "$5".into()],
                    vec!["Import".into(), "36900 EUR".into()],
                ],
            )],
        );
        let out = qkb_only(&briq, &d);
        // "$15" matches exactly; "$5.20" vs "$5" and "37K" vs 36900 do not.
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].target.cells, vec![(1, 1)]);
    }

    #[test]
    fn qkb_skips_ambiguous_exact_matches() {
        let briq = Briq::untrained(BriqConfig::default());
        let d = Document::new(
            0,
            "A late fee of $50 applies.",
            vec![Table::from_grid(
                "",
                vec![
                    vec!["item".into(), "price".into()],
                    vec!["Wholesale".into(), "$50".into()],
                    vec!["Retail fee".into(), "$50".into()],
                ],
            )],
        );
        assert!(qkb_only(&briq, &d).is_empty());
    }
}
