//! Top-level corpus generation.

use briq_core::training::LabeledDocument;
use briq_table::Document;
use rand::prelude::*;
use rand::rngs::StdRng;

use crate::domain::Domain;
use crate::tablegen::{generate_table, GeneratedTable, TableGenConfig};
use crate::textgen::{render_document, MentionPlan, TextGenConfig};

/// Relative frequency of each mention plan, matching the type skew of
/// Table I (single-cell dominates; percent/ratio rare) plus distractors.
#[derive(Debug, Clone, Copy)]
pub struct MentionWeights {
    /// Single-cell references.
    pub single: f64,
    /// Column sums.
    pub sum: f64,
    /// Same-row differences.
    pub diff: f64,
    /// Same-column percentages.
    pub percent: f64,
    /// Same-row change ratios.
    pub ratio: f64,
    /// Numbers referring to no table.
    pub distractor: f64,
    /// Ranking references ("the highest …"), resolved by min/max virtual
    /// cells — the extended aggregate set (0 in the paper-aligned default;
    /// used by the `briq-eval extended` experiment).
    pub ranking: f64,
}

impl Default for MentionWeights {
    fn default() -> Self {
        // gold-type proportions ≈ Table I; ~19% unalignable mentions
        MentionWeights {
            single: 0.68,
            sum: 0.046,
            diff: 0.024,
            percent: 0.021,
            ratio: 0.025,
            distractor: 0.204,
            ranking: 0.0,
        }
    }
}

/// Corpus-level configuration. Difficulty knobs are fixed once for all
/// experiments (DESIGN.md substitution table).
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Number of documents to generate.
    pub n_documents: usize,
    /// RNG seed (full determinism).
    pub seed: u64,
    /// Table-generation knobs.
    pub tablegen: TableGenConfig,
    /// Text-rendering knobs.
    pub textgen: TextGenConfig,
    /// Mention-plan weights.
    pub weights: MentionWeights,
    /// Inclusive range of mentions per document (paper: ≈4.7 average).
    pub mentions_per_doc: (usize, usize),
    /// Probability a document carries two related tables (Fig. 3).
    pub two_table_rate: f64,
    /// Domain mix (must cover all domains; weights normalized).
    pub domain_weights: [(Domain, f64); 6],
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            n_documents: 400,
            seed: 20190408, // ICDE 2019 opening day
            tablegen: TableGenConfig::default(),
            textgen: TextGenConfig::default(),
            weights: MentionWeights::default(),
            mentions_per_doc: (3, 7),
            two_table_rate: 0.5,
            domain_weights: [
                (Domain::Environment, 0.10),
                (Domain::Finance, 0.25),
                (Domain::Health, 0.12),
                (Domain::Politics, 0.15),
                (Domain::Sports, 0.18),
                (Domain::Others, 0.20),
            ],
        }
    }
}

impl CorpusConfig {
    /// A smaller preset for unit/integration tests.
    pub fn small(seed: u64) -> Self {
        CorpusConfig {
            n_documents: 60,
            seed,
            ..Default::default()
        }
    }
}

/// A generated corpus: labeled documents plus their domains.
#[derive(Debug, Clone)]
pub struct GeneratedCorpus {
    /// The labeled documents.
    pub documents: Vec<LabeledDocument>,
    /// Domain of each document (parallel to `documents`).
    pub domains: Vec<Domain>,
}

fn pick_domain(weights: &[(Domain, f64); 6], rng: &mut impl Rng) -> Domain {
    let total: f64 = weights.iter().map(|&(_, w)| w).sum();
    let mut roll = rng.random_range(0.0..total);
    for &(d, w) in weights {
        if roll < w {
            return d;
        }
        roll -= w;
    }
    weights[5].0
}

/// Generate a full corpus.
pub fn generate_corpus(cfg: &CorpusConfig) -> GeneratedCorpus {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut documents = Vec::with_capacity(cfg.n_documents);
    let mut domains = Vec::with_capacity(cfg.n_documents);

    for id in 0..cfg.n_documents {
        let domain = pick_domain(&cfg.domain_weights, &mut rng);
        let base = generate_table(domain, &cfg.tablegen, &mut rng);
        let gen_tables: Vec<GeneratedTable> = if rng.random_bool(cfg.two_table_rate) {
            // Twin tables share structure and collide on values (Fig. 3).
            let twin = crate::tablegen::twin_table(&base, &cfg.tablegen, &mut rng);
            vec![base, twin]
        } else {
            vec![base]
        };

        let n_mentions = rng.random_range(cfg.mentions_per_doc.0..=cfg.mentions_per_doc.1);
        let plans: Vec<MentionPlan> = (0..n_mentions)
            .map(|_| sample_plan(&gen_tables, &cfg.weights, &mut rng))
            .collect();

        let (text, gold) = render_document(domain, &gen_tables, &plans, &cfg.textgen, &mut rng);
        let tables = gen_tables.into_iter().map(|g| g.table).collect();
        documents.push(LabeledDocument {
            document: Document::new(id, text, tables),
            gold,
        });
        domains.push(domain);
    }
    GeneratedCorpus { documents, domains }
}

/// Sample one mention plan, falling back to single-cell (or distractor)
/// when the table cannot support the rolled aggregate.
fn sample_plan(tables: &[GeneratedTable], w: &MentionWeights, rng: &mut impl Rng) -> MentionPlan {
    let table = rng.random_range(0..tables.len());
    let g = &tables[table];
    let total = w.single + w.sum + w.diff + w.percent + w.ratio + w.distractor + w.ranking;
    let mut roll = rng.random_range(0.0..total);

    let single = |g: &GeneratedTable, rng: &mut dyn RngCore| MentionPlan::Single {
        table,
        row: rng.random_range(0..g.n_rows()),
        col: rng.random_range(0..g.n_cols()),
    };

    if roll < w.single {
        return single(g, rng);
    }
    roll -= w.single;

    let agg_cols = g.aggregatable_cols();
    if roll < w.sum {
        if !agg_cols.is_empty() && g.n_rows() >= 2 {
            let col = agg_cols[rng.random_range(0..agg_cols.len())];
            return MentionPlan::Sum { table, col };
        }
        return single(g, rng);
    }
    roll -= w.sum;

    // same-kind column pairs for diff/ratio; the parsed cell units must
    // also agree (e.g. "Emission (g/km)" and "Range (km)" share a value
    // kind but carry different measures, so no pair virtual cell exists)
    let unit_of = |c: usize| {
        let (gr, gc) = g.grid_pos(0, c);
        g.table
            .quantity(gr, gc)
            .map(|q| q.unit)
            .unwrap_or(briq_text::units::Unit::None)
    };
    let kind_pair = || -> Option<(usize, usize)> {
        for a in 0..g.n_cols() {
            for b in (a + 1)..g.n_cols() {
                let units_ok = {
                    let (ua, ub) = (unit_of(a), unit_of(b));
                    ua == briq_text::units::Unit::None
                        || ub == briq_text::units::Unit::None
                        || ua.matches(ub)
                };
                if g.kinds[a] == g.kinds[b]
                    && units_ok
                    && agg_cols.contains(&a)
                    && agg_cols.contains(&b)
                {
                    return Some((a, b));
                }
            }
        }
        None
    };

    if roll < w.diff {
        if let Some((a, b)) = kind_pair() {
            let row = rng.random_range(0..g.n_rows());
            if g.values[row][a] != g.values[row][b] {
                return MentionPlan::Diff {
                    table,
                    row,
                    col_a: a,
                    col_b: b,
                };
            }
        }
        return single(g, rng);
    }
    roll -= w.diff;

    if roll < w.percent {
        if g.n_rows() >= 2 && !agg_cols.is_empty() {
            let col = agg_cols[rng.random_range(0..agg_cols.len())];
            let row_num = rng.random_range(0..g.n_rows());
            let mut row_den = rng.random_range(0..g.n_rows());
            if row_den == row_num {
                row_den = (row_den + 1) % g.n_rows();
            }
            if g.values[row_den][col] != 0.0 {
                return MentionPlan::Percent {
                    table,
                    col,
                    row_num,
                    row_den,
                };
            }
        }
        return single(g, rng);
    }
    roll -= w.percent;

    if roll < w.ratio {
        if let Some((a, b)) = kind_pair() {
            let row = rng.random_range(0..g.n_rows());
            if g.values[row][a] != 0.0 && g.values[row][a] != g.values[row][b] {
                return MentionPlan::Ratio {
                    table,
                    row,
                    col_new: a,
                    col_old: b,
                };
            }
        }
        return single(g, rng);
    }
    roll -= w.ratio;

    if roll < w.distractor {
        return MentionPlan::Distractor;
    }

    // ranking (extended aggregates)
    if !agg_cols.is_empty() && g.n_rows() >= 2 {
        let col = agg_cols[rng.random_range(0..agg_cols.len())];
        return MentionPlan::Ranking {
            table,
            col,
            maximum: rng.random_bool(0.5),
        };
    }
    single(g, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use briq_table::TableMentionKind;

    #[test]
    fn corpus_is_deterministic() {
        let a = generate_corpus(&CorpusConfig::small(1));
        let b = generate_corpus(&CorpusConfig::small(1));
        assert_eq!(a.documents.len(), b.documents.len());
        for (x, y) in a.documents.iter().zip(&b.documents) {
            assert_eq!(x.document.text, y.document.text);
            assert_eq!(x.gold, y.gold);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_corpus(&CorpusConfig::small(1));
        let b = generate_corpus(&CorpusConfig::small(2));
        assert_ne!(a.documents[0].document.text, b.documents[0].document.text);
    }

    #[test]
    fn every_document_has_tables_and_text() {
        let c = generate_corpus(&CorpusConfig::small(3));
        assert_eq!(c.documents.len(), 60);
        for (ld, domain) in c.documents.iter().zip(&c.domains) {
            assert!(!ld.document.text.is_empty());
            assert!(!ld.document.tables.is_empty());
            assert!(Domain::ALL.contains(domain));
        }
    }

    #[test]
    fn gold_targets_exist_in_generated_virtual_cells() {
        use briq_core::training::matches_target;
        use briq_table::virtual_cells::{all_table_mentions, VirtualCellConfig};
        let c = generate_corpus(&CorpusConfig::small(4));
        let mut checked = 0;
        for ld in &c.documents {
            let targets = all_table_mentions(&ld.document.tables, &VirtualCellConfig::default());
            for g in &ld.gold {
                let found = targets.iter().any(|t| matches_target(g, t));
                assert!(
                    found,
                    "gold {:?} has no generated target in doc {:?}",
                    g, ld.document.id
                );
                checked += 1;
            }
        }
        assert!(checked > 100, "expected plenty of gold, got {checked}");
    }

    #[test]
    fn type_mix_roughly_matches_table_i() {
        let cfg = CorpusConfig {
            n_documents: 300,
            ..CorpusConfig::default()
        };
        let c = generate_corpus(&cfg);
        let total = c.documents.iter().map(|d| d.gold.len()).sum::<usize>() as f64;
        let count = |k: &str| {
            c.documents
                .iter()
                .flat_map(|d| &d.gold)
                .filter(|g| g.kind.name() == k)
                .count() as f64
        };
        let single = count("single-cell") / total;
        assert!(single > 0.75 && single < 0.95, "single fraction {single}");
        for k in ["sum", "diff", "percent", "ratio"] {
            let f = count(k) / total;
            assert!(f > 0.005 && f < 0.12, "{k} fraction {f}");
        }
    }

    #[test]
    fn aggregates_present_in_gold() {
        // A `tableS`-scale corpus (§VII-A: 495 pages → 1 598 documents).
        let c = generate_corpus(&CorpusConfig {
            n_documents: 1598,
            seed: 5,
            ..CorpusConfig::default()
        });
        let kinds: std::collections::BTreeSet<String> = c
            .documents
            .iter()
            .flat_map(|d| &d.gold)
            .map(|g| g.kind.name().to_string())
            .collect();
        for k in ["single-cell", "sum", "diff", "percent", "ratio"] {
            assert!(kinds.contains(k), "missing kind {k}: {kinds:?}");
        }
        // no extended aggregates in gold
        assert!(!kinds.contains("avg"));
    }

    #[test]
    fn two_table_documents_occur() {
        let c = generate_corpus(&CorpusConfig::small(6));
        assert!(c.documents.iter().any(|d| d.document.tables.len() == 2));
    }

    #[test]
    fn gold_spans_inside_text() {
        let c = generate_corpus(&CorpusConfig::small(7));
        for ld in &c.documents {
            for g in &ld.gold {
                assert!(g.mention_end <= ld.document.text.len());
                assert!(g.mention_start < g.mention_end);
                let _ = g.kind == TableMentionKind::SingleCell;
            }
        }
    }
}
