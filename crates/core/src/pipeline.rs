//! The end-to-end BriQ pipeline (Fig. 2).

use briq_ml::RandomForestConfig;
use briq_table::virtual_cells::{
    all_table_mentions_capped, KindCounts, TableMentions, VirtualCellConfig,
};
use briq_table::{Document, TableError, TableMention};
use briq_text::cues::AggregationKind;

use crate::batch::{align_run, BatchConfig, BatchReport, RunCtx};
use crate::classifier::PairClassifier;
use crate::context::{ContextConfig, DocContext};
use crate::error::{
    BriqError, Budget, CancelCause, CancelToken, DegradedAction, Diagnostics, Stage,
};
use crate::features::{FeatureMask, PairFeaturizer, FEATURE_COUNT};
use crate::filtering::{
    filter_mention, filter_mention_pruned, Candidate, FilterConfig, FilterStats,
};
use crate::graph_builder::{build_graph_budgeted, GraphConfig};
use crate::mention::{text_mentions, Alignment, TextMention};
use crate::obs::{names, Recorder};
use crate::resolution::{resolve_observed, ResolutionConfig, ResolutionEvent};
use crate::retrieval::{CandidateIndex, RetrievalScratch};
use crate::scoring::ScoringEngine;
use crate::span;
use crate::store::{AlignmentStore, Miss};
use crate::tagger::{tagger_features, MentionTagger, TaggerExample};
use crate::training::{
    build_training_examples, examples_to_dataset, tagger_label, LabeledDocument,
};
use std::ops::ControlFlow;

/// Full pipeline configuration.
#[derive(Debug, Clone)]
pub struct BriqConfig {
    /// Context-window parameters (§IV-B).
    pub context: ContextConfig,
    /// Virtual-cell generation (§II-A).
    pub virtual_cells: VirtualCellConfig,
    /// Adaptive filtering (§V).
    pub filter: FilterConfig,
    /// Graph construction (§VI-A).
    pub graph: GraphConfig,
    /// Global resolution (§VI-B).
    pub resolution: ResolutionConfig,
    /// Random-forest settings for the pair classifier.
    pub forest: RandomForestConfig,
    /// Random-forest settings for the tagger.
    pub tagger_forest: RandomForestConfig,
    /// Tagger confidence threshold (§V-A, precision-oriented).
    pub tagger_threshold: f64,
    /// Feature-ablation mask (§VIII-B).
    pub mask: FeatureMask,
    /// Classify through the production path: retrieve each mention's
    /// viable candidates from the per-document
    /// [`crate::retrieval::CandidateIndex`] (DESIGN.md §13) and score
    /// them in the batched [`crate::scoring::ScoringEngine`] (block
    /// scoring, exact bound pruning, §10). `false` selects the classify
    /// reference path: every mention/target pair is scored with
    /// [`briq_ml::FlatForest::score_block`] (or the heuristic prior),
    /// exactly as [`Briq::score_document`] does, then filtered with
    /// [`crate::filtering::filter_mention`] — no retrieval, no pruning.
    /// Output is bit-identical either way.
    pub use_index: bool,
}

impl Default for BriqConfig {
    fn default() -> Self {
        BriqConfig {
            context: ContextConfig::default(),
            virtual_cells: VirtualCellConfig::default(),
            filter: FilterConfig::default(),
            graph: GraphConfig::default(),
            resolution: ResolutionConfig::default(),
            forest: RandomForestConfig::default(),
            tagger_forest: RandomForestConfig {
                n_trees: 32,
                ..Default::default()
            },
            tagger_threshold: 0.6,
            mask: FeatureMask::all(),
            use_index: true,
        }
    }
}

impl BriqConfig {
    /// This configuration with every stage on its reference path:
    /// exhaustive classification (`use_index`) and the dense RWR walk
    /// (`resolution.use_csr`) — the oracle the production path is
    /// byte-compared against (`briq-align --oracle`, which also aligns
    /// with no store).
    pub fn reference(mut self) -> BriqConfig {
        self.use_index = false;
        self.resolution.use_csr = false;
        self
    }
}

/// Per-call options of [`Briq::align_with`]. The default is
/// [`Budget::default`], no recording, no cancellation, and no store.
#[derive(Clone, Copy, Default)]
pub struct AlignOpts<'a> {
    /// Resource limits for this document.
    pub budget: Budget,
    /// Span and metric sink (DESIGN.md §11); `None` records nothing.
    pub recorder: Option<&'a Recorder>,
    /// Cooperative cancellation; `None` never cancels.
    pub cancel: Option<&'a CancelToken>,
    /// Align through this store under this document key (DESIGN.md §15);
    /// `None` is the store's reference path, which reads and writes no
    /// store. Output is bit-identical either way.
    pub store: Option<(&'a AlignmentStore, u64)>,
}

/// Everything one [`Briq::align_with`] call produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AlignOutput {
    /// The resolved alignments.
    pub alignments: Vec<Alignment>,
    /// Every degraded table, mention, or stage, in pipeline order.
    pub diagnostics: Diagnostics,
    /// Per-kind filter totals (Table VI).
    pub stats: FilterStats,
    /// Kept candidates per text mention.
    pub candidates: Vec<Vec<Candidate>>,
}

/// A document prepared for alignment: mentions, context, targets, and the
/// full classifier score matrix. Shared by BriQ and the baselines.
pub struct ScoredDocument {
    /// Extracted text mentions.
    pub mentions: Vec<TextMention>,
    /// Precomputed document context.
    pub ctx: DocContext,
    /// All table mentions (single + virtual cells).
    pub targets: Vec<TableMention>,
    /// Per mention, every `(target index, prior score)` pair.
    pub scored: Vec<Vec<(usize, f64)>>,
    /// Per mention, the tagger's predicted aggregation kinds (empty =
    /// single cell).
    pub tags: Vec<Vec<AggregationKind>>,
}

/// The BriQ system: trained classifier + tagger + configuration.
#[derive(Debug, Clone)]
pub struct Briq {
    /// Configuration in force.
    pub cfg: BriqConfig,
    classifier: Option<PairClassifier>,
    tagger: MentionTagger,
}

/// Uniform-weight combination of the 12 features into a `[0, 1]` score —
/// the prior used before training and by the RWR-only baseline ("these
/// features are combined using uniform weights", §VII-D). Features the
/// mask drops read as 0.0, exactly as if `mask.apply` had zeroed a copy
/// of the row first; [`FeatureMask::all`] reads the row as it is.
pub fn heuristic_prior_masked(f: &[f64], mask: &FeatureMask) -> f64 {
    let g = |i: usize| if mask.keeps(i) { f[i] } else { 0.0 };
    let surface = g(0);
    let ctx = (g(1) + g(2) + g(3) + g(4)) / 4.0;
    let value = 1.0 - g(5).min(1.0);
    let value_raw = 1.0 - g(6).min(1.0);
    let unit = (3.0 - g(7)) / 3.0;
    let scale = (1.0 - g(8) / 4.0).max(0.0);
    let precision = (1.0 - g(9) / 4.0).max(0.0);
    let agg = (3.0 - g(11)) / 3.0;
    ((surface + ctx + value + value_raw + unit + scale + precision + agg) / 8.0).clamp(0.0, 1.0)
}

impl Briq {
    /// A BriQ instance without a trained classifier: the heuristic prior
    /// replaces the Random Forest and a lexical tagger replaces the
    /// trained one. Useful for exploration and doc examples.
    pub fn untrained(cfg: BriqConfig) -> Briq {
        let tagger = MentionTagger::lexical(cfg.tagger_threshold);
        Briq {
            cfg,
            classifier: None,
            tagger,
        }
    }

    /// Train the classifier on `train_docs` and the tagger on
    /// `tagger_docs` (the paper withholds a separate small set for the
    /// tagger, §V-A).
    pub fn train(
        cfg: BriqConfig,
        train_docs: &[LabeledDocument],
        tagger_docs: &[LabeledDocument],
    ) -> Briq {
        let (examples, _) = build_training_examples(train_docs, &cfg.virtual_cells, &cfg.context);
        let classifier =
            PairClassifier::train(&examples_to_dataset(&examples), cfg.forest, cfg.mask);
        let tagger = Self::train_tagger(&cfg, tagger_docs);
        Briq {
            cfg,
            classifier: Some(classifier),
            tagger,
        }
    }

    /// Train and then tune the resolution hyper-parameters (α/β mix and
    /// acceptance threshold ε of Eq. 1) by grid search on the validation
    /// documents (§VII-C: "we use grid search to choose the best values
    /// for the hyper-parameters, for the classifiers as well as for the
    /// graph-based algorithm"). Returns the tuned system and the selected
    /// parameters' validation F1.
    pub fn train_tuned(
        cfg: BriqConfig,
        train_docs: &[LabeledDocument],
        validation_docs: &[LabeledDocument],
    ) -> (Briq, f64) {
        let mut briq = Self::train(cfg, train_docs, validation_docs);

        let alphas = [0.3, 0.5, 0.7];
        let epsilons = [0.05, 0.12, 0.2];
        let sigma_mins = [0.0, 0.1, 0.25];
        let mut grid: Vec<(f64, f64, f64)> = Vec::new();
        for &a in &alphas {
            for &e in &epsilons {
                for &m in &sigma_mins {
                    grid.push((a, e, m));
                }
            }
        }

        let f1_of = |briq: &Briq| {
            let mut report = crate::evaluate::EvalReport::default();
            for ld in validation_docs {
                report.add_document(&briq.align(&ld.document), &ld.gold);
            }
            report.overall().f1
        };

        let best = briq_ml::gridsearch::grid_search(&grid, |&(alpha, epsilon, sigma_min)| {
            let mut candidate = briq.clone();
            candidate.cfg.resolution.alpha = alpha;
            candidate.cfg.resolution.beta = 1.0 - alpha;
            candidate.cfg.resolution.epsilon = epsilon;
            candidate.cfg.resolution.sigma_min = sigma_min;
            f1_of(&candidate)
        });
        if let Some((i, f1)) = best {
            let (alpha, epsilon, sigma_min) = grid[i];
            briq.cfg.resolution.alpha = alpha;
            briq.cfg.resolution.beta = 1.0 - alpha;
            briq.cfg.resolution.epsilon = epsilon;
            briq.cfg.resolution.sigma_min = sigma_min;
            (briq, f1)
        } else {
            let f1 = f1_of(&briq);
            (briq, f1)
        }
    }

    fn train_tagger(cfg: &BriqConfig, docs: &[LabeledDocument]) -> MentionTagger {
        let mut examples = Vec::new();
        for ld in docs {
            let mentions = text_mentions(&ld.document);
            if mentions.is_empty() {
                continue;
            }
            let ctx = DocContext::build(&ld.document, &mentions, &cfg.context);
            for x in &mentions {
                let gold = ld
                    .gold
                    .iter()
                    .find(|g| x.quantity.start < g.mention_end && g.mention_start < x.quantity.end);
                let Some(g) = gold else { continue };
                examples.push(TaggerExample {
                    features: tagger_features(x, &ctx, &ld.document),
                    label: tagger_label(g.kind),
                });
            }
        }
        if examples.is_empty() {
            MentionTagger::lexical(cfg.tagger_threshold)
        } else {
            MentionTagger::train(&examples, cfg.tagger_forest, cfg.tagger_threshold)
        }
    }

    /// Is a trained classifier in force?
    pub fn is_trained(&self) -> bool {
        self.classifier.is_some()
    }

    /// Serialize the whole system (configuration, classifier forest,
    /// tagger forests) to JSON for later reuse.
    pub fn to_json(&self) -> briq_json::Result<String> {
        Ok(briq_json::to_string(self))
    }

    /// Restore a system saved with [`Briq::to_json`].
    pub fn from_json(s: &str) -> briq_json::Result<Briq> {
        briq_json::from_str(s)
    }

    /// Prior score of a feature vector (trained RF or heuristic). Both
    /// paths honour the ablation mask without copying the row, so scoring
    /// a pair performs no heap allocation.
    pub fn prior(&self, features: &[f64]) -> f64 {
        match &self.classifier {
            Some(c) => c.score(features),
            None => heuristic_prior_masked(features, &self.cfg.mask),
        }
    }

    /// Stage 1+2: extract mentions/targets and score every pair.
    pub fn score_document(&self, doc: &Document) -> ScoredDocument {
        self.score_document_budgeted(doc, &Budget::unlimited()).0
    }

    /// Budgeted stage 1+2 with per-table fault isolation: degenerate
    /// tables are skipped (with a diagnostic), and virtual-cell
    /// generation for each table is truncated at the budget instead of
    /// exploding quadratically. An unlimited budget is bit-identical to
    /// [`Briq::score_document`].
    pub fn score_document_budgeted(
        &self,
        doc: &Document,
        budget: &Budget,
    ) -> (ScoredDocument, Diagnostics) {
        let x = self.extract(doc, budget, false);
        let scored = self.classify_stage(&x);
        (
            ScoredDocument {
                mentions: x.mentions,
                ctx: x.ctx,
                targets: x.targets,
                scored,
                tags: x.tags,
            },
            x.diags,
        )
    }

    /// Stage 1: text mentions, the document context with its per-table
    /// contexts, and each mention's tags; then the (budget-capped)
    /// targets with their degenerate-table and budget-truncation
    /// diagnostics (DESIGN.md §13).
    ///
    /// With `tagged_only`, the aggregates of a kind no mention is tagged
    /// with are counted instead of built: filtering can never keep them,
    /// so the production path needs only their per-kind counts, which
    /// keep Table VI whole. They still take their places against
    /// `max_virtual_cells_per_table` in the full generation order, so the
    /// targets are the every-kind list minus the untagged kinds, in the
    /// same order, with the same truncated tables.
    fn extract(&self, doc: &Document, budget: &Budget, tagged_only: bool) -> Extracted {
        let mentions = text_mentions(doc);
        let ctx = DocContext::build(doc, &mentions, &self.cfg.context);
        // The tagger reads only the text half and the tables' single
        // cells, so tagging needs no virtual cell.
        let tags: Vec<Vec<AggregationKind>> = mentions
            .iter()
            .enumerate()
            .map(|(mi, x)| self.mention_tags(x, mi, &ctx, doc))
            .collect();
        let mut diags = Diagnostics::default();
        for (i, t) in doc.tables.iter().enumerate() {
            if t.data_rows().is_empty() || t.data_cols().is_empty() {
                diags.record(
                    Stage::Extraction,
                    format!("table {i}"),
                    &BriqError::Table(TableError::DegenerateTable { table: i }),
                    DegradedAction::Skipped,
                );
            }
        }

        let live: Vec<AggregationKind> = if tagged_only {
            AggregationKind::ALL
                .into_iter()
                .filter(|k| tags.iter().any(|t| t.contains(k)))
                .collect()
        } else {
            AggregationKind::ALL.to_vec()
        };
        let TableMentions {
            targets,
            truncated_tables,
            ungenerated,
        } = all_table_mentions_capped(
            &doc.tables,
            &self.cfg.virtual_cells,
            budget.max_virtual_cells_per_table,
            &live,
        );
        for &t in &truncated_tables {
            diags.record(
                Stage::VirtualCells,
                format!("table {t}"),
                &BriqError::Table(TableError::VirtualCellBudgetExceeded {
                    table: t,
                    max_cells: budget.max_virtual_cells_per_table,
                }),
                DegradedAction::Truncated,
            );
        }
        Extracted {
            mentions,
            ctx,
            tags,
            targets,
            ungenerated,
            diags,
        }
    }

    /// Stage 2: score every mention/target pair.
    ///
    /// The hot loop: invariants are hoisted into a [`PairFeaturizer`]
    /// built once per document, each mention's candidate rows are written
    /// into one reused flat feature matrix, and [`Briq::prior`] scores
    /// each row in place — no allocation per pair.
    fn classify_stage(&self, x: &Extracted) -> Vec<Vec<(usize, f64)>> {
        let mut featurizer = PairFeaturizer::new(&x.mentions, &x.targets, &x.ctx);
        let mut rows: Vec<f64> = Vec::new();
        let mut block_out: Vec<f64> = Vec::new();
        (0..x.mentions.len())
            .map(|mi| self.score_mention_exhaustive(&mut featurizer, mi, &mut rows, &mut block_out))
            .collect()
    }

    /// The aggregation kinds predicted for mention `x` (index `mi` in
    /// `ctx.mentions`): the tagger's, plus the extended lexical tags when
    /// `virtual_cells.extended` is set. Extraction tags every mention
    /// once, for generation and for filtering.
    fn mention_tags(
        &self,
        x: &TextMention,
        mi: usize,
        ctx: &DocContext,
        doc: &Document,
    ) -> Vec<AggregationKind> {
        let mut tags = self.tagger.tags(&tagger_features(x, ctx, doc));
        if self.cfg.virtual_cells.extended {
            tags.extend(crate::tagger::extended_lexical_tags(
                &ctx.mentions[mi].immediate_words,
            ));
        }
        tags
    }

    /// Score every target for mention `mi`: fill the mention's full
    /// feature matrix into `rows`, then score it block-wise through the
    /// flat forest (trees outer, rows inner — bit-identical to
    /// [`Briq::prior`] per row) or with the heuristic prior. The
    /// exhaustive reference scorer shared by [`Briq::score_document`] and
    /// the `use_index: false` alignment path; `rows` and `block_out` are
    /// caller-owned scratch reused across mentions.
    fn score_mention_exhaustive(
        &self,
        featurizer: &mut PairFeaturizer,
        mi: usize,
        rows: &mut Vec<f64>,
        block_out: &mut Vec<f64>,
    ) -> Vec<(usize, f64)> {
        featurizer.fill_mention_rows(mi, rows);
        match &self.classifier {
            Some(clf) => {
                block_out.clear();
                block_out.resize(rows.len() / FEATURE_COUNT, 0.0);
                clf.flat().score_block(rows, FEATURE_COUNT, block_out);
                block_out.iter().copied().enumerate().collect()
            }
            None => rows
                .chunks_exact(FEATURE_COUNT)
                .enumerate()
                .map(|(ti, row)| (ti, heuristic_prior_masked(row, &self.cfg.mask)))
                .collect(),
        }
    }

    /// Stage 3: adaptive filtering of a scored document.
    pub fn filter(&self, sd: &ScoredDocument) -> (Vec<Vec<Candidate>>, FilterStats) {
        let mut stats = FilterStats::default();
        let candidates = sd
            .mentions
            .iter()
            .zip(&sd.scored)
            .zip(&sd.tags)
            .map(|((x, scored), tags)| {
                filter_mention(x, scored, &sd.targets, tags, &self.cfg.filter, &mut stats)
            })
            .collect();
        (candidates, stats)
    }

    /// Full pipeline: align a document's text mentions to table mentions,
    /// unbudgeted.
    pub fn align(&self, doc: &Document) -> Vec<Alignment> {
        let opts = AlignOpts {
            budget: Budget::unlimited(),
            ..AlignOpts::default()
        };
        self.align_with(doc, &opts).alignments
    }

    /// Panic-free alignment under the default [`Budget`]: every degraded
    /// table, mention, or stage is isolated and reported in the returned
    /// [`Diagnostics`] instead of hanging or aborting the document. On
    /// documents that stay within budget the alignments are bit-identical
    /// to [`Briq::align`].
    pub fn align_checked(&self, doc: &Document) -> (Vec<Alignment>, Diagnostics) {
        let out = self.align_with(doc, &AlignOpts::default());
        (out.alignments, out.diagnostics)
    }

    /// Align every document of `docs` on
    /// `cfg.effective_jobs(docs.len())` worker threads of a work-stealing
    /// pool — see [`crate::batch`] for the engine and its determinism and
    /// isolation contract.
    pub fn align_batch(&self, docs: &[Document], cfg: &BatchConfig) -> BatchReport {
        align_run(self, docs, cfg, RunCtx::default())
    }

    /// [`Briq::align_batch`] against a shared [`AlignmentStore`]: one
    /// store serves every worker (its map is mutex-guarded; its counters
    /// are atomics), and each document is keyed by `keys[i]` — or its
    /// batch index when `keys` is `None`. Output stays input-order
    /// deterministic and bit-identical to [`Briq::align_batch`] for every
    /// cache state: the store only ever changes which work is *skipped*,
    /// never what a document's output is (see [`crate::store`]).
    pub fn align_batch_stored(
        &self,
        docs: &[Document],
        cfg: &BatchConfig,
        store: &AlignmentStore,
        keys: Option<&[u64]>,
    ) -> BatchReport {
        debug_assert!(keys.is_none_or(|k| k.len() == docs.len()));
        let run = RunCtx {
            store: Some(store),
            keys,
            cancel: None,
        };
        align_run(self, docs, cfg, run)
    }

    /// Align `doc` under `opts` — the one entry point behind every other
    /// alignment method, the batch engine, and the server.
    ///
    /// * **Budget** — degraded work is reported in
    ///   [`AlignOutput::diagnostics`]; within budget, output is
    ///   bit-identical to an unlimited run.
    /// * **Recorder** — spans for every pipeline stage plus the
    ///   DESIGN.md §11 counters and histograms. It only *observes*:
    ///   output is bit-identical with it enabled, disabled, or absent.
    /// * **Cancel** — polled at every stage boundary and once per mention
    ///   inside the classification and resolution loops. When it fires
    ///   the call returns **no partial state**: no alignments or
    ///   candidates, plus exactly one [`DegradedAction::Cancelled`]
    ///   diagnostic naming the stage that observed it (diagnostics
    ///   recorded before the cut are kept: they describe work that really
    ///   happened). Cancelled runs are never cached.
    /// * **Store** — when one is passed, the store is a lookup and an
    ///   insert around the one stage sequence: extraction asks
    ///   `AlignmentStore::lookup` first, which serves an unchanged
    ///   document whole; any other document runs every stage in full
    ///   and is cached by `AlignmentStore::insert`, which keeps only its
    ///   fingerprints, counts and outputs (a durable store writes exactly
    ///   those as its record, and recovery reads them back record by
    ///   record). Alignments, diagnostics, filter totals, and
    ///   candidates are bit-identical to the storeless run for every
    ///   cache state — a hit serves only outputs whose inputs
    ///   fingerprint-match — and so are the recorded spans of every
    ///   document the store does not serve whole.
    pub fn align_with(&self, doc: &Document, opts: &AlignOpts) -> AlignOutput {
        let off = Recorder::disabled();
        let never = CancelToken::none();
        let rec = opts.recorder.unwrap_or(&off);
        let cancel = opts.cancel.unwrap_or(&never);
        let (ControlFlow::Continue(out) | ControlFlow::Break(out)) =
            self.run_stages(doc, &opts.budget, opts.store, rec, cancel);
        out
    }

    /// The stage sequence behind [`Briq::align_with`]: extraction, then
    /// classify through resolution, then the store's insert when the
    /// lookup missed. `Break` is a finished document that must not be
    /// cached: a full hit or a cancellation.
    fn run_stages(
        &self,
        doc: &Document,
        budget: &Budget,
        store: Option<(&AlignmentStore, u64)>,
        rec: &Recorder,
        cancel: &CancelToken,
    ) -> ControlFlow<AlignOutput, AlignOutput> {
        let (miss, x) = self.extract_stage(doc, budget, store, rec, cancel)?;
        let out = self.classify_resolve_stage(&x, budget, rec, cancel)?;
        if let (Some((store, key)), Some(miss)) = (store, miss) {
            let (mentions, targets) = (x.mentions.len() as u64, x.targets.len() as u64);
            store.insert(key, miss, mentions, targets, &out, rec);
        }
        ControlFlow::Continue(out)
    }

    /// Stage 1 under the `extract` span, then the `mentions`/`targets`
    /// counts. With a store, its lookup runs first, inside the span
    /// (DESIGN.md §15): a full hit ends the document (`Break`), and a
    /// miss hands back what the insert needs.
    fn extract_stage(
        &self,
        doc: &Document,
        budget: &Budget,
        store: Option<(&AlignmentStore, u64)>,
        rec: &Recorder,
        cancel: &CancelToken,
    ) -> ControlFlow<AlignOutput, (Option<Miss>, Extracted)> {
        if let Some(cause) = cancel.cause() {
            let diags = Diagnostics::default();
            return ControlFlow::Break(cancelled_result(Stage::Extraction, cause, diags, rec));
        }
        let (miss, x) = {
            let _g = span!(rec, names::SPAN_EXTRACT);
            let miss = match store {
                Some((store, key)) => Some(store.lookup(key, doc, budget, rec)?),
                None => None,
            };
            (miss, self.extract(doc, budget, self.cfg.use_index))
        };
        rec.count(names::MENTIONS, x.mentions.len() as u64);
        rec.count(names::TARGETS, x.targets.len() as u64);
        ControlFlow::Continue((miss, x))
    }

    /// Stages 2–5. Classify + filter each mention through one
    /// [`ClassifyPass`] — retrieval + batched engine + pruned filtering in
    /// production, exhaustive scoring + [`filter_mention`] on the
    /// `use_index: false` reference path, byte-identical by the engine's
    /// exactness contract and the index's recall contract. Then budgeted
    /// graph construction and global resolution.
    ///
    /// [`Briq::score_document`] deliberately does NOT use the production
    /// path: its consumers (baselines, training, evaluation) read the
    /// full score matrix, which pruning by design does not materialize.
    fn classify_resolve_stage(
        &self,
        x: &Extracted,
        budget: &Budget,
        rec: &Recorder,
        cancel: &CancelToken,
    ) -> ControlFlow<AlignOutput, AlignOutput> {
        let mut diags = x.diags.clone();
        let mut pass = ClassifyPass {
            briq: self,
            x,
            built: None,
        };
        let mut stats = FilterStats::default();
        let mut candidates = Vec::with_capacity(x.mentions.len());
        for mi in 0..x.mentions.len() {
            if let Some(cause) = cancel.cause() {
                let out = cancelled_result(Stage::Classification, cause, diags, rec);
                return ControlFlow::Break(out);
            }
            candidates.push(pass.run_mention(mi, &mut stats, rec));
        }
        pass.finish(rec);
        stats.record_into(rec);
        rec.count(
            names::PAIRS_SCORED,
            (x.mentions.len() * x.targets.len()) as u64,
        );

        if let Some(cause) = cancel.cause() {
            let out = cancelled_result(Stage::GraphConstruction, cause, diags, rec);
            return ControlFlow::Break(out);
        }
        let graph = span!(rec, names::SPAN_GRAPH);
        let positions: Vec<usize> = x.ctx.mentions.iter().map(|m| m.token_index).collect();
        let (ag, edges_truncated) = build_graph_budgeted(
            &x.mentions,
            &positions,
            x.ctx.tokens.len(),
            &x.targets,
            &candidates,
            &self.cfg.graph,
            budget.max_graph_edges,
        );
        if edges_truncated {
            diags.record(
                Stage::GraphConstruction,
                "document".into(),
                &BriqError::EdgeBudgetExceeded {
                    max_edges: budget.max_graph_edges,
                },
                DegradedAction::Truncated,
            );
        }
        drop(graph);
        // The resolve span also covers event handling and emission.
        let resolve = span!(rec, names::SPAN_RESOLVE);
        let (resolved, events) =
            resolve_observed(ag, &candidates, &self.cfg.resolution, rec, cancel);
        if let Some(&ResolutionEvent::Cancelled { cause }) = events.first() {
            return ControlFlow::Break(cancelled_result(Stage::Resolution, cause, diags, rec));
        }
        for ev in events {
            match ev {
                // Handled above: a cancelled resolution emits exactly one
                // event and no resolutions.
                ResolutionEvent::Cancelled { .. } => {}
                ResolutionEvent::NotConverged { mention, report } => diags.record(
                    Stage::Resolution,
                    format!("mention {mention}"),
                    &BriqError::RwrNotConverged {
                        mention,
                        iterations: report.iterations,
                        residual: report.residual,
                    },
                    DegradedAction::Truncated,
                ),
                ResolutionEvent::PriorFallback { mention, error } => diags.record(
                    Stage::Resolution,
                    format!("mention {mention}"),
                    &BriqError::Graph(error),
                    DegradedAction::Fallback,
                ),
            }
        }
        let alignments: Vec<Alignment> = resolved
            .into_iter()
            .map(|r| Alignment::new(&x.mentions[r.mention], &x.targets[r.target], r.score))
            .collect();
        drop(resolve);
        rec.count(names::ALIGNMENTS, alignments.len() as u64);
        rec.count(
            names::BUDGET_EXHAUSTIONS,
            diags
                .items
                .iter()
                .filter(|d| d.action == DegradedAction::Truncated)
                .count() as u64,
        );
        ControlFlow::Continue(AlignOutput {
            alignments,
            diagnostics: diags,
            stats,
            candidates,
        })
    }
}

/// What stage 1 produced for one document.
pub(crate) struct Extracted {
    /// Extracted text mentions.
    pub(crate) mentions: Vec<TextMention>,
    /// Document context, table contexts included.
    pub(crate) ctx: DocContext,
    /// Per mention, its predicted aggregation kinds.
    pub(crate) tags: Vec<Vec<AggregationKind>>,
    /// The table mentions: single cells plus the capped virtual cells of
    /// every kind, or on the production path of the tagged kinds only.
    pub(crate) targets: Vec<TableMention>,
    /// Per kind, the virtual cells counted but not built.
    pub(crate) ungenerated: KindCounts,
    /// Extraction diagnostics: degenerate and truncated tables.
    pub(crate) diags: Diagnostics,
}

/// The classify+filter stage as a per-mention unit: one instance per
/// document, run by [`Briq::classify_resolve_stage`] on each mention in
/// order. The featurizer and the scorer's index and buffers are built
/// once, at the first mention, and shared across `run_mention` calls.
struct ClassifyPass<'a> {
    briq: &'a Briq,
    x: &'a Extracted,
    /// The featurizer and scorer, once the first `run_mention` built them.
    built: Option<(PairFeaturizer<'a>, Scorer)>,
}

/// How a [`ClassifyPass`] scores a mention's pairs, selected by
/// `cfg.use_index`.
// One per document, on the stack; boxing the production variant would
// only add an allocation per document.
#[allow(clippy::large_enum_variant)]
enum Scorer {
    /// Production: retrieve the viable candidates, then score them in the
    /// batched engine (block scoring, exact bound pruning).
    Indexed {
        index: CandidateIndex,
        engine: ScoringEngine,
        scratch: RetrievalScratch,
    },
    /// Reference: score every pair with [`Briq::score_mention_exhaustive`]
    /// (scratch rows and block output reused across mentions).
    Exhaustive { rows: Vec<f64>, block_out: Vec<f64> },
}

impl<'a> ClassifyPass<'a> {
    /// Build the per-document machinery: the featurizer and, in
    /// production, the retrieval index (built once per document;
    /// retrieval per mention is then allocation-free and bounded by the
    /// viable candidate set).
    fn build(briq: &Briq, x: &'a Extracted) -> (PairFeaturizer<'a>, Scorer) {
        let featurizer = PairFeaturizer::new(&x.mentions, &x.targets, &x.ctx);
        let scorer = if briq.cfg.use_index {
            let mut index = CandidateIndex::build(&x.targets, briq.cfg.filter.value_diff_threshold);
            index.count_ungenerated(&x.ungenerated);
            Scorer::Indexed {
                index,
                engine: ScoringEngine::new(),
                scratch: RetrievalScratch::default(),
            }
        } else {
            Scorer::Exhaustive {
                rows: Vec::new(),
                block_out: Vec::new(),
            }
        };
        (featurizer, scorer)
    }

    /// Classify + filter one mention: returns its kept candidates and
    /// adds its filter counts (plus, in production, its retrieval-dropped
    /// counts) to the document totals in `stats`. The first call builds
    /// the pass under its `classify` span, so the stage is charged for
    /// that build.
    fn run_mention(
        &mut self,
        mi: usize,
        stats: &mut FilterStats,
        rec: &Recorder,
    ) -> Vec<Candidate> {
        let (briq, x) = (self.briq, self.x);
        let m = &x.mentions[mi];
        // The reference path's full score row for this mention.
        let mut exhaustive = Vec::new();
        let classify = span!(rec, names::SPAN_CLASSIFY, mention = mi);
        let (featurizer, scorer) = self.built.get_or_insert_with(|| Self::build(briq, x));
        let tags = &x.tags[mi];
        match scorer {
            Scorer::Indexed {
                index,
                engine,
                scratch,
            } => {
                index.retrieve(m.quantity.value, m.quantity.unit, tags, scratch);
                engine.fill_rows_selected(featurizer, mi, &scratch.near, &scratch.far);
                match &briq.classifier {
                    Some(clf) => {
                        engine.score_trained_selected(m, &x.targets, tags, clf, &briq.cfg.filter)
                    }
                    None => engine.score_heuristic_selected(&briq.cfg.mask),
                }
                // Keep Table-VI totals identical to the oracle's.
                index.record_dropped(scratch, stats);
                let retrieved = scratch.retrieved() as u64;
                rec.count(names::RETRIEVAL_CANDIDATES, retrieved);
                rec.count(
                    names::RETRIEVAL_PAIRS_DROPPED,
                    x.targets.len() as u64 - retrieved,
                );
                rec.observe(names::RETRIEVAL_CANDIDATES_PER_MENTION, retrieved as f64);
            }
            Scorer::Exhaustive { rows, block_out } => {
                exhaustive = briq.score_mention_exhaustive(featurizer, mi, rows, block_out);
            }
        }
        drop(classify);
        let _filter = span!(rec, names::SPAN_FILTER, mention = mi);
        let cfg = &briq.cfg.filter;
        match scorer {
            Scorer::Indexed { engine, .. } => filter_mention_pruned(
                m,
                engine.computed(),
                engine.pruned_targets(),
                &x.targets,
                tags,
                cfg,
                stats,
            ),
            Scorer::Exhaustive { .. } => {
                filter_mention(m, &exhaustive, &x.targets, tags, cfg, stats)
            }
        }
    }

    /// Flush the engine's whole-document counters.
    fn finish(self, rec: &Recorder) {
        if let Some((_, Scorer::Indexed { engine, .. })) = self.built {
            engine.record_into(rec);
        }
    }
}

/// Shared early-return shape for a cancelled request: no alignments, no
/// candidates, previously recorded diagnostics kept, plus exactly one
/// [`DegradedAction::Cancelled`] entry naming the stage that observed the
/// token. Discarding the stage outputs wholesale is what "no partial
/// state" means — a cancelled response can never leak a half-resolved
/// alignment set.
fn cancelled_result(
    stage: Stage,
    cause: CancelCause,
    mut diags: Diagnostics,
    rec: &Recorder,
) -> AlignOutput {
    diags.record(
        stage,
        "document".into(),
        &BriqError::Cancelled { stage, cause },
        DegradedAction::Cancelled,
    );
    rec.count(names::CANCELLATIONS, 1);
    AlignOutput {
        diagnostics: diags,
        ..AlignOutput::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use briq_table::Table;

    fn health_doc() -> Document {
        Document::new(
            0,
            "A total of 123 patients reported side effects; depression was \
             the most common, reported by 38 patients, and eye disorders \
             the least common, reported by 5 patients.",
            vec![Table::from_grid(
                "",
                vec![
                    vec![
                        "side effects".into(),
                        "male".into(),
                        "female".into(),
                        "total".into(),
                    ],
                    vec!["Rash".into(), "15".into(), "20".into(), "35".into()],
                    vec!["Depression".into(), "13".into(), "25".into(), "38".into()],
                    vec!["Hypertension".into(), "19".into(), "15".into(), "34".into()],
                    vec!["Nausea".into(), "5".into(), "6".into(), "11".into()],
                    vec!["Eye Disorders".into(), "2".into(), "3".into(), "5".into()],
                ],
            )],
        )
    }

    #[test]
    fn untrained_pipeline_aligns_fig1a() {
        let briq = Briq::untrained(BriqConfig::default());
        let doc = health_doc();
        let alignments = briq.align(&doc);
        assert!(!alignments.is_empty());
        // "38" should go to the Depression row's total cell (2,3).
        let a38 = alignments
            .iter()
            .find(|a| a.mention_raw.starts_with("38"))
            .expect("38 aligned");
        assert_eq!(a38.target.cells, vec![(2, 3)]);
        // "total of 123" should map to the sum of the total column.
        let a123 = alignments.iter().find(|a| a.mention_raw.starts_with("123"));
        if let Some(a) = a123 {
            assert!(a.target.is_aggregate(), "{a:?}");
            assert_eq!(a.target.value, 123.0);
        }
    }

    #[test]
    fn score_document_shapes() {
        let briq = Briq::untrained(BriqConfig::default());
        let sd = briq.score_document(&health_doc());
        assert_eq!(sd.mentions.len(), sd.scored.len());
        assert_eq!(sd.mentions.len(), sd.tags.len());
        assert!(!sd.targets.is_empty());
        for row in &sd.scored {
            assert_eq!(row.len(), sd.targets.len());
            for &(_, s) in row {
                assert!((0.0..=1.0).contains(&s));
            }
        }
    }

    #[test]
    fn filtering_reduces_candidates() {
        let briq = Briq::untrained(BriqConfig::default());
        let sd = briq.score_document(&health_doc());
        let (candidates, stats) = briq.filter(&sd);
        let total_pairs: usize = sd.scored.iter().map(Vec::len).sum();
        let kept: usize = candidates.iter().map(Vec::len).sum();
        assert!(kept < total_pairs / 2, "kept {kept} of {total_pairs}");
        assert!(stats.overall_selectivity() < 0.5);
    }

    #[test]
    fn empty_document_no_alignments() {
        let briq = Briq::untrained(BriqConfig::default());
        let doc = Document::new(0, "no numbers here at all", vec![]);
        assert!(briq.align(&doc).is_empty());
    }

    #[test]
    fn align_checked_matches_align_on_clean_input() {
        let briq = Briq::untrained(BriqConfig::default());
        let doc = health_doc();
        let plain = briq.align(&doc);
        let (checked, diags) = briq.align_checked(&doc);
        assert_eq!(plain, checked);
        assert!(diags.is_clean(), "{diags:?}");
    }

    #[test]
    fn tight_budgets_degrade_with_diagnostics_not_panics() {
        let mut cfg = BriqConfig::default();
        cfg.resolution.max_iterations = 1;
        let briq = Briq::untrained(cfg);
        let doc = health_doc();
        let budget = crate::error::Budget {
            max_virtual_cells_per_table: 3,
            max_graph_edges: 2,
        };
        let out = briq.align_with(
            &doc,
            &AlignOpts {
                budget,
                ..AlignOpts::default()
            },
        );
        let (alignments, diags) = (out.alignments, out.diagnostics);
        assert!(!diags.is_clean());
        let stages: Vec<Stage> = diags.items.iter().map(|d| d.stage).collect();
        assert!(stages.contains(&Stage::VirtualCells), "{diags:?}");
        assert!(stages.contains(&Stage::GraphConstruction), "{diags:?}");
        // Budget enforcement: no more virtual-cell targets than allowed.
        let (sd, _) = briq.score_document_budgeted(&doc, &budget);
        let virtuals = sd
            .targets
            .iter()
            .filter(|t| t.kind != briq_table::TableMentionKind::SingleCell)
            .count();
        assert!(virtuals <= budget.max_virtual_cells_per_table);
        // Degraded mode still returns (possibly empty) alignments.
        let _ = alignments;
    }

    #[test]
    fn degenerate_tables_are_skipped_with_diagnostics() {
        let briq = Briq::untrained(BriqConfig::default());
        let doc = Document::new(
            0,
            "There were 38 patients in total.",
            vec![Table::from_grid("", Vec::new())],
        );
        let (_, diags) = briq.align_checked(&doc);
        assert!(
            diags.items.iter().any(|d| d.stage == Stage::Extraction
                && d.action == crate::error::DegradedAction::Skipped),
            "{diags:?}"
        );
    }

    #[test]
    fn production_extraction_builds_only_the_tagged_kinds() {
        let briq = Briq::untrained(BriqConfig::default());
        let doc = health_doc();
        let capped = Budget {
            max_virtual_cells_per_table: 40,
            ..Budget::unlimited()
        };
        for budget in [Budget::unlimited(), capped] {
            let every = briq.extract(&doc, &budget, false);
            let live = briq.extract(&doc, &budget, true);
            assert_eq!(live.tags, every.tags);
            let tagged = |k| every.tags.iter().any(|t| t.contains(&k));
            let mut ungenerated = KindCounts::default();
            let want: Vec<TableMention> = every
                .targets
                .iter()
                .filter(|t| match t.aggregation() {
                    Some(k) if !tagged(k) => {
                        ungenerated[k.index()] += 1;
                        false
                    }
                    _ => true,
                })
                .cloned()
                .collect();
            assert!(want.len() < every.targets.len(), "no untagged kind");
            assert_eq!(live.targets, want, "the reference minus untagged kinds");
            assert_eq!(live.ungenerated, ungenerated);
            assert_eq!(every.ungenerated, KindCounts::default());
            assert_eq!(live.diags.to_jsonl(), every.diags.to_jsonl());
            let truncated = budget.max_virtual_cells_per_table == 40;
            assert_eq!(live.diags.is_clean(), !truncated, "{:?}", live.diags);
        }
    }

    #[test]
    fn heuristic_prior_ranges() {
        let perfect = vec![1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let terrible = vec![0.0, 0.0, 0.0, 0.0, 0.0, 2.0, 2.0, 3.0, 6.0, 4.0, 0.0, 3.0];
        let all = FeatureMask::all();
        assert!(heuristic_prior_masked(&perfect, &all) > 0.9);
        assert!(heuristic_prior_masked(&terrible, &all) < 0.2);
        assert!(heuristic_prior_masked(&perfect, &all) <= 1.0);
        assert!(heuristic_prior_masked(&terrible, &all) >= 0.0);
    }

    #[test]
    fn train_tuned_selects_valid_parameters() {
        let doc = health_doc();
        let s38 = doc.text.find("38").unwrap();
        let gold = vec![crate::mention::GoldAlignment {
            mention_start: s38,
            mention_end: s38 + 2,
            table: 0,
            kind: briq_table::TableMentionKind::SingleCell,
            cells: vec![(2, 3)],
        }];
        let ld = LabeledDocument {
            document: doc,
            gold,
        };
        let mut cfg = BriqConfig::default();
        cfg.forest.n_trees = 16;
        cfg.tagger_forest.n_trees = 8;
        let (briq, f1) =
            Briq::train_tuned(cfg, std::slice::from_ref(&ld), std::slice::from_ref(&ld));
        assert!(briq.cfg.resolution.alpha + briq.cfg.resolution.beta > 0.99);
        assert!((0.0..=1.0).contains(&f1));
    }

    #[test]
    fn trained_pipeline_runs() {
        // Minimal training corpus from the health example itself.
        let doc = health_doc();
        let s38 = doc.text.find("38").unwrap();
        let gold = vec![crate::mention::GoldAlignment {
            mention_start: s38,
            mention_end: s38 + 2,
            table: 0,
            kind: briq_table::TableMentionKind::SingleCell,
            cells: vec![(2, 3)],
        }];
        let ld = LabeledDocument {
            document: doc.clone(),
            gold,
        };
        let briq = Briq::train(
            BriqConfig::default(),
            std::slice::from_ref(&ld),
            std::slice::from_ref(&ld),
        );
        assert!(briq.is_trained());
        let alignments = briq.align(&doc);
        // The trained system still produces alignments on its train doc.
        assert!(!alignments.is_empty());
    }
}

briq_json::json_struct!(BriqConfig {
    context,
    virtual_cells,
    filter,
    graph,
    resolution,
    forest,
    tagger_forest,
    tagger_threshold,
    mask,
    use_index
});
briq_json::json_struct!(Briq {
    cfg,
    classifier,
    tagger
});
