//! Observability: hierarchical spans, a metrics registry, and exporters
//! (DESIGN.md §11).
//!
//! Three pieces, all std-only:
//!
//! * **Spans** — a [`Recorder`] collects a per-document trace tree of
//!   named, wall-clocked spans via RAII guards (`span!(rec, "classify",
//!   mention = mi)`). Recorders are strictly per-worker (one per document
//!   on the batch pool, one per align request in the server), so
//!   recording is lock-free; a traced batch keeps the finished
//!   [`DocTrace`]s in input order, which makes the trace's *structure*
//!   deterministic for every worker count.
//! * **Metrics** — a [`MetricsRegistry`] of named monotonic counters and
//!   base-2 log-scale [`Histogram`]s. Every span close also feeds a
//!   `span_<name>_s` latency histogram, so per-stage latency
//!   distributions come for free. A stage records its time and work
//!   only here: the batch engine derives its
//!   [`stage_totals`](crate::batch::BatchReport::stage_totals) from the
//!   merged registry, and filtering records its totals through
//!   [`FilterStats::record_into`](crate::filtering::FilterStats::record_into).
//! * **Exporters** — [`MetricsRegistry::to_jsonl`] (one JSON object per
//!   metric), [`chrome_trace_json`] (a Chrome `trace_event` file loadable
//!   in `chrome://tracing` or <https://ui.perfetto.dev>), and
//!   [`MetricsRegistry::summary_table`] (plain text for terminals).
//!
//! ## The disabled path
//!
//! [`Recorder::disabled`] is the default of
//! [`AlignOpts`](crate::pipeline::AlignOpts), training, and evaluation;
//! only the two drivers — the batch engine and the server — record every
//! document into an enabled recorder. A disabled recorder holds no
//! buffer at all (`inner: None`), so every instrumentation call is one
//! branch and zero allocation. Recording only observes: alignments are
//! byte-identical with it on or off, and CI's determinism stage
//! byte-compares traced, untraced, and reference runs to hold that
//! contract on real output.
//!
//! ## Canonical metric names
//!
//! Stable names live in [`names`]; DESIGN.md §11 documents every name,
//! its unit, and the stage that emits it. Use the constants, not string
//! literals, so the docs and the code cannot drift apart.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use briq_json::Value;

/// Canonical metric and span names (DESIGN.md §11 is the reference).
pub mod names {
    /// Counter: mention/target pairs entering the classify stage, over
    /// the targets extraction generated (on the production path, the
    /// tagged aggregate kinds only).
    pub const PAIRS_SCORED: &str = "pairs_scored";
    /// Retired counter name: the scoring engine's unique-row dedup
    /// cache is gone and nothing emits `rows_deduped` any more. The
    /// name stays only because the `briq-perf` benchmark still reads it
    /// (its `scoring.rows_deduped_ratio` now reads 0).
    pub const ROWS_DEDUPED: &str = "rows_deduped";
    /// Counter: pairs whose forest traversal an exact score bound cut
    /// short (their filtering outcome needed no computed score).
    pub const PAIRS_PRUNED: &str = "pairs_pruned";
    /// Counter: candidate pairs surfaced by the retrieval index
    /// (`crate::retrieval`); absent on exhaustive (`use_index: false`)
    /// runs, as are the engine counters above and below.
    pub const RETRIEVAL_CANDIDATES: &str = "retrieval_candidates";
    /// Counter: generated pairs the retrieval index proved non-viable
    /// and never featurized or scored.
    pub const RETRIEVAL_PAIRS_DROPPED: &str = "retrieval_pairs_dropped";
    /// Histogram: retrieved candidate-set size per mention (unit:
    /// pairs).
    pub const RETRIEVAL_CANDIDATES_PER_MENTION: &str = "retrieval_candidates_per_mention";
    /// Counter: rows fully scored in the engine's exhaustive phase A.
    pub const ROWS_SCORED_EXHAUSTIVE: &str = "rows_scored_exhaustive";
    /// Counter: deferred rows fully scored by the bounded phase-B kernel
    /// (their bound never proved them prunable).
    pub const ROWS_SCORED_BOUNDED: &str = "rows_scored_bounded";
    /// Counter: text mentions extracted.
    pub const MENTIONS: &str = "mentions";
    /// Counter: table mentions (single + virtual cells) generated.
    pub const TARGETS: &str = "targets";
    /// Counter: candidate pairs surviving adaptive filtering.
    pub const CANDIDATES_KEPT: &str = "candidates_kept";
    /// Counter prefix: pairs seen by filtering, per target kind
    /// (`filter_total.<kind>`).
    pub const FILTER_TOTAL_PREFIX: &str = "filter_total.";
    /// Counter prefix: pairs kept by filtering, per target kind
    /// (`filter_kept.<kind>`).
    pub const FILTER_KEPT_PREFIX: &str = "filter_kept.";
    /// Counter: random walks attempted during resolution.
    pub const RWR_WALKS: &str = "rwr_walks";
    /// Counter: walks that failed outright and fell back to prior-score
    /// ranking.
    pub const RWR_FALLBACKS: &str = "rwr_fallbacks";
    /// Counter: walks that stopped at the iteration cap unconverged.
    pub const RWR_NOT_CONVERGED: &str = "rwr_not_converged";
    /// Histogram: power iterations per random walk (unit: iterations).
    pub const RWR_ITERATIONS: &str = "rwr_iterations";
    /// Counter: total power-iteration matvec passes executed by the
    /// resolution walk kernel (each iteration is one sparse or dense
    /// matvec over the whole graph). Comparable across the CSR fast
    /// path and the `use_csr: false` dense reference — the kernels iterate
    /// in lockstep by the bit-equality contract (DESIGN.md §14).
    pub const RWR_MATVEC_ITERATIONS: &str = "rwr_matvec_iterations";
    /// Counter: structural non-zero slots of the CSR graph frozen for
    /// resolution (directed half-edges; weight-zeroed slots still
    /// count). Absent on `use_csr: false` runs.
    pub const CSR_NNZ: &str = "csr_nnz";
    /// Counter: alignments emitted.
    pub const ALIGNMENTS: &str = "alignments";
    /// Counter: diagnostics whose degraded action was `Truncated` — a
    /// [`Budget`](crate::error::Budget) cap was hit somewhere.
    pub const BUDGET_EXHAUSTIONS: &str = "budget_exhaustions";
    /// Counter: documents processed (batch level; a served request's
    /// page is a batch too).
    pub const DOCUMENTS: &str = "documents";
    /// Counter: documents that degraded somewhere (batch level).
    pub const DEGRADED_DOCUMENTS: &str = "degraded_documents";
    /// Counter: requests/documents cancelled cooperatively (deadline or
    /// shutdown drain) with all partial work discarded.
    pub const CANCELLATIONS: &str = "cancellations";

    /// Counter: documents served verbatim from the alignment store
    /// (full fingerprint hit — classify/filter/resolve skipped).
    pub const STORE_HITS: &str = "store_hits";
    /// Counter: store entries found but invalidated by a fingerprint
    /// change and replaced by a re-alignment.
    pub const STORE_INVALIDATIONS: &str = "store_invalidations";
    /// Counter: mentions aligned again through the store path: every
    /// mention of each document the store did not serve whole (changed
    /// and cold documents alike).
    pub const MENTIONS_REALIGNED: &str = "mentions_realigned";
    /// Histogram: high-water estimated resident bytes of the alignment
    /// store, observed after each insertion (unit: bytes).
    pub const STORE_BYTES_PEAK: &str = "store_bytes_peak";
    /// Counter: store entries evicted to stay under the configured
    /// memory budget (LRU order; see DESIGN.md §16).
    pub const STORE_EVICTIONS: &str = "store_evictions";
    /// Counter: store entries recovered from the on-disk snapshot +
    /// novelty log when a persistent store was opened.
    pub const STORE_RECOVERED_ENTRIES: &str = "store_recovered_entries";
    /// Histogram: size in bytes of the persistent store's novelty log,
    /// observed after each append (unit: bytes).
    pub const STORE_LOG_BYTES: &str = "store_log_bytes";
    /// Histogram: size in bytes of the persistent store's current
    /// compacted snapshot (unit: bytes).
    pub const STORE_SNAPSHOT_BYTES: &str = "store_snapshot_bytes";
    /// Counter: compacting snapshots written by the persistent store
    /// (threshold-triggered plus explicit drain/warm-up snapshots).
    pub const STORE_COMPACTIONS: &str = "store_compactions";
    /// Counter: novelty-log appends and log-triggered compactions of the
    /// persistent store that failed. Each costs durability, never
    /// output; the in-memory entry is kept.
    pub const STORE_PERSIST_ERRORS: &str = "store_persist_errors";

    /// Counter: align requests `briq-serve` received, sheds included:
    /// each is either shed (`serve_shed`) or admitted and answered.
    pub const SERVE_REQUESTS: &str = "serve_requests";
    /// Counter: align requests shed by admission control (queue full or
    /// draining) with a structured `shed` response.
    pub const SERVE_SHED: &str = "serve_shed";
    /// Counter: served documents whose request's wall-clock deadline
    /// passed before or during their alignment: `Cancelled` diagnostics
    /// outside a drain.
    pub const SERVE_DEADLINE_MISSES: &str = "serve_deadline_misses";
    /// Counter: request lines that were not valid JSON objects.
    pub const SERVE_MALFORMED: &str = "serve_malformed";
    /// Counter: request lines larger than the configured byte cap; the
    /// connection is closed after a structured error response.
    pub const SERVE_OVERSIZED: &str = "serve_oversized";
    /// Counter: documents whose alignment panicked; isolated to a
    /// `WorkerPanicked` diagnostic, the server keeps serving.
    pub const SERVE_PANICS: &str = "serve_panics";
    /// Counter: connections accepted.
    pub const SERVE_CONNECTIONS: &str = "serve_connections";
    /// Counter: connections refused at the connection cap.
    pub const SERVE_CONNECTIONS_REFUSED: &str = "serve_connections_refused";
    /// Counter: response writes that failed (client gone / write timeout).
    pub const SERVE_WRITE_ERRORS: &str = "serve_write_errors";
    /// Counter: admitted requests that completed with degradation
    /// diagnostics (the exit-code-2 analogue on the wire).
    pub const SERVE_DEGRADED: &str = "serve_degraded";
    /// Histogram: align requests waiting for a slot, observed at each
    /// admission with the admitted request counted (0 when it runs at
    /// once).
    pub const SERVE_QUEUE_DEPTH: &str = "serve_queue_depth";
    /// Histogram: seconds a request waited for a slot after admission.
    pub const SERVE_QUEUE_WAIT_S: &str = "serve_queue_wait_s";
    /// Histogram: seconds per admitted request from the start of its
    /// alignment to its response.
    pub const SERVE_REQUEST_S: &str = "serve_request_s";

    /// Counter: labeled training examples built (positives + negatives).
    pub const TRAIN_EXAMPLES_BUILT: &str = "train_examples_built";
    /// Counter: positive training examples built.
    pub const TRAIN_POSITIVES: &str = "train_positives";
    /// Counter: synthetic corpus documents generated.
    pub const CORPUS_DOCUMENTS: &str = "corpus_documents";
    /// Counter: tables across the generated corpus.
    pub const CORPUS_TABLES: &str = "corpus_tables";
    /// Counter: gold alignments across the generated corpus.
    pub const CORPUS_GOLD: &str = "corpus_gold_alignments";
    /// Counter: documents evaluated by `briq-eval`.
    pub const EVAL_DOCUMENTS: &str = "eval_documents";

    /// Span: one whole document through the alignment pipeline.
    pub const SPAN_ALIGN: &str = "align";
    /// Span: mention extraction, context building, virtual cells.
    pub const SPAN_EXTRACT: &str = "extract";
    /// Span: classifier scoring of one mention's candidate rows.
    pub const SPAN_CLASSIFY: &str = "classify";
    /// Span: adaptive filtering of one mention's scored candidates.
    pub const SPAN_FILTER: &str = "filter";
    /// Span: candidate alignment-graph construction.
    pub const SPAN_GRAPH: &str = "graph";
    /// Span: entropy-ordered random-walk resolution.
    pub const SPAN_RESOLVE: &str = "resolve";
    /// Span: whole training run (examples + forest + tagger).
    pub const SPAN_TRAIN: &str = "train";
    /// Span: training-example construction (§VII-B sampling).
    pub const SPAN_TRAIN_EXAMPLES: &str = "train_examples";
    /// Span: pair-classifier forest training.
    pub const SPAN_TRAIN_FOREST: &str = "train_forest";
    /// Span: mention-tagger training.
    pub const SPAN_TRAIN_TAGGER: &str = "train_tagger";
    /// Span: synthetic corpus generation.
    pub const SPAN_GEN_CORPUS: &str = "gen_corpus";
    /// Span: one evaluation pass over a document set.
    pub const SPAN_EVAL: &str = "evaluate";

    /// The latency histogram fed automatically when a span named `name`
    /// closes: `span_<name>_s` (unit: seconds).
    pub fn span_histogram(name: &str) -> String {
        format!("span_{name}_s")
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Number of base-2 log-scale buckets per histogram.
const HIST_BUCKETS: usize = 96;
/// Exponent of the lower bound of bucket 1 (bucket 0 additionally absorbs
/// zero and sub-range values): bucket `i >= 1` covers
/// `[2^(MIN_EXP+i-1), 2^(MIN_EXP+i))`.
const HIST_MIN_EXP: i32 = -40;

/// A base-2 log-scale histogram: 96 buckets spanning roughly `1e-12` to
/// `4e16`, enough for latencies in seconds on one end and iteration or
/// pair counts on the other. Observation is O(1); merging is bucket-wise
/// addition, so merged results are independent of merge order.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    /// Finite observations (non-finite ones count toward `count` and
    /// bucket 0 only).
    finite: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: vec![0; HIST_BUCKETS],
            count: 0,
            finite: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

/// Bucket index of a value: 0 for non-positive or sub-range values, else
/// the clamped floor of its base-2 exponent.
fn bucket_index(v: f64) -> usize {
    if !v.is_finite() || v <= 0.0 {
        return 0;
    }
    let e = v.log2().floor() as i32;
    (e - HIST_MIN_EXP + 1).clamp(0, HIST_BUCKETS as i32 - 1) as usize
}

/// Lower bound of bucket `i` (0 for the catch-all bucket 0).
fn bucket_lo(i: usize) -> f64 {
    if i == 0 {
        0.0
    } else {
        2f64.powi(HIST_MIN_EXP + i as i32 - 1)
    }
}

/// Exclusive upper bound of bucket `i`.
fn bucket_hi(i: usize) -> f64 {
    2f64.powi(HIST_MIN_EXP + i as i32)
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&mut self, v: f64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        if v.is_finite() {
            self.finite += 1;
            self.sum += v;
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all finite observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest finite observation (`NaN` when none is finite).
    pub fn min(&self) -> f64 {
        if self.finite == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest finite observation (`NaN` when none is finite).
    pub fn max(&self) -> f64 {
        if self.finite == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Mean of all finite observations (`NaN` when none is finite).
    pub fn mean(&self) -> f64 {
        if self.finite == 0 {
            f64::NAN
        } else {
            self.sum / self.finite as f64
        }
    }

    /// Approximate quantile `q` in `[0, 1]`: the geometric midpoint of
    /// the first bucket whose cumulative count reaches `q · count`,
    /// clamped to the observed finite `[min, max]` (`NaN` when no
    /// observation is finite). Resolution is one octave — good enough to
    /// tell a 2 ms stage from a 200 ms one, which is what the log-scale
    /// layout buys for O(1) memory.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.finite == 0 {
            return f64::NAN;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum as f64 >= target {
                let lo = bucket_lo(i);
                let hi = bucket_hi(i);
                let mid = if lo > 0.0 { (lo * hi).sqrt() } else { hi / 2.0 };
                return mid.clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    /// Merge another histogram into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.finite += other.finite;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(lower bound, upper bound, count)` triples,
    /// in ascending value order.
    pub fn nonzero_buckets(&self) -> Vec<(f64, f64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (bucket_lo(i), bucket_hi(i), n))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// Named monotonic counters and log-scale histograms. Keys are ordered
/// (`BTreeMap`), so every export is deterministic given the same inputs;
/// merging is commutative addition, so batch-level registries do not
/// depend on worker scheduling.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `n` to counter `name`. The counter materializes on first
    /// call even when `n` is zero, so headline counters that happen to
    /// be zero on a run (`pairs_pruned` on an untrained system,
    /// `budget_exhaustions` on a clean one) still show up in exports as
    /// an explicit `0` instead of silently missing.
    pub fn count(&mut self, name: &str, n: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += n,
            None => {
                self.counters.insert(name.to_string(), n);
            }
        }
    }

    /// Record one observation into histogram `name`.
    pub fn observe(&mut self, name: &str, v: f64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.observe(v),
            None => {
                let mut h = Histogram::default();
                h.observe(v);
                self.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// Current value of a counter (zero if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A histogram by name, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Merge another registry into this one (counters add, histograms
    /// merge bucket-wise).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, &v) in &other.counters {
            self.count(k, v);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
    }

    /// Serialize as JSON Lines: one compact object per metric, counters
    /// first, then histograms, each group in name order. Histogram lines
    /// carry the summary statistics plus every non-empty bucket as
    /// `[lo, hi, count]`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let obj = Value::Object(vec![
                ("type".into(), Value::Str("counter".into())),
                ("name".into(), Value::Str(name.clone())),
                ("value".into(), Value::Num(*v as f64)),
            ]);
            out.push_str(&obj.to_string_compact());
            out.push('\n');
        }
        for (name, h) in &self.histograms {
            let buckets = Value::Array(
                h.nonzero_buckets()
                    .into_iter()
                    .map(|(lo, hi, n)| {
                        Value::Array(vec![Value::Num(lo), Value::Num(hi), Value::Num(n as f64)])
                    })
                    .collect(),
            );
            let obj = Value::Object(vec![
                ("type".into(), Value::Str("histogram".into())),
                ("name".into(), Value::Str(name.clone())),
                ("count".into(), Value::Num(h.count() as f64)),
                ("sum".into(), Value::Num(h.sum())),
                ("min".into(), Value::Num(h.min())),
                ("max".into(), Value::Num(h.max())),
                ("mean".into(), Value::Num(h.mean())),
                ("p50".into(), Value::Num(h.quantile(0.50))),
                ("p90".into(), Value::Num(h.quantile(0.90))),
                ("p99".into(), Value::Num(h.quantile(0.99))),
                ("buckets".into(), buckets),
            ]);
            out.push_str(&obj.to_string_compact());
            out.push('\n');
        }
        out
    }

    /// Plain-text summary: a counter table and a histogram table, for
    /// operators without a trace viewer at hand.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            let _ = writeln!(out, "{:<32} {:>14}", "counter", "value");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "{name:<32} {v:>14}");
            }
        }
        if !self.histograms.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            let _ = writeln!(
                out,
                "{:<24} {:>8} {:>11} {:>11} {:>11} {:>11}",
                "histogram", "count", "mean", "p50", "p99", "max"
            );
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "{:<24} {:>8} {:>11.4e} {:>11.4e} {:>11.4e} {:>11.4e}",
                    name,
                    h.count(),
                    h.mean(),
                    h.quantile(0.50),
                    h.quantile(0.99),
                    h.max()
                );
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Spans and the recorder
// ---------------------------------------------------------------------------

/// One closed span of the trace tree: what ran, under which parent, when
/// (relative to the recorder's epoch), and for how long.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name (one of the `SPAN_*` constants in [`names`]).
    pub name: &'static str,
    /// Index of the enclosing span within the same trace, if any.
    pub parent: Option<usize>,
    /// Static integer arguments (`span!(rec, "classify", mention = mi)`).
    pub args: Vec<(&'static str, i64)>,
    /// Start, in microseconds since the recorder's epoch.
    pub start_us: u64,
    /// Duration in microseconds (0 until the span closes).
    pub dur_us: u64,
}

/// The finished, plain-data trace of one document: the span tree (in
/// span-open order, parents before children) plus everything counted or
/// observed while the recorder was live.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DocTrace {
    /// Closed spans, in open order.
    pub spans: Vec<SpanRecord>,
    /// Counters and histograms recorded alongside the spans.
    pub metrics: MetricsRegistry,
}

/// Timing-free shape of one span as reported by [`DocTrace::structure`]:
/// `(depth, name, args)`.
pub type SpanShape = (usize, &'static str, Vec<(&'static str, i64)>);

impl DocTrace {
    /// The timing-free shape of the span tree: `(depth, name, args)` per
    /// span, in open order. Two runs of the same document must produce
    /// equal structures regardless of worker count or wall-clock — the
    /// determinism tests compare exactly this.
    pub fn structure(&self) -> Vec<SpanShape> {
        self.spans
            .iter()
            .map(|s| {
                let mut depth = 0;
                let mut p = s.parent;
                while let Some(i) = p {
                    depth += 1;
                    p = self.spans[i].parent;
                }
                (depth, s.name, s.args.clone())
            })
            .collect()
    }
}

struct Inner {
    epoch: Instant,
    spans: Vec<SpanRecord>,
    stack: Vec<usize>,
    metrics: MetricsRegistry,
}

/// Per-worker span and metrics recorder.
///
/// A recorder is either *disabled* — the default on every public
/// alignment entry point — or *enabled*. Disabled recorders hold no
/// buffer: every call is one branch and performs no allocation, so the
/// instrumented pipeline costs nothing when nobody is watching. Enabled
/// recorders buffer locally (interior mutability, single-threaded by
/// construction: one recorder per document per worker) and surrender
/// their data through [`Recorder::finish`].
pub struct Recorder {
    inner: Option<RefCell<Inner>>,
}

impl Recorder {
    /// The no-op recorder: one branch per call, zero allocation.
    pub const fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// A live recorder whose span timestamps are relative to `now`.
    pub fn enabled() -> Recorder {
        Recorder::enabled_at(Instant::now())
    }

    /// A live recorder with an explicit epoch — the batch engine passes
    /// its batch-start instant so every document's spans share one
    /// timeline in the exported trace.
    pub fn enabled_at(epoch: Instant) -> Recorder {
        Recorder {
            inner: Some(RefCell::new(Inner {
                epoch,
                spans: Vec::new(),
                stack: Vec::new(),
                metrics: MetricsRegistry::new(),
            })),
        }
    }

    /// Is this recorder collecting anything?
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a span; it closes (and records its duration) when the
    /// returned guard drops. Prefer the [`span!`](crate::span) macro,
    /// which also attaches arguments.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.span_with(name, &[])
    }

    /// Open a span with static integer arguments.
    pub fn span_with(&self, name: &'static str, args: &[(&'static str, i64)]) -> SpanGuard<'_> {
        let Some(cell) = &self.inner else {
            return SpanGuard { rec: None, idx: 0 };
        };
        let Ok(mut inner) = cell.try_borrow_mut() else {
            return SpanGuard { rec: None, idx: 0 };
        };
        let idx = inner.spans.len();
        let parent = inner.stack.last().copied();
        let start_us = inner.epoch.elapsed().as_micros() as u64;
        inner.spans.push(SpanRecord {
            name,
            parent,
            args: args.to_vec(),
            start_us,
            dur_us: 0,
        });
        inner.stack.push(idx);
        SpanGuard {
            rec: Some(self),
            idx,
        }
    }

    fn exit(&self, idx: usize) {
        let Some(cell) = &self.inner else { return };
        let Ok(mut inner) = cell.try_borrow_mut() else {
            return;
        };
        let now_us = inner.epoch.elapsed().as_micros() as u64;
        // Close any children left open by an unwinding panic first.
        while let Some(&top) = inner.stack.last() {
            if top < idx {
                break;
            }
            inner.stack.pop();
            let span = &mut inner.spans[top];
            span.dur_us = now_us.saturating_sub(span.start_us);
            let name = span.name;
            let dur_s = span.dur_us as f64 / 1e6;
            inner.metrics.observe(&names::span_histogram(name), dur_s);
            if top == idx {
                break;
            }
        }
    }

    /// Add `n` to counter `name`.
    pub fn count(&self, name: &str, n: u64) {
        let Some(cell) = &self.inner else { return };
        if let Ok(mut inner) = cell.try_borrow_mut() {
            inner.metrics.count(name, n);
        }
    }

    /// Record one observation into histogram `name`.
    pub fn observe(&self, name: &str, v: f64) {
        let Some(cell) = &self.inner else { return };
        if let Ok(mut inner) = cell.try_borrow_mut() {
            inner.metrics.observe(name, v);
        }
    }

    /// Consume the recorder and return its trace — `None` if it was
    /// disabled. Spans still open (a guard leaked across a panic) are
    /// closed at the current instant.
    pub fn finish(self) -> Option<DocTrace> {
        let cell = self.inner?;
        let mut inner = cell.into_inner();
        let now_us = inner.epoch.elapsed().as_micros() as u64;
        while let Some(top) = inner.stack.pop() {
            let span = &mut inner.spans[top];
            span.dur_us = now_us.saturating_sub(span.start_us);
        }
        Some(DocTrace {
            spans: inner.spans,
            metrics: inner.metrics,
        })
    }
}

/// RAII guard returned by [`Recorder::span`]; records the span's duration
/// when dropped. Dropping out of order (a leaked guard) closes the
/// abandoned children too, so the trace tree stays well-formed.
#[must_use = "a span closes when its guard drops — bind it to a variable"]
pub struct SpanGuard<'a> {
    rec: Option<&'a Recorder>,
    idx: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(rec) = self.rec {
            rec.exit(self.idx);
        }
    }
}

/// Open a hierarchical span on a [`Recorder`](crate::obs::Recorder):
///
/// ```
/// use briq_core::obs::Recorder;
/// use briq_core::span;
/// let rec = Recorder::enabled();
/// {
///     let _g = span!(rec, "classify", mention = 3);
///     // … work measured under the span …
/// }
/// let trace = rec.finish().unwrap();
/// assert_eq!(trace.spans[0].name, "classify");
/// assert_eq!(trace.spans[0].args, vec![("mention", 3)]);
/// ```
///
/// On a disabled recorder this is one branch and no allocation.
#[macro_export]
macro_rules! span {
    ($rec:expr, $name:expr) => {
        $rec.span($name)
    };
    ($rec:expr, $name:expr, $($k:ident = $v:expr),+ $(,)?) => {
        $rec.span_with($name, &[$((stringify!($k), ($v) as i64)),+])
    };
}

// ---------------------------------------------------------------------------
// Chrome trace exporter
// ---------------------------------------------------------------------------

/// Export per-document traces as one Chrome `trace_event` JSON file
/// (loadable in `chrome://tracing` and Perfetto). Each document renders
/// as its own track (`tid` = batch index, labeled `doc <index>`); spans
/// become complete (`"ph": "X"`) events with microsecond timestamps
/// relative to the shared batch epoch. Documents appear in input order,
/// spans in open order, so the file's *structure* is deterministic.
pub fn chrome_trace_json(docs: &[(usize, &DocTrace)]) -> String {
    let mut events: Vec<Value> = Vec::new();
    events.push(Value::Object(vec![
        ("name".into(), Value::Str("process_name".into())),
        ("ph".into(), Value::Str("M".into())),
        ("pid".into(), Value::Num(0.0)),
        ("tid".into(), Value::Num(0.0)),
        (
            "args".into(),
            Value::Object(vec![("name".into(), Value::Str("briq-align".into()))]),
        ),
    ]));
    for &(doc, trace) in docs {
        events.push(Value::Object(vec![
            ("name".into(), Value::Str("thread_name".into())),
            ("ph".into(), Value::Str("M".into())),
            ("pid".into(), Value::Num(0.0)),
            ("tid".into(), Value::Num(doc as f64)),
            (
                "args".into(),
                Value::Object(vec![("name".into(), Value::Str(format!("doc {doc}")))]),
            ),
        ]));
        for span in &trace.spans {
            let mut args: Vec<(String, Value)> = span
                .args
                .iter()
                .map(|&(k, v)| (k.to_string(), Value::Num(v as f64)))
                .collect();
            if !span.args.iter().any(|&(k, _)| k == "doc") {
                args.push(("doc".into(), Value::Num(doc as f64)));
            }
            events.push(Value::Object(vec![
                ("name".into(), Value::Str(span.name.into())),
                ("cat".into(), Value::Str("briq".into())),
                ("ph".into(), Value::Str("X".into())),
                ("ts".into(), Value::Num(span.start_us as f64)),
                ("dur".into(), Value::Num(span.dur_us as f64)),
                ("pid".into(), Value::Num(0.0)),
                ("tid".into(), Value::Num(doc as f64)),
                ("args".into(), Value::Object(args)),
            ]));
        }
    }
    Value::Object(vec![
        ("traceEvents".into(), Value::Array(events)),
        ("displayTimeUnit".into(), Value::Str("ms".into())),
    ])
    .to_string_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_a_noop() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        {
            let _g = span!(rec, "extract");
            rec.count("pairs_scored", 10);
            rec.observe("rwr_iterations", 5.0);
        }
        assert!(rec.finish().is_none());
    }

    #[test]
    fn spans_nest_and_time() {
        let rec = Recorder::enabled();
        {
            let _a = span!(rec, "align", doc = 7);
            {
                let _b = span!(rec, "extract");
            }
            {
                let _c = span!(rec, "classify", mention = 2);
            }
        }
        let t = rec.finish().expect("enabled recorder yields a trace");
        let shape = t.structure();
        assert_eq!(
            shape,
            vec![
                (0, "align", vec![("doc", 7)]),
                (1, "extract", vec![]),
                (1, "classify", vec![("mention", 2)]),
            ]
        );
        // Every closed span got a latency observation.
        for name in ["align", "extract", "classify"] {
            let h = t
                .metrics
                .histogram(&names::span_histogram(name))
                .unwrap_or_else(|| panic!("missing span histogram for {name}"));
            assert_eq!(h.count(), 1);
        }
        // Parent spans fully contain their children.
        let align = &t.spans[0];
        for child in &t.spans[1..] {
            assert!(child.start_us >= align.start_us);
            assert!(child.start_us + child.dur_us <= align.start_us + align.dur_us);
        }
    }

    #[test]
    fn leaked_guard_is_closed_at_finish() {
        let rec = Recorder::enabled();
        let g = span!(rec, "align");
        std::mem::forget(g);
        let t = rec.finish().expect("trace");
        assert_eq!(t.spans.len(), 1);
        // Closed by finish(), not left at zero forever — but a zero
        // duration is still possible on a fast machine, so just check
        // the structure is complete.
        assert_eq!(t.structure(), vec![(0, "align", vec![])]);
    }

    #[test]
    fn out_of_order_drop_closes_children() {
        let rec = Recorder::enabled();
        let a = span!(rec, "align");
        let b = span!(rec, "extract");
        std::mem::forget(b); // child leaked…
        drop(a); // …parent close sweeps it
        let t = rec.finish().expect("trace");
        assert_eq!(t.spans.len(), 2);
        assert_eq!(
            t.metrics
                .histogram(&names::span_histogram("extract"))
                .map(Histogram::count),
            Some(1),
            "leaked child must still be closed and observed"
        );
    }

    #[test]
    fn histogram_buckets_are_log_scale() {
        let mut h = Histogram::default();
        for v in [0.0, 1e-9, 0.001, 0.002, 0.5, 1.0, 1000.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 1000.0);
        let buckets = h.nonzero_buckets();
        let total: u64 = buckets.iter().map(|&(_, _, n)| n).sum();
        assert_eq!(total, 7);
        for (lo, hi, _) in &buckets {
            assert!(lo < hi);
        }
        // 0.001 and 0.002 land in adjacent octaves.
        assert!(buckets.len() >= 5, "{buckets:?}");
    }

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let mut h = Histogram::default();
        for i in 1..=1000 {
            h.observe(i as f64 / 1000.0); // 0.001 ..= 1.0
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((0.25..=1.0).contains(&p50), "p50 {p50}");
        assert!(p99 >= p50, "p99 {p99} < p50 {p50}");
        assert!(p99 <= h.max());
        assert!(h.quantile(0.0) >= h.min());
        assert!(h.quantile(1.0) <= h.max());
        assert!((h.mean() - 0.5005).abs() < 1e-9);
    }

    #[test]
    fn histogram_tolerates_non_finite_observations() {
        let mut inf = Histogram::default();
        inf.observe(f64::INFINITY);
        assert_eq!(inf.count(), 1);
        assert!(inf.quantile(0.5).is_nan(), "no finite observation");
        assert!(inf.mean().is_nan());

        // The exporters read every statistic, quantiles included.
        let mut r = MetricsRegistry::new();
        r.observe("x", f64::NAN);
        let line = r.to_jsonl();
        let v = briq_json::parse(line.trim()).expect("metrics line parses");
        assert_eq!(v.get("count").and_then(Value::as_f64), Some(1.0));
        assert!(r.summary_table().contains('x'));

        // The mean averages the finite observations only, also after a
        // merge.
        let mut mixed = Histogram::default();
        mixed.observe(1.0);
        mixed.observe(f64::NAN);
        assert_eq!(mixed.mean(), 1.0);
        let mut merged = Histogram::default();
        merged.observe(3.0);
        merged.merge(&mixed);
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.mean(), 2.0);
        assert!((1.0..=3.0).contains(&merged.quantile(0.5)));
    }

    #[test]
    fn histogram_merge_is_order_independent() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut both = Histogram::default();
        for v in [0.001, 0.2, 30.0] {
            a.observe(v);
            both.observe(v);
        }
        for v in [0.005, 7.0] {
            b.observe(v);
            both.observe(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab, both);
    }

    #[test]
    fn registry_counts_and_merges() {
        let mut a = MetricsRegistry::new();
        a.count(names::PAIRS_SCORED, 10);
        a.count(names::PAIRS_SCORED, 5);
        a.observe(names::RWR_ITERATIONS, 12.0);
        let mut b = MetricsRegistry::new();
        b.count(names::PAIRS_SCORED, 1);
        b.count(names::PAIRS_PRUNED, 2);
        b.observe(names::RWR_ITERATIONS, 40.0);
        a.merge(&b);
        assert_eq!(a.counter(names::PAIRS_SCORED), 16);
        assert_eq!(a.counter(names::PAIRS_PRUNED), 2);
        assert_eq!(a.counter("never_touched"), 0);
        let h = a.histogram(names::RWR_ITERATIONS).expect("histogram");
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 52.0);
    }

    #[test]
    fn zero_counts_materialize_as_explicit_zeros() {
        let mut r = MetricsRegistry::new();
        r.count(names::PAIRS_PRUNED, 0);
        assert_eq!(r.counter(names::PAIRS_PRUNED), 0);
        assert_eq!(
            r.counters().collect::<Vec<_>>(),
            vec![(names::PAIRS_PRUNED, 0)],
            "a touched counter exports an explicit zero"
        );
    }

    #[test]
    fn metrics_jsonl_is_valid_and_ordered() {
        let mut r = MetricsRegistry::new();
        r.count("b_counter", 2);
        r.count("a_counter", 1);
        r.observe("latency_s", 0.25);
        let jsonl = r.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        // Counters first, name-ordered; histograms after.
        assert!(lines[0].contains("a_counter"), "{}", lines[0]);
        assert!(lines[1].contains("b_counter"), "{}", lines[1]);
        assert!(lines[2].contains("histogram"), "{}", lines[2]);
        for line in lines {
            let v = briq_json::parse(line).expect("each metrics line parses");
            assert!(v.get("name").is_some());
            assert!(v.get("type").is_some());
        }
    }

    #[test]
    fn summary_table_mentions_every_metric() {
        let mut r = MetricsRegistry::new();
        r.count(names::PAIRS_SCORED, 42);
        r.observe(names::RWR_ITERATIONS, 17.0);
        let table = r.summary_table();
        assert!(table.contains(names::PAIRS_SCORED), "{table}");
        assert!(table.contains(names::RWR_ITERATIONS), "{table}");
        assert!(table.contains("42"), "{table}");
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_events() {
        let rec = Recorder::enabled();
        {
            let _a = span!(rec, "align", doc = 0);
            let _b = span!(rec, "extract");
        }
        let t = rec.finish().expect("trace");
        let json = chrome_trace_json(&[(0, &t)]);
        let v = briq_json::parse(&json).expect("chrome trace parses");
        let events = v
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        // process_name + thread_name + two spans.
        assert_eq!(events.len(), 4);
        let complete: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .collect();
        assert_eq!(complete.len(), 2);
        for e in complete {
            assert!(e.get("ts").is_some() && e.get("dur").is_some());
            assert_eq!(
                e.get("args")
                    .and_then(|a| a.get("doc"))
                    .and_then(Value::as_f64),
                Some(0.0)
            );
        }
    }
}
