//! Per-layer numbers of a traced run: self times from the span tree,
//! counters from the batch engine's merged metrics, and short probes
//! that call a layer's public function on the workload's own documents.

use std::hint::black_box;
use std::time::Instant;

use briq_core::classifier::PairClassifier;
use briq_core::context::DocContext;
use briq_core::features::{PairFeaturizer, FEATURE_COUNT};
use briq_core::mention::text_mentions;
use briq_core::obs::names;
use briq_core::pipeline::Briq;
use briq_core::MetricsRegistry;
use briq_json::{FromJson, Value};
use briq_table::virtual_cells::{all_table_mentions, virtual_cells};
use briq_table::Document;

use crate::batch::Pass;
use crate::metrics::{Outcome, PER_LAYER};
use crate::stats::median;
use crate::trace::{self_time_by_name, Tracer};

/// Rows the forest probe scores (~25 ms of forest work).
const FOREST_PROBE_ROWS: usize = 20_000;

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What the traced passes of a run add up to.
#[derive(Default)]
pub struct TracedPasses {
    pub passes: u64,
    pub pages: u64,
    pub docs: u64,
    /// Extraction stage time from the batch engine's stage timers: the
    /// store path extracts inside the `align` span without a span of
    /// its own.
    pub extract_s: f64,
    pub metrics: MetricsRegistry,
    pub utilization: Vec<f64>,
}

impl TracedPasses {
    pub fn absorb(&mut self, pass: &Pass) {
        self.passes += 1;
        self.pages += pass.pages as u64;
        self.docs += pass.report.documents.len() as u64;
        self.extract_s += pass.report.stage_totals.extract_s;
        self.metrics.merge(&pass.report.merged_metrics());
        self.utilization.push(pass.report.mean_utilization());
    }
}

/// Page, pipeline, retrieval, scoring, walk and batch numbers from the
/// spans of the traced passes.
pub fn pipeline(out: &mut Outcome, tracer: &Tracer, tp: &TracedPasses) {
    let st = self_time_by_name(tracer.spans());
    let ms = |name: &str| st.get(name).map_or(0.0, |e| e.0 as f64 / 1e6);
    let spans = |name: &str| st.get(name).map_or(0.0, |e| e.1 as f64);
    let pages = tp.pages as f64;
    let docs = tp.docs as f64;
    out.set("html.parse_ms_per_page", ratio(ms("html.parse"), pages));
    out.set("segment.ms_per_page", ratio(ms("segment"), pages));
    out.set("json.encode_ms_per_page", ratio(ms("json.encode"), pages));

    // Extraction is a span on the stateless path and only a stage timer
    // inside the store path; count it once either way.
    let extract_in_align = if spans(names::SPAN_EXTRACT) > 0.0 {
        0.0
    } else {
        tp.extract_s * 1e3
    };
    out.set(
        "pipeline.extract_ms_per_doc",
        ratio(ms(names::SPAN_EXTRACT) + extract_in_align, docs),
    );
    for (metric, span) in [
        ("pipeline.classify_ms_per_doc", names::SPAN_CLASSIFY),
        ("pipeline.filter_ms_per_doc", names::SPAN_FILTER),
        ("pipeline.graph_ms_per_doc", names::SPAN_GRAPH),
        ("pipeline.resolve_ms_per_doc", names::SPAN_RESOLVE),
    ] {
        out.set(metric, ratio(ms(span), docs));
    }
    out.set(
        "pipeline.align_other_ms_per_doc",
        ratio((ms(names::SPAN_ALIGN) - extract_in_align).max(0.0), docs),
    );

    let m = &tp.metrics;
    let c = |name: &str| m.counter(name) as f64;
    let classified = spans(names::SPAN_CLASSIFY);
    let retrieved = c(names::RETRIEVAL_CANDIDATES);
    let dropped = c(names::RETRIEVAL_PAIRS_DROPPED);
    let scored = c(names::ROWS_SCORED_EXHAUSTIVE) + c(names::ROWS_SCORED_BOUNDED);
    out.set(
        "retrieval.candidates_per_mention",
        ratio(retrieved, classified),
    );
    out.set(
        "retrieval.pairs_skipped_ratio",
        ratio(dropped, retrieved + dropped),
    );
    out.set("scoring.rows_scored_per_mention", ratio(scored, classified));
    out.set(
        "scoring.pairs_pruned_ratio",
        ratio(c(names::PAIRS_PRUNED), retrieved),
    );
    out.set(
        "scoring.rows_deduped_ratio",
        ratio(c(names::ROWS_DEDUPED), retrieved),
    );
    let walks = c(names::RWR_WALKS);
    let iterations = c(names::RWR_MATVEC_ITERATIONS);
    out.set("rwr.walks_per_doc", ratio(walks, docs));
    out.set("rwr.matvec_iterations_per_walk", ratio(iterations, walks));
    out.set(
        "rwr.us_per_matvec_iteration",
        ratio(ms(names::SPAN_RESOLVE) * 1e3, iterations),
    );
    out.set(
        "batch.utilization",
        if tp.utilization.is_empty() {
            0.0
        } else {
            median(&tp.utilization)
        },
    );
    out.set(
        "store.mentions_realigned_ratio",
        ratio(c(names::MENTIONS_REALIGNED), c(names::MENTIONS)),
    );
    println!(
        "bases: {} traced pass(es), {pages} pages, {docs} docs, {classified} mentions classified, \
         {retrieved} candidates retrieved, {dropped} pairs skipped, {scored} rows scored, \
         {walks} walks, {iterations} matvec iterations, {} mentions, {} realigned",
        tp.passes,
        c(names::MENTIONS),
        c(names::MENTIONS_REALIGNED),
    );
}

/// Time `briq_json::parse` alone on the model text; the parsed value
/// feeds the forest probe.
pub fn model_parse(out: &mut Outcome, model_text: &str) -> Result<Value, String> {
    let t = Instant::now();
    let v = briq_json::parse(model_text).map_err(|e| format!("model JSON: {e}"))?;
    let s = t.elapsed().as_secs_f64();
    out.set("json.model_parse_s", s);
    out.set(
        "json.model_parse_ns_per_byte",
        s * 1e9 / model_text.len().max(1) as f64,
    );
    Ok(v)
}

/// Text extraction, virtual cells and the forest, each called directly
/// on `docs`.
pub fn probes(
    out: &mut Outcome,
    briq: &Briq,
    model: &Value,
    docs: &[Document],
) -> Result<(), String> {
    let t = Instant::now();
    for d in docs {
        black_box(briq_text::extract_quantities(black_box(&d.text)));
    }
    out.set(
        "text.extract_us_per_paragraph",
        ratio(t.elapsed().as_secs_f64() * 1e6, docs.len() as f64),
    );

    let (mut tables, mut cells) = (0usize, 0usize);
    let t = Instant::now();
    for d in docs {
        for (i, table) in d.tables.iter().enumerate() {
            cells += black_box(virtual_cells(table, i, &briq.cfg.virtual_cells)).len();
            tables += 1;
        }
    }
    out.set(
        "virtual_cells.us_per_table",
        ratio(t.elapsed().as_secs_f64() * 1e6, tables as f64),
    );
    out.set(
        "virtual_cells.cells_per_table",
        ratio(cells as f64, tables as f64),
    );

    let clf = model
        .get("classifier")
        .map(Option::<PairClassifier>::from_json)
        .transpose()
        .map_err(|e| format!("model classifier: {e}"))?
        .flatten()
        .ok_or("the benchmark model has no trained classifier")?;
    let mut rows: Vec<f64> = Vec::new();
    let mut buf = Vec::new();
    'docs: for d in docs {
        let mentions = text_mentions(d);
        let targets = all_table_mentions(&d.tables, &briq.cfg.virtual_cells);
        let ctx = DocContext::build(d, &mentions, &briq.cfg.context);
        let mut f = PairFeaturizer::new(&mentions, &targets, &ctx);
        for mi in 0..mentions.len() {
            f.fill_mention_rows(mi, &mut buf);
            rows.extend_from_slice(&buf);
            if rows.len() >= FOREST_PROBE_ROWS * FEATURE_COUNT {
                break 'docs;
            }
        }
    }
    let n = rows.len() / FEATURE_COUNT;
    let mut scores = vec![0.0; n];
    let t = Instant::now();
    clf.flat()
        .score_block(black_box(&rows), FEATURE_COUNT, &mut scores);
    black_box(&scores);
    out.set(
        "forest.ns_per_row",
        ratio(t.elapsed().as_secs_f64() * 1e9, n as f64),
    );
    Ok(())
}

/// Set every per-layer metric the workload did not measure to 0: its
/// layer does not run on this workload.
pub fn zero_unmeasured(out: &mut Outcome) {
    for &(name, _) in PER_LAYER {
        out.values.entry(name).or_insert(0.0);
    }
}
