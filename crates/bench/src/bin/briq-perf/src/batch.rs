//! The closed-loop batch workloads: `batch_cold` (every pass against a
//! fresh in-memory store) and `recrawl` (every pass against one durable
//! store after a seeded 10% of pages changed).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use briq_core::batch::{BatchConfig, BatchReport};
use briq_core::pipeline::Briq;
use briq_core::store::{AlignmentStore, StoreOptions};
use briq_table::html::parse_page;
use briq_table::segment::{segment_page, SegmentConfig};
use briq_table::Document;

use crate::fixture::{self, Model};
use crate::layers::{self, ratio, TracedPasses};
use crate::metrics::Outcome;
use crate::stats::median;
use crate::trace::Tracer;
use crate::RunArgs;

/// Worker threads of every batch pass, fixed so that every machine
/// splits the work the same way.
const JOBS: usize = 2;
/// Setup is repeated this many times per run and reported as a median.
const SETUP_SAMPLES: usize = 3;
/// Timed passes a run makes even when they outlast `--seconds`.
const MIN_PASSES: usize = 3;
/// Every n-th document of `batch_cold` is checked against the oracle.
const CHECK_EVERY: usize = 10;

/// One batch pass, as `briq-align --batch --json` runs it.
pub struct Pass {
    pub secs: f64,
    pub pages: usize,
    pub docs: Vec<Document>,
    /// Page index of each document.
    pub doc_pages: Vec<usize>,
    pub report: BatchReport,
    /// Stdout of the equivalent `briq-align --json` run.
    pub encoded: String,
}

/// Parse and segment every page, align all documents on [`JOBS`]
/// workers against `store`, and encode the alignments. An enabled
/// tracer gets a span around each layer call, and the batch engine's
/// per-document span trees grafted under the batch span.
fn run_pass(
    briq: &Briq,
    pages: &[String],
    store: &AlignmentStore,
    tracer: &mut Tracer,
    req: u64,
) -> Pass {
    let t0 = Instant::now();
    let pass_span = tracer.open("pass", None, req);
    let mut docs: Vec<Document> = Vec::new();
    let mut keys: Vec<u64> = Vec::new();
    let mut doc_pages: Vec<usize> = Vec::new();
    for (pi, html) in pages.iter().enumerate() {
        let s = tracer.open("html.parse", pass_span, req);
        let page = parse_page(html);
        tracer.close(s);
        let s = tracer.open("segment", pass_span, req);
        let segmented = segment_page(&page, &SegmentConfig::default(), docs.len());
        tracer.close(s);
        for (si, doc) in segmented.into_iter().enumerate() {
            keys.push(fixture::doc_key(pi, si));
            doc_pages.push(pi);
            docs.push(doc);
        }
    }
    let cfg = BatchConfig {
        trace: tracer.is_enabled(),
        ..BatchConfig::with_jobs(JOBS)
    };
    let batch_span = tracer.open("align_batch", pass_span, req);
    let origin = tracer.now_ns();
    let report = briq.align_batch_stored(&docs, &cfg, store, Some(&keys));
    tracer.close(batch_span);
    for d in &report.documents {
        if let Some(tr) = &d.trace {
            tracer.graft(batch_span, d.index as u64, origin, tr);
        }
    }
    let s = tracer.open("json.encode", pass_span, req);
    let mut encoded = String::new();
    for d in &report.documents {
        encoded.push_str(&briq_json::to_string_pretty(&d.alignments));
        encoded.push('\n');
    }
    tracer.close(s);
    tracer.close(pass_span);
    Pass {
        secs: t0.elapsed().as_secs_f64(),
        pages: pages.len(),
        docs,
        doc_pages,
        report,
        encoded,
    }
}

/// A model loaded the way `briq-align --model` loads it.
struct Loaded {
    briq: Briq,
    text: String,
    /// Read plus `Briq::from_json`.
    secs: f64,
    from_json_s: f64,
}

fn load_model(path: &Path) -> Result<Loaded, String> {
    let t0 = Instant::now();
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read model {}: {e}", path.display()))?;
    let t1 = Instant::now();
    let briq = Briq::from_json(&text).map_err(|e| format!("cannot load model: {e}"))?;
    Ok(Loaded {
        briq,
        text,
        secs: t0.elapsed().as_secs_f64(),
        from_json_s: t1.elapsed().as_secs_f64(),
    })
}

/// Which documents of `pass` disagree with `oracle`'s `align_checked`
/// (alignments as `briq-align --json` prints them, and diagnostics).
/// Runs on [`JOBS`] threads.
fn mismatches(oracle: &Briq, pass: &Pass, which: &[usize]) -> Vec<usize> {
    let check = |i: usize| {
        let (alignments, diagnostics) = oracle.align_checked(&pass.docs[i]);
        let got = &pass.report.documents[i];
        briq_json::to_string_pretty(&alignments) != briq_json::to_string_pretty(&got.alignments)
            || diagnostics.to_jsonl() != got.diagnostics.to_jsonl()
    };
    let chunk = which.len().div_ceil(JOBS).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = which
            .chunks(chunk)
            .map(|part| {
                let h = s.spawn(move || part.iter().copied().filter(|&i| check(i)).collect());
                (part, h)
            })
            .collect();
        handles
            .into_iter()
            // A check that panicked fails every document it held.
            .flat_map(|(part, h)| h.join().unwrap_or_else(|_| part.to_vec()))
            .collect()
    })
}

/// Peak resident set (`VmHWM`) of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let path = "/proc/self/status";
    let status = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

/// Restart this process's peak resident set from its current size, so
/// `peak_rss_mb` leaves out the untimed preparation before setup.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak RSS counter: {e}"))
}

/// Bytes this process has written so far (`wchar` of `/proc/self/io`).
fn bytes_written() -> f64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("wchar:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0.0)
}

/// Per-pass timings of one run: untraced passes give the end-to-end
/// numbers, traced passes the per-layer ones.
#[derive(Default)]
struct Passes {
    untraced: Vec<f64>,
    untraced_docs: usize,
    traced: Vec<f64>,
}

impl Passes {
    fn count(&self) -> usize {
        self.untraced.len() + self.traced.len()
    }

    /// Whether the next pass runs traced: in a traced run, the second
    /// half of the measured time, after at least one untraced pass.
    fn next_traced(&self, args: &RunArgs, elapsed: Duration) -> bool {
        args.trace && !self.untraced.is_empty() && elapsed.as_secs_f64() >= args.seconds / 2.0
    }

    fn more(&self, args: &RunArgs, elapsed: Duration) -> bool {
        self.count() < MIN_PASSES
            || elapsed.as_secs_f64() < args.seconds
            || (args.trace && self.traced.is_empty())
    }

    fn push(&mut self, pass: &Pass, traced: bool) {
        if traced {
            self.traced.push(pass.secs);
        } else {
            self.untraced.push(pass.secs);
            self.untraced_docs += pass.docs.len();
        }
    }

    fn report(&self, out: &mut Outcome, setup: &[f64]) {
        out.set("setup_s", median(setup));
        // Documents over the time of all untraced passes, not a median
        // of per-pass rates: passes differ in which slice they align or
        // how many store compactions they run, and the host's speed
        // drifts over seconds; the total averages over all of that.
        let secs: f64 = self.untraced.iter().sum();
        out.set("docs_per_s", self.untraced_docs as f64 / secs);
        println!(
            "passes: {} timed (+{} traced), {} docs in {secs:.3} s, median pass {:.0} ms; \
             setup over {} samples",
            self.untraced.len(),
            self.traced.len(),
            self.untraced_docs,
            median(&self.untraced) * 1e3,
            setup.len()
        );
        let ms = |xs: &[f64]| {
            xs.iter()
                .map(|s| format!("{:.0}", s * 1e3))
                .collect::<Vec<_>>()
        };
        println!(
            "pass ms: {}; traced {}; setup s: {:.3?}",
            ms(&self.untraced).join(" "),
            ms(&self.traced).join(" "),
            setup
        );
        if !self.traced.is_empty() {
            out.set(
                "trace_overhead_ratio",
                median(&self.traced) / median(&self.untraced),
            );
        }
    }
}

fn load_repeatedly(model: &Model) -> Result<(Loaded, Vec<f64>, Vec<f64>), String> {
    let (mut setup, mut from_json) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUP_SAMPLES {
        drop(last.take());
        let l = load_model(&model.path)?;
        setup.push(l.secs);
        from_json.push(l.from_json_s);
        last = Some(l);
    }
    let l = last.ok_or("no setup sample")?;
    Ok((l, setup, from_json))
}

fn in_memory(briq: &Briq) -> Result<AlignmentStore, String> {
    AlignmentStore::with_options(briq, &StoreOptions::default())
        .map_err(|e| format!("cannot create the in-memory store: {e}"))
}

/// `batch_cold`: model load as setup, then passes that each align one
/// slice of the corpus against a fresh in-memory store, the slices in
/// turn.
pub fn batch_cold(args: &RunArgs, model: &Model, out: &mut Outcome) -> Result<(), String> {
    let pages = fixture::batch_pages(args.seed)?;
    let slices: Vec<&[String]> = (0..fixture::SLICES)
        .map(|i| fixture::slice(&pages, i))
        .collect();
    reset_peak_rss()?;
    let (loaded, setup, from_json) = load_repeatedly(model)?;
    let briq = &loaded.briq;
    // The latest pass over each slice: later passes must reproduce it,
    // and the oracle checks it at the end.
    let mut latest: Vec<Option<Pass>> = slices.iter().map(|_| None).collect();
    let mut off = Tracer::disabled();
    latest[0] = Some(run_pass(briq, slices[0], &in_memory(briq)?, &mut off, 0));

    let mut tracer = Tracer::new();
    let mut traced = TracedPasses::default();
    let mut passes = Passes::default();
    let (mut hits, mut lookups, mut per_entry, mut written) = (0u64, 0u64, Vec::new(), 0.0);
    let mut last_slice = 0;
    let t_run = Instant::now();
    while passes.more(args, t_run.elapsed()) {
        let n = passes.count() + 1;
        let slice = n % slices.len();
        let is_traced = passes.next_traced(args, t_run.elapsed());
        let store = in_memory(briq)?;
        let w0 = bytes_written();
        let t = if is_traced { &mut tracer } else { &mut off };
        let pass = run_pass(briq, slices[slice], &store, t, n as u64);
        passes.push(&pass, is_traced);
        out.attempted += pass.docs.len() as u64;
        if latest[slice]
            .as_ref()
            .is_some_and(|prev| prev.encoded != pass.encoded)
        {
            out.fail(format!(
                "pass {n} output differs from the previous pass over slice {slice}"
            ));
        }
        if is_traced {
            written += bytes_written() - w0;
            traced.absorb(&pass);
            hits += store.hits();
            lookups += store.lookups();
            per_entry.push(ratio(store.bytes_peak() as f64, store.len() as f64));
        }
        latest[slice] = Some(pass);
        last_slice = slice;
    }
    out.set("peak_rss_mb", peak_rss_mb()?);
    passes.report(out, &setup);

    let mut oracle = briq.clone();
    oracle.cfg.use_index = false;
    let (mut checked, mut docs) = (0, 0);
    for (slice, pass) in latest.iter().enumerate() {
        let Some(pass) = pass else { continue };
        let which: Vec<usize> = (0..pass.docs.len()).step_by(CHECK_EVERY).collect();
        for i in mismatches(&oracle, pass, &which) {
            out.fail(format!(
                "doc {i} of slice {slice} differs from align_checked with use_index=false and no store"
            ));
        }
        checked += which.len();
        docs += pass.docs.len();
    }
    println!(
        "checked: {checked} of {docs} docs against the exhaustive oracle; repeated passes byte-identical"
    );
    let last = latest[last_slice].as_ref().ok_or("no pass ran")?;

    if args.trace {
        layers::pipeline(out, &tracer, &traced);
        let model_value = layers::model_parse(out, &loaded.text)?;
        layers::probes(out, briq, &model_value, &last.docs)?;
        out.set("pipeline.model_from_json_s", median(&from_json));
        out.set("store.hit_ratio", ratio(hits as f64, lookups as f64));
        out.set("store.bytes_per_entry", median(&per_entry));
        out.set(
            "store.bytes_written_per_pass",
            ratio(written, traced.passes as f64),
        );
        finish_trace(args, &tracer)?;
    }
    Ok(())
}

/// `recrawl`: model load plus durable-store recovery as setup, then
/// passes that each follow a seeded change to 10% of the pages.
pub fn recrawl(args: &RunArgs, model: &Model, out: &mut Outcome) -> Result<(), String> {
    let pristine = fixture::slice(&fixture::batch_pages(args.seed)?, 0).to_vec();
    let (warm, entries) = warm_store(args.seed, model, &pristine)?;
    let work = fixture::cache_root().join("work").join("recrawl-store");
    fixture::copy_dir(&warm, &work)?;
    reset_peak_rss()?;
    let opts = StoreOptions {
        dir: Some(work),
        ..StoreOptions::default()
    };

    let (mut setup, mut from_json, mut recover) = (Vec::new(), Vec::new(), Vec::new());
    let mut last: Option<(Loaded, AlignmentStore)> = None;
    for _ in 0..SETUP_SAMPLES {
        drop(last.take());
        let t0 = Instant::now();
        let l = load_model(&model.path)?;
        let store = AlignmentStore::with_options(&l.briq, &opts)
            .map_err(|e| format!("cannot open the re-crawl store: {e}"))?;
        setup.push(t0.elapsed().as_secs_f64());
        from_json.push(l.from_json_s);
        recover.push(store.recover_seconds());
        if store.recovered_entries() != entries {
            out.fail(format!(
                "store recovered {} entries, the warm store holds {entries}",
                store.recovered_entries()
            ));
        }
        last = Some((l, store));
    }
    let (loaded, store) = last.ok_or("no setup sample")?;
    let briq = &loaded.briq;

    let mut pages = pristine;
    let mut changed: BTreeSet<usize> = BTreeSet::new();
    let mut mutate = |pages: &mut Vec<String>, pass: u64| {
        for i in fixture::mutated_pages(args.seed, pass, pages.len()) {
            pages[i] = fixture::rotate_digits(&pages[i]);
            changed.insert(i);
        }
    };
    mutate(&mut pages, 0);
    let mut off = Tracer::disabled();
    let mut last = run_pass(briq, &pages, &store, &mut off, 0);

    let mut tracer = Tracer::new();
    let mut traced = TracedPasses::default();
    let mut passes = Passes::default();
    let (mut hits, mut lookups, mut compactions, mut written) = (0u64, 0u64, 0u64, 0.0);
    let t_run = Instant::now();
    while passes.more(args, t_run.elapsed()) {
        let n = passes.count() as u64 + 1;
        mutate(&mut pages, n);
        let is_traced = passes.next_traced(args, t_run.elapsed());
        store.reset_counters();
        let c0 = store.compactions();
        let w0 = bytes_written();
        let t = if is_traced { &mut tracer } else { &mut off };
        let pass = run_pass(briq, &pages, &store, t, n);
        passes.push(&pass, is_traced);
        out.attempted += pass.docs.len() as u64;
        if is_traced {
            written += bytes_written() - w0;
            compactions += store.compactions() - c0;
            traced.absorb(&pass);
            hits += store.hits();
            lookups += store.lookups();
        }
        last = pass;
    }
    out.set("peak_rss_mb", peak_rss_mb()?);
    passes.report(out, &setup);

    // Every document of every page changed during the run must match a
    // full recompute; unchanged pages are what the store serves warm.
    let docs_of_changed: Vec<usize> = (0..last.docs.len())
        .filter(|&i| changed.contains(&last.doc_pages[i]))
        .collect();
    for i in mismatches(briq, &last, &docs_of_changed) {
        out.fail(format!(
            "doc {i} of a changed page differs from a full recompute"
        ));
    }
    println!(
        "checked: {} docs of {} changed pages against a full recompute",
        docs_of_changed.len(),
        changed.len()
    );

    if args.trace {
        layers::pipeline(out, &tracer, &traced);
        let model_value = layers::model_parse(out, &loaded.text)?;
        layers::probes(out, briq, &model_value, &last.docs)?;
        out.set("pipeline.model_from_json_s", median(&from_json));
        out.set("store.recover_s", median(&recover));
        out.set("store.recovered_entries", store.recovered_entries() as f64);
        out.set("store.hit_ratio", ratio(hits as f64, lookups as f64));
        let per_pass = traced.passes as f64;
        out.set("store.bytes_written_per_pass", ratio(written, per_pass));
        out.set(
            "store.compactions_per_pass",
            ratio(compactions as f64, per_pass),
        );
        out.set(
            "store.bytes_per_entry",
            ratio(store.bytes_peak() as f64, store.len() as f64),
        );
        let t = Instant::now();
        store
            .snapshot()
            .map_err(|e| format!("cannot snapshot the re-crawl store: {e}"))?;
        out.set("store.snapshot_s", t.elapsed().as_secs_f64());
        out.set("store.snapshot_bytes", store.snapshot_bytes() as f64);
        finish_trace(args, &tracer)?;
    }
    Ok(())
}

/// The durable store warmed by one cold pass over the pristine corpus,
/// cached per seed and model. Returns its directory and entry count.
/// Stores of other seeds are removed first: each is ~100 MB.
pub fn warm_store(seed: u64, model: &Model, pages: &[String]) -> Result<(PathBuf, u64), String> {
    let name = format!(
        "store-{:016x}-{:016x}",
        model.digest,
        fixture::digest(pages.concat().as_bytes())
    );
    let dir = fixture::seed_dir(seed).join(&name);
    let ready = fixture::seed_dir(seed).join(format!("{name}.entries"));
    if let Some(n) = std::fs::read_to_string(&ready)
        .ok()
        .and_then(|s| s.trim().parse().ok())
    {
        if dir.is_dir() {
            return Ok((dir, n));
        }
    }
    remove_other_stores(&dir);
    let tmp = dir.with_extension("tmp");
    let _ = std::fs::remove_dir_all(&tmp);
    let briq = load_model(&model.path)?.briq;
    // One snapshot at the end instead of a compaction every few MB of
    // log: the recovered state is the same, built in a fraction of the
    // writes.
    let store = AlignmentStore::with_options(
        &briq,
        &StoreOptions {
            dir: Some(tmp.clone()),
            compact_log_bytes: u64::MAX,
            ..StoreOptions::default()
        },
    )
    .map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    run_pass(&briq, pages, &store, &mut Tracer::disabled(), 0);
    store
        .snapshot()
        .map_err(|e| format!("cannot snapshot the warm store: {e}"))?;
    let n = store.len() as u64;
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::rename(&tmp, &dir).map_err(|e| format!("cannot publish {}: {e}", dir.display()))?;
    std::fs::write(&ready, n.to_string())
        .map_err(|e| format!("cannot write {}: {e}", ready.display()))?;
    Ok((dir, n))
}

fn remove_other_stores(keep: &Path) {
    let Ok(seeds) = std::fs::read_dir(fixture::cache_root()) else {
        return;
    };
    for seed in seeds.flatten() {
        let Ok(entries) = std::fs::read_dir(seed.path()) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            let is_store = e.file_name().to_string_lossy().starts_with("store-");
            if is_store && p != keep {
                let _ = std::fs::remove_dir_all(&p);
                let _ = std::fs::remove_file(&p);
            }
        }
    }
}

/// Write the span dump when `--spans` asked for it.
fn finish_trace(args: &RunArgs, tracer: &Tracer) -> Result<(), String> {
    if let Some(path) = &args.spans {
        tracer
            .write_jsonl(path)
            .map_err(|e| format!("cannot write spans to {}: {e}", path.display()))?;
        println!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        );
    }
    Ok(())
}
