//! `briq-align` — align quantities in HTML pages from the command line.
//!
//! ```text
//! briq-align <page.html>... [--batch dir] [--jobs N] [--model model.json]
//!            [--json] [--oracle]
//!            [--repeat N] [--warm-from dir] [--diagnostics diag.jsonl]
//!            [--trace trace.json] [--metrics metrics.jsonl]
//! briq-align --train-demo model.json       # train on a synthetic corpus
//! briq-align --gen-corpus dir [--docs N] [--seed S] [--per-page K]
//! ```
//!
//! Pages come from positional arguments and/or `--batch <dir>` (every
//! `*.html` in the directory, sorted by name). All segmented documents
//! from all pages form one batch that runs through the parallel
//! batch-alignment engine ([`briq_core::batch`]) with `--jobs N` workers
//! (default 1, `0` = one per core). Output order and content are
//! bit-identical for every `--jobs` value — CI's determinism stage relies
//! on that. Without `--model`, the heuristic (untrained) prior is used;
//! `--gen-corpus` writes a seeded page corpus for batch runs.
//!
//! Alignment runs through the budgeted, panic-free `align_checked` path.
//! Every degraded item (skipped table, truncated candidate set,
//! non-converged walk) becomes one JSON object with its scope prefixed by
//! the document's batch index; `--diagnostics` writes them as JSON Lines,
//! otherwise they go to stderr. Timings never appear in the JSONL, so it
//! is byte-stable across worker counts.
//!
//! The batch runs against a versioned [`briq_core::store::AlignmentStore`]
//! keyed by page basename + segment index, so repeated runs in one
//! process are incremental. `--repeat N` re-aligns the whole batch N
//! times against the warm store and reports per-repetition stage timings
//! plus store counters on stderr (cold vs warm in one invocation);
//! `--warm-from <dir>` pre-warms the store from another page directory
//! (output discarded) before the real batch — CI's store stage warms
//! from a pristine corpus and aligns a mutated copy to exercise
//! incremental re-alignment.
//!
//! `--oracle` runs every stage on its reference path
//! ([`BriqConfig::reference`]): exhaustive classification, the dense RWR
//! walk, and no store (`--store-dir` is ignored). It is what CI
//! byte-compares the production path against; stdout and the
//! diagnostics JSONL are bit-identical either way (DESIGN.md §13–§15).
//!
//! `--trace <file>` writes a Chrome `trace_event` JSON file (open it in
//! `chrome://tracing` or <https://ui.perfetto.dev>) with one track per
//! document; `--metrics <file>` writes the merged metrics registry, which
//! the batch engine records on every run, as JSON Lines and prints a
//! summary table to stderr. Both only *observe*:
//! alignment stdout and the diagnostics JSONL are byte-identical with and
//! without them (CI's determinism stage enforces this). See
//! OPERATIONS.md for a walkthrough and DESIGN.md §11 for every metric
//! name. Exit codes:
//!
//! * `0` — all documents aligned cleanly;
//! * `1` — usage error, nothing alignable, or at least one input page
//!   was unreadable (unreadable pages degrade to a `Stage::Batch`
//!   diagnostic and are skipped; the readable pages still align and
//!   print normally — a partially-broken batch directory no longer
//!   aborts the run). Pages with invalid UTF-8 are decoded lossily
//!   rather than rejected;
//! * `2` — alignment completed, but at least one item degraded.

use briq_core::batch::BatchConfig;
use briq_core::pipeline::{Briq, BriqConfig};
use briq_core::store::{AlignmentStore, Fingerprint};
use briq_core::{DegradedAction, Diagnostic, Diagnostics, Stage};
use briq_table::html::parse_page;
use briq_table::segment::{segment_page, SegmentConfig};
use briq_table::Document;
use std::process::ExitCode;

/// Exit status for a run that finished but had to degrade somewhere.
const EXIT_DEGRADED: u8 = 2;

const USAGE: &str = "usage: briq-align <page.html>... [--batch dir] [--jobs N] \
     [--model model.json] [--json] [--oracle] \
     [--store-dir DIR] [--store-max-bytes N] \
     [--repeat N] [--warm-from dir] [--diagnostics diag.jsonl] \
     [--trace trace.json] [--metrics metrics.jsonl]\n       \
     briq-align --train-demo <model.json>\n       \
     briq-align --gen-corpus <dir> [--docs N] [--seed S] [--per-page K]";

/// Everything parsed from the command line.
struct Cli {
    pages: Vec<String>,
    jobs: usize,
    as_json: bool,
    model: Option<String>,
    oracle: bool,
    store_dir: Option<String>,
    store_max_bytes: u64,
    repeat: usize,
    warm_from: Option<String>,
    diagnostics: Option<String>,
    trace: Option<String>,
    metrics: Option<String>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }

    if args[0] == "--train-demo" {
        let Some(path) = args.get(1) else {
            eprintln!("--train-demo needs an output path");
            return ExitCode::FAILURE;
        };
        return train_demo(path);
    }
    if args[0] == "--gen-corpus" {
        return gen_corpus(&args);
    }

    let cli = match parse_cli(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let mut briq = match &cli.model {
        Some(p) => {
            match std::fs::read_to_string(p)
                .map_err(|e| e.to_string())
                .and_then(|s| Briq::from_json(&s).map_err(|e| e.to_string()))
            {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("cannot load model {p}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => Briq::untrained(BriqConfig::default()),
    };
    if cli.oracle {
        briq.cfg = briq.cfg.reference();
    }

    let (docs, keys, io_diags) = load_documents(&cli.pages);
    if docs.is_empty() {
        eprintln!("no paragraph/table documents found in any readable input page");
        return ExitCode::FAILURE;
    }

    // The batch engine always records metrics; only the trace export
    // needs the per-document span trees kept. Neither changes alignment
    // output (CI byte-compares traced and untraced runs to enforce that).
    let cfg = BatchConfig {
        trace: cli.trace.is_some(),
        ..BatchConfig::with_jobs(cli.jobs)
    };

    // One store serves the whole process: the optional warm-from corpus,
    // then every repetition of the real batch. With `use_store: false`
    // `align_with` never consults it, and --store-dir is ignored, so an
    // `--oracle` run can never touch warm on-disk state.
    let store_opts = briq_core::store::StoreOptions {
        dir: briq
            .cfg
            .use_store
            .then(|| cli.store_dir.clone().map(Into::into))
            .flatten(),
        max_bytes: cli.store_max_bytes,
        ..briq_core::store::StoreOptions::default()
    };
    let store = match AlignmentStore::with_options(&briq, &store_opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!(
                "cannot open store dir {}: {e}",
                cli.store_dir.as_deref().unwrap_or("?")
            );
            return ExitCode::FAILURE;
        }
    };
    if let Some(line) = store.recovery_report() {
        eprintln!("{line}");
    }
    if let Some(dir) = &cli.warm_from {
        let warm_paths = match html_files_in(dir) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        let (warm_docs, warm_keys, _) = load_documents(&warm_paths);
        briq.align_batch_stored(&warm_docs, &cfg, &store, Some(&warm_keys));
        eprintln!(
            "store: warmed from {dir} ({} documents, {} entries)",
            warm_docs.len(),
            store.len()
        );
        store.reset_counters();
    }

    let repeat = cli.repeat.max(1);
    let mut report = briq.align_batch_stored(&docs, &cfg, &store, Some(&keys));
    for rep in 1..=repeat {
        if rep > 1 {
            store.reset_counters();
            report = briq.align_batch_stored(&docs, &cfg, &store, Some(&keys));
        }
        if repeat > 1 {
            let t = &report.stage_totals;
            eprintln!(
                "repeat {rep}/{repeat}: extract {:.4}s classify {:.4}s filter {:.4}s \
                 resolve {:.4}s wall {:.4}s",
                t.extract_s, t.classify_s, t.filter_s, t.resolve_s, report.wall_s
            );
        }
        if briq.cfg.use_store {
            eprintln!(
                "store: repeat {rep}/{repeat} lookups {} hits {} hit_rate {:.3} \
                 invalidations {} mentions_realigned {}",
                store.lookups(),
                store.hits(),
                store.hit_rate(),
                store.invalidations(),
                store.mentions_realigned()
            );
        }
    }
    // Compact everything into a snapshot so the next process recovers
    // from one file instead of replaying the whole novelty log.
    if store.persisted() {
        match store.snapshot() {
            Ok(()) => eprintln!("{}", store.persisted_report()),
            Err(e) => eprintln!("store: persist failed: {e}"),
        }
    }
    // Failed appends and compactions cost durability, never output, so
    // the run still succeeds; this line is how an operator notices.
    let persist_errors = store.persist_errors();
    if persist_errors > 0 {
        eprintln!("store: {persist_errors} persistence write(s) failed");
    }
    for (doc, dr) in docs.iter().zip(&report.documents) {
        if cli.as_json {
            println!("{}", briq_json::to_string_pretty(&dr.alignments));
        } else {
            println!("document {}: {:.60}…", doc.id, doc.text);
            if dr.alignments.is_empty() {
                println!("  (no alignments)");
            }
            for a in &dr.alignments {
                println!(
                    "  {:24} -> table {} {:12} cells {:?} (value {}, score {:.3})",
                    format!("{:?}", a.mention_raw),
                    a.target.table,
                    a.target.kind.name(),
                    a.target.cells,
                    a.target.value,
                    a.score,
                );
            }
        }
    }

    if let Some(path) = &cli.trace {
        if let Err(e) = std::fs::write(path, report.chrome_trace()) {
            eprintln!("cannot write trace to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("trace written to {path} (open in chrome://tracing or ui.perfetto.dev)");
    }
    if let Some(path) = &cli.metrics {
        let metrics = report.merged_metrics();
        if let Err(e) = std::fs::write(path, metrics.to_jsonl()) {
            eprintln!("cannot write metrics to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprint!("{}", metrics.summary_table());
        eprintln!("metrics written to {path}");
    }

    // Page-level I/O diagnostics lead the stream (they have no batch
    // index), followed by the per-document diagnostics in input order.
    let had_io_errors = !io_diags.is_clean();
    let mut all_diags = io_diags;
    all_diags.items.extend(report.combined_diagnostics().items);
    let jsonl = all_diags.to_jsonl();
    if let Some(path) = &cli.diagnostics {
        if let Err(e) = std::fs::write(path, &jsonl) {
            eprintln!("cannot write diagnostics to {path}: {e}");
            return ExitCode::FAILURE;
        }
    } else if !all_diags.is_clean() {
        eprint!("{jsonl}");
    }
    if had_io_errors {
        eprintln!(
            "{} item(s) degraded during alignment (including unreadable pages)",
            all_diags.items.len()
        );
        ExitCode::FAILURE
    } else if all_diags.is_clean() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{} item(s) degraded during alignment",
            all_diags.items.len()
        );
        ExitCode::from(EXIT_DEGRADED)
    }
}

/// Read, parse, and segment every page, producing the batch documents
/// plus one stable store key per document: FNV of the page *basename*
/// mixed with the segment index within the page. Basename (not full
/// path) keying lets a warm store built from one directory serve a
/// mutated copy of the same corpus in another (CI's store stage).
///
/// An unreadable or non-UTF-8 page degrades to one diagnostic and is
/// skipped; the rest of the batch still aligns. Lossy decoding keeps
/// pages with a few bad bytes (the HTML parser is byte-agnostic);
/// only pages that cannot be opened at all are dropped.
fn load_documents(paths: &[String]) -> (Vec<Document>, Vec<u64>, Diagnostics) {
    let mut docs: Vec<Document> = Vec::new();
    let mut keys: Vec<u64> = Vec::new();
    let mut io_diags = Diagnostics::default();
    for page_path in paths {
        let html = match std::fs::read(page_path) {
            Ok(bytes) => String::from_utf8_lossy(&bytes).into_owned(),
            Err(e) => {
                io_diags.items.push(Diagnostic {
                    stage: Stage::Batch,
                    scope: format!("page {page_path}"),
                    error: format!("cannot read page: {e}"),
                    action: DegradedAction::Skipped,
                });
                eprintln!("cannot read {page_path}: {e} (page skipped)");
                continue;
            }
        };
        let page = parse_page(&html);
        let segmented = segment_page(&page, &SegmentConfig::default(), docs.len());
        if segmented.is_empty() {
            eprintln!("warning: no paragraph/table documents found in {page_path}");
        }
        let base = {
            let mut f = Fingerprint::new();
            let name = std::path::Path::new(page_path)
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| page_path.clone());
            f.str(&name);
            f.finish()
        };
        for (si, doc) in segmented.into_iter().enumerate() {
            let mut f = Fingerprint::new();
            f.u64(base);
            f.usize(si);
            keys.push(f.finish());
            docs.push(doc);
        }
    }
    (docs, keys, io_diags)
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        pages: Vec::new(),
        jobs: 1,
        as_json: false,
        model: None,
        oracle: false,
        store_dir: None,
        store_max_bytes: 0,
        repeat: 1,
        warm_from: None,
        diagnostics: None,
        trace: None,
        metrics: None,
    };
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let mut value = |name: &str| -> Result<String, String> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--json" => cli.as_json = true,
            "--jobs" => {
                let v = value("--jobs")?;
                cli.jobs = v
                    .parse()
                    .map_err(|_| format!("--jobs: invalid count {v:?}"))?;
            }
            "--model" => cli.model = Some(value("--model")?),
            "--oracle" => cli.oracle = true,
            "--store-dir" => cli.store_dir = Some(value("--store-dir")?),
            "--store-max-bytes" => {
                let v = value("--store-max-bytes")?;
                cli.store_max_bytes = v
                    .parse()
                    .map_err(|_| format!("--store-max-bytes: invalid byte count {v:?}"))?;
            }
            "--repeat" => {
                let v = value("--repeat")?;
                cli.repeat = v
                    .parse()
                    .map_err(|_| format!("--repeat: invalid count {v:?}"))?;
                if cli.repeat == 0 {
                    return Err("--repeat: count must be >= 1".into());
                }
            }
            "--warm-from" => cli.warm_from = Some(value("--warm-from")?),
            "--diagnostics" => cli.diagnostics = Some(value("--diagnostics")?),
            "--trace" => cli.trace = Some(value("--trace")?),
            "--metrics" => cli.metrics = Some(value("--metrics")?),
            "--batch" => {
                let dir = value("--batch")?;
                cli.pages.extend(html_files_in(&dir)?);
            }
            _ if arg.starts_with("--") => return Err(format!("unknown flag {arg}")),
            _ => cli.pages.push(arg.clone()),
        }
        i += 1;
    }
    if cli.pages.is_empty() {
        return Err("no input pages (positional paths or --batch dir)".into());
    }
    Ok(cli)
}

/// All `*.html` files in `dir`, sorted by file name so batch order (and
/// therefore output order) is independent of directory enumeration order.
fn html_files_in(dir: &str) -> Result<Vec<String>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("cannot read {dir}: {e}"))?;
    let mut pages = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {dir}: {e}"))?;
        let path = entry.path();
        if path.extension().is_some_and(|x| x == "html") {
            pages.push(path.to_string_lossy().into_owned());
        }
    }
    pages.sort();
    if pages.is_empty() {
        return Err(format!("no *.html pages in {dir}"));
    }
    Ok(pages)
}

/// Write a seeded HTML page corpus for batch alignment runs — the
/// workload generator behind CI's determinism stage.
fn gen_corpus(args: &[String]) -> ExitCode {
    use briq_corpus::corpus::CorpusConfig;
    use briq_corpus::page::corpus_pages;

    let Some(dir) = args.get(1).filter(|a| !a.starts_with("--")) else {
        eprintln!("--gen-corpus needs an output directory");
        return ExitCode::FAILURE;
    };
    let docs = usize_flag(args, "--docs").unwrap_or(48);
    let seed = usize_flag(args, "--seed").unwrap_or(20190408) as u64;
    let per_page = usize_flag(args, "--per-page").unwrap_or(3);

    let pages = corpus_pages(
        &CorpusConfig {
            n_documents: docs,
            seed,
            ..Default::default()
        },
        per_page,
    );
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {dir}: {e}");
        return ExitCode::FAILURE;
    }
    for (i, html) in pages.iter().enumerate() {
        let path = format!("{dir}/page_{i:04}.html");
        if let Err(e) = std::fs::write(&path, html) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!(
        "wrote {} pages ({docs} documents, seed {seed}) to {dir}",
        pages.len()
    );
    ExitCode::SUCCESS
}

fn usize_flag(args: &[String], flag: &str) -> Option<usize> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn train_demo(path: &str) -> ExitCode {
    use briq_corpus::annotate::{annotate, AnnotatorConfig};
    use briq_corpus::corpus::{generate_corpus, CorpusConfig};
    use briq_ml::split::random_split;

    eprintln!("training a demo model on a synthetic corpus…");
    let corpus = generate_corpus(&CorpusConfig {
        n_documents: 200,
        seed: 1,
        ..Default::default()
    });
    let mut docs = corpus.documents;
    annotate(&mut docs, &AnnotatorConfig::default());
    let split = random_split(docs.len(), 0.1, 0.0, 1);
    let train: Vec<_> = split.train.iter().map(|&i| docs[i].clone()).collect();
    let val: Vec<_> = split.validation.iter().map(|&i| docs[i].clone()).collect();
    let briq = Briq::train(BriqConfig::default(), &train, &val);
    match briq
        .to_json()
        .map_err(|e| e.to_string())
        .and_then(|s| std::fs::write(path, s).map_err(|e| e.to_string()))
    {
        Ok(()) => {
            eprintln!("model saved to {path}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot save model: {e}");
            ExitCode::FAILURE
        }
    }
}
