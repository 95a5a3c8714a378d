//! `briq-align` — align quantities in HTML pages from the command line.
//!
//! ```text
//! briq-align <page.html>... [--batch DIR]... [--jobs N] [--model model.json]
//!            [--json] [--oracle] [--store-dir DIR] [--store-max-bytes N]
//!            [--repeat N] [--warm-from DIR] [--diagnostics diag.jsonl]
//!            [--trace trace.json] [--metrics metrics.jsonl]
//! briq-align --train-demo <model.json>       # train on a synthetic corpus
//! briq-align --gen-corpus <dir> [--docs N] [--seed S] [--per-page K]
//! ```
//!
//! The three flag tables below ([`ALIGN`], [`TRAIN_DEMO`],
//! [`GEN_CORPUS`]) are parsed by [`briq_bench::cli`]: an unknown flag, a
//! flag without its value, a count that is not an unsigned integer, or a
//! value flag given twice (`--batch` may repeat) prints the error and
//! the usage and exits 1 before any work starts.
//!
//! Pages come from positional arguments and/or `--batch <dir>` (every
//! `*.html` in the directory, sorted by name), in argv order. All
//! segmented documents from all pages form one batch that runs through
//! the parallel batch-alignment engine ([`briq_core::batch`]) with
//! `--jobs N` workers (default 1, `0` = one per core). Output order and
//! content are bit-identical for every `--jobs` value — CI's determinism
//! stage relies on that. Without `--model`, the heuristic (untrained)
//! prior is used; `--gen-corpus` writes a seeded page corpus for batch
//! runs.
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

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use briq_bench::cli::{self, Arg, Args, Command, Flag, UsageError, EXIT_DEGRADED};
use briq_core::batch::BatchConfig;
use briq_core::obs::names;
use briq_core::pipeline::{Briq, BriqConfig};
use briq_core::{ingest_page, DegradedAction, Diagnostic, Diagnostics, Stage};
use briq_corpus::corpus::CorpusConfig;
use briq_table::Document;
use std::path::PathBuf;
use std::process::ExitCode;

/// Align pages: the default command.
const ALIGN: Command = Command {
    synopsis: "briq-align <page.html>...",
    positionals: true,
    flags: &[
        Flag::repeated("--batch", "DIR"),
        Flag::number("--jobs", "N"),
        Flag::text("--model", "model.json"),
        Flag::switch("--json"),
        Flag::switch("--oracle"),
        Flag::text("--store-dir", "DIR"),
        Flag::number("--store-max-bytes", "N"),
        Flag::number("--repeat", "N"),
        Flag::text("--warm-from", "DIR"),
        Flag::text("--diagnostics", "diag.jsonl"),
        Flag::text("--trace", "trace.json"),
        Flag::text("--metrics", "metrics.jsonl"),
    ],
};

/// Train a demo model and save it.
const TRAIN_DEMO: Command = Command {
    synopsis: "briq-align --train-demo <model.json>",
    positionals: true,
    flags: &[],
};

/// Write a seeded page corpus.
const GEN_CORPUS: Command = Command {
    synopsis: "briq-align --gen-corpus <dir>",
    positionals: true,
    flags: &[
        Flag::number("--docs", "N"),
        Flag::number("--seed", "S"),
        Flag::number("--per-page", "K"),
    ],
};

const COMMANDS: [&Command; 3] = [&ALIGN, &TRAIN_DEMO, &GEN_CORPUS];

fn main() -> ExitCode {
    let run = cli::argv().and_then(|argv| match argv.first().map(String::as_str) {
        Some("--train-demo") => TRAIN_DEMO.parse(&argv[1..]).and_then(|args| {
            let path = args.sole_positional("--train-demo needs an output path")?;
            Ok(train_demo(path))
        }),
        Some("--gen-corpus") => GEN_CORPUS.parse(&argv[1..]).and_then(|args| {
            let dir = args.sole_positional("--gen-corpus needs an output directory")?;
            Ok(gen_corpus(dir, &args))
        }),
        _ => parse_align(&argv).map(|(args, pages)| align(&args, &pages)),
    });
    run.unwrap_or_else(|e| cli::refuse(&e, &COMMANDS))
}

/// Align `pages` as the flags in `args` say, and print the alignments.
fn align(args: &Args, pages: &[PathBuf]) -> ExitCode {
    let mut briq = match cli::load_model(args.value("--model")) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if args.switch("--oracle") {
        briq.cfg = briq.cfg.reference();
    }

    let (docs, keys, io_diags) = load_documents(pages);
    if docs.is_empty() {
        eprintln!("no paragraph/table documents found in any readable input page");
        return ExitCode::FAILURE;
    }

    // The batch engine always records metrics; only the trace export
    // needs the per-document span trees kept. Neither changes alignment
    // output (CI byte-compares traced and untraced runs to enforce that).
    let cfg = BatchConfig {
        trace: args.value("--trace").is_some(),
        ..BatchConfig::with_jobs(args.number("--jobs").unwrap_or(1))
    };

    // One store serves the whole process: the optional warm-from corpus,
    // then every repetition of the real batch. With `use_store: false`
    // `align_with` never consults it.
    let store = match cli::open_store(&briq, args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(dir) = args.value("--warm-from") {
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
    }

    let repeat = args.number("--repeat").unwrap_or(1);
    let mut report = briq.align_batch_stored(&docs, &cfg, &store, Some(&keys));
    for rep in 1..=repeat {
        if rep > 1 {
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
            // Every document of the repetition is one store lookup.
            let m = report.merged_metrics();
            let (lookups, hits) = (docs.len(), m.counter(names::STORE_HITS));
            eprintln!(
                "store: repeat {rep}/{repeat} lookups {lookups} hits {hits} hit_rate {:.3} \
                 invalidations {} mentions_realigned {}",
                hits as f64 / lookups as f64,
                m.counter(names::STORE_INVALIDATIONS),
                m.counter(names::MENTIONS_REALIGNED)
            );
        }
    }
    cli::snapshot_store(&store);
    for (doc, dr) in docs.iter().zip(&report.documents) {
        if args.switch("--json") {
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

    if let Some(path) = args.value("--trace") {
        if let Err(e) = std::fs::write(path, report.chrome_trace()) {
            eprintln!("cannot write trace to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("trace written to {path} (open in chrome://tracing or ui.perfetto.dev)");
    }
    if let Some(path) = args.value("--metrics") {
        if let Err(e) = cli::write_metrics(path, &report.merged_metrics()) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }

    // Page-level I/O diagnostics lead the stream (they have no batch
    // index), followed by the per-document diagnostics in input order.
    let had_io_errors = !io_diags.is_clean();
    let mut all_diags = io_diags;
    all_diags.items.extend(report.combined_diagnostics().items);
    let jsonl = all_diags.to_jsonl();
    if let Some(path) = args.value("--diagnostics") {
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

/// Read and ingest every page ([`ingest_page`]), producing the batch
/// documents plus one stable store key per document, derived from the
/// page's [`cli::page_identity`] (its basename, decoded lossily) and the
/// segment index. Basename (not full path) keying lets a warm store
/// built from one directory serve a mutated copy of the same corpus in
/// another (CI's store stage), and `briq-serve drive` over the same
/// pages.
///
/// An unreadable page degrades to one diagnostic and is skipped; the
/// rest of the batch still aligns. Pages with invalid UTF-8 are decoded
/// lossily ([`cli::read_page`]); only pages that cannot be opened at all
/// are dropped.
fn load_documents(paths: &[PathBuf]) -> (Vec<Document>, Vec<u64>, Diagnostics) {
    let mut docs: Vec<Document> = Vec::new();
    let mut keys: Vec<u64> = Vec::new();
    let mut io_diags = Diagnostics::default();
    for page_path in paths {
        let shown = page_path.display();
        let html = match cli::read_page(page_path) {
            Ok(html) => html,
            Err(e) => {
                io_diags.items.push(Diagnostic {
                    stage: Stage::Batch,
                    scope: format!("page {shown}"),
                    error: format!("cannot read page: {e}"),
                    action: DegradedAction::Skipped,
                });
                eprintln!("cannot read {shown}: {e} (page skipped)");
                continue;
            }
        };
        let identity = cli::page_identity(page_path);
        let (page_docs, page_keys) = ingest_page(&identity, &html, docs.len());
        if page_docs.is_empty() {
            eprintln!("warning: no paragraph/table documents found in {shown}");
        }
        docs.extend(page_docs);
        keys.extend(page_keys);
    }
    (docs, keys, io_diags)
}

/// Check an align command line and list its pages: the positional
/// ones and every page of each `--batch` directory, in argv order.
fn parse_align(argv: &[String]) -> Result<(Args, Vec<PathBuf>), UsageError> {
    let args = ALIGN.parse(argv)?;
    let mut pages = Vec::new();
    for arg in args.iter() {
        match arg {
            Arg::Positional(page) => pages.push(PathBuf::from(page)),
            Arg::Flag("--batch", Some(dir)) => {
                pages.extend(html_files_in(dir).map_err(UsageError)?)
            }
            Arg::Flag(..) => {}
        }
    }
    if pages.is_empty() {
        return Err(UsageError(
            "no input pages (positional paths or --batch dir)".into(),
        ));
    }
    if args.number::<usize>("--repeat") == Some(0) {
        return Err(UsageError("--repeat: count must be >= 1".into()));
    }
    Ok((args, pages))
}

/// All `*.html` files in `dir`, sorted by the bytes of their file names
/// so batch order (and therefore output order) is independent of
/// directory enumeration order. A name need not be UTF-8.
fn html_files_in(dir: &str) -> Result<Vec<PathBuf>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("cannot read {dir}: {e}"))?;
    let mut pages = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {dir}: {e}"))?;
        let path = entry.path();
        if path.extension().is_some_and(|x| x == "html") {
            pages.push(path);
        }
    }
    pages.sort_by(|a, b| a.file_name().cmp(&b.file_name()));
    if pages.is_empty() {
        return Err(format!("no *.html pages in {dir}"));
    }
    Ok(pages)
}

/// Write the seeded HTML page corpus the flags in `args` ask for into
/// `dir`, for batch alignment runs — the workload generator behind CI's
/// determinism stage.
fn gen_corpus(dir: &str, args: &Args) -> ExitCode {
    let cfg = CorpusConfig {
        n_documents: args.number("--docs").unwrap_or(48),
        seed: args.number("--seed").unwrap_or(20190408),
        ..Default::default()
    };
    let pages = briq_corpus::page::corpus_pages(&cfg, args.number("--per-page").unwrap_or(3));
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
        "wrote {} pages ({} documents, seed {}) to {dir}",
        pages.len(),
        cfg.n_documents,
        cfg.seed
    );
    ExitCode::SUCCESS
}

/// Train a model on a synthetic corpus and save it to `path`.
fn train_demo(path: &str) -> ExitCode {
    use briq_corpus::annotate::{annotate, AnnotatorConfig};
    use briq_corpus::corpus::generate_corpus;
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
