//! `briq-perf` — the end-to-end benchmark of BriQ (see README.md).
//!
//! ```text
//! briq-perf run --workload W [--seed S] [--seconds N] [--trace 0|1]
//!               [--out results.jsonl] [--spans spans.jsonl]
//! briq-perf prepare [--seed S]
//! briq-perf compare BASE.jsonl HEAD.jsonl [--bench BENCHMARK.json]
//! ```
//!
//! `run` prints every metric with its unit, checks the outputs, and ends
//! with one JSON result line. It exits non-zero when any output check
//! fails, and without a result line when it cannot run at all. Paths
//! are relative to the repository root, which `run.sh` changes into.

mod batch;
mod compare;
mod fixture;
mod layers;
mod metrics;
mod stats;
mod trace;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use briq_json::Value;

use crate::metrics::{Outcome, END_TO_END, PER_LAYER};

const USAGE: &str = "usage: briq-perf run --workload batch_cold|recrawl [--seed S] \
     [--seconds N] [--trace 0|1] [--out results.jsonl] [--spans spans.jsonl]\n       \
     briq-perf prepare [--seed S]\n       \
     briq-perf compare BASE.jsonl HEAD.jsonl [--bench BENCHMARK.json]";

const DEFAULT_SEED: u64 = 20190408;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BatchCold,
    Recrawl,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "batch_cold" => Some(Workload::BatchCold),
            "recrawl" => Some(Workload::Recrawl),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::BatchCold => "batch_cold",
            Workload::Recrawl => "recrawl",
        }
    }
}

/// One `run` invocation.
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured part of the run.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
    pub out: Option<PathBuf>,
    pub spans: Option<PathBuf>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => return run(&args[1..]),
        Some("prepare") => prepare(&args[1..]),
        Some("compare") => compare_cmd(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("briq-perf: {e}");
            ExitCode::FAILURE
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn seed(args: &[String]) -> Result<u64, String> {
    flag(args, "--seed").map_or(Ok(DEFAULT_SEED), |s| {
        s.parse().map_err(|_| format!("--seed: invalid seed {s:?}"))
    })
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let known = [
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--out",
        "--spans",
    ];
    for pair in args.chunks(2) {
        if !known.contains(&pair[0].as_str()) || pair.len() < 2 {
            return Err(format!("unexpected argument {:?}\n{USAGE}", pair[0]));
        }
    }
    let workload = flag(args, "--workload")
        .and_then(Workload::parse)
        .ok_or_else(|| format!("--workload must be batch_cold or recrawl\n{USAGE}"))?;
    let seconds: f64 = flag(args, "--seconds")
        .unwrap_or("10")
        .parse()
        .ok()
        .filter(|s: &f64| s.is_finite() && *s > 0.0)
        .ok_or("--seconds must be a positive number")?;
    let trace = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    Ok(RunArgs {
        workload,
        seed: seed(args)?,
        seconds,
        trace,
        out: flag(args, "--out").map(PathBuf::from),
        spans: flag(args, "--spans").map(PathBuf::from),
    })
}

fn run(argv: &[String]) -> ExitCode {
    let args = match parse_run(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("briq-perf: {e}");
            return ExitCode::from(2);
        }
    };
    match run_workload(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("briq-perf: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

fn run_workload(args: &RunArgs) -> Result<ExitCode, String> {
    let model = fixture::prepare_model()?;
    println!(
        "briq-perf {} seed {} for {} s, trace {}; model {:016x}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        model.digest
    );
    let mut out = Outcome::default();
    match args.workload {
        Workload::BatchCold => batch::batch_cold(args, &model, &mut out)?,
        Workload::Recrawl => batch::recrawl(args, &model, &mut out)?,
    }
    let catalogue = if args.trace {
        layers::zero_unmeasured(&mut out);
        PER_LAYER
    } else {
        END_TO_END
    };
    let result = out.result(catalogue)?;
    for &(name, unit) in catalogue {
        println!("{name:<36} {:>16.6} {unit}", out.values[name]);
    }
    println!(
        "attempted {}, failed {} (failed ratio {:.6})",
        out.attempted,
        out.failed,
        layers::ratio(out.failed as f64, out.attempted as f64)
    );
    for f in &out.failures {
        println!("FAILED: {f}");
    }
    if let Some(path) = &args.out {
        let record = Value::Object(vec![
            ("workload".into(), Value::Str(args.workload.name().into())),
            ("seed".into(), Value::Num(args.seed as f64)),
            ("trace".into(), Value::Bool(args.trace)),
            ("result".into(), result.clone()),
        ]);
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", record.to_string_compact()))
            .map_err(|e| format!("cannot append to {}: {e}", path.display()))?;
    }
    println!("{}", result.to_string_compact());
    Ok(if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Build every cached input of `--seed`. The model is trained twice:
/// the second training must reproduce the first byte for byte.
fn prepare(args: &[String]) -> Result<ExitCode, String> {
    let seed = seed(args)?;
    fixture::prepare_model()?;
    let model = fixture::prepare_model()?;
    let pages = fixture::batch_pages(seed)?;
    let (store, entries) = batch::warm_store(seed, &model, fixture::slice(&pages, 0))?;
    println!(
        "model {} (digest {:016x}, reproduced); {} pages in {}; warm store of {entries} entries in {}",
        model.path.display(),
        model.digest,
        pages.len(),
        fixture::seed_dir(seed).display(),
        store.display()
    );
    Ok(ExitCode::SUCCESS)
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let files: Vec<&String> = args
        .iter()
        .enumerate()
        .filter(|&(i, a)| !a.starts_with("--") && (i == 0 || args[i - 1] != "--bench"))
        .map(|(_, a)| a)
        .collect();
    let [base, head] = files[..] else {
        return Err(USAGE.to_string());
    };
    let bench = flag(args, "--bench").unwrap_or("BENCHMARK.json");
    let regressed = compare::compare(bench.as_ref(), base.as_ref(), head.as_ref())?;
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
