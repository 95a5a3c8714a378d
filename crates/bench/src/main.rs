//! `briq-eval` — regenerate the paper's evaluation tables.
//!
//! Usage: `briq-eval <experiment> [--docs N] [--seed S]`
//! where `<experiment>` is the first argument, one of `EXPERIMENTS`
//! (`table1` … `table9`, `ablation-extra`, `qkb`, `ilp`, `analysis`,
//! `extended`) or `all`, which runs every one and is the default. Any
//! other name prints the usage to stderr and exits 1, and so does a flag
//! that [`EVAL`]'s table does not hold, a flag without its value, a
//! `--docs` or `--seed` that is not an unsigned integer, or a flag given
//! twice ([`briq_bench::cli`] parses the table). Speed is measured by
//! the `briq-perf` benchmark, not here.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use briq_bench::cli::{self, Command, Flag};
use briq_bench::experiments::{
    evaluate_system, filtering_stats, prepare, test_documents, SetupConfig, SystemKind,
};
use briq_bench::report::{fmt, per_type_table, TextTable, TYPE_ORDER};
use briq_bench::throughput::{measure, ThroughputSystem};
use briq_core::pipeline::{Briq, BriqConfig};
use briq_core::resolution::ResolutionConfig;
use briq_core::FeatureMask;
use briq_corpus::corpus::{generate_corpus, CorpusConfig};
use briq_corpus::page::render_pages;
use briq_corpus::{Domain, Perturbation};
use briq_table::stats::average_stats;
use briq_table::virtual_cells::VirtualCellConfig;
use std::process::ExitCode;

/// Every experiment `briq-eval` knows; `all` runs each of them.
const EXPERIMENTS: [&str; 14] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "table9",
    "ablation-extra",
    "qkb",
    "ilp",
    "analysis",
    "extended",
];

/// The flags of every experiment; the experiment itself is the first
/// argument.
const EVAL: Command = Command {
    synopsis: "briq-eval <experiment>",
    positionals: false,
    flags: &[Flag::number("--docs", "N"), Flag::number("--seed", "S")],
};

fn main() -> ExitCode {
    let argv = match cli::argv() {
        Ok(argv) => argv,
        Err(e) => return refuse(&e.0),
    };
    let (experiment, rest) = match argv.split_first() {
        Some((experiment, rest)) => (experiment.as_str(), rest),
        None => ("all", &argv[..]),
    };
    if experiment != "all" && !EXPERIMENTS.contains(&experiment) {
        return refuse(&format!("briq-eval: unknown experiment `{experiment}`"));
    }
    let args = match EVAL.parse(rest) {
        Ok(args) => args,
        Err(e) => return refuse(&e.0),
    };
    let docs = args.number("--docs").unwrap_or(400);
    let seed = args.number("--seed").unwrap_or(20190408);

    let run = |name: &str| experiment == "all" || experiment == name;

    let mut setup = None;
    let mut ensure_setup = || {
        prepare(&SetupConfig {
            n_documents: docs,
            seed,
            mask: FeatureMask::all(),
        })
    };

    if run("table1") {
        let s = setup.get_or_insert_with(&mut ensure_setup);
        table1(s);
    }
    if run("table2") {
        let s = setup.get_or_insert_with(&mut ensure_setup);
        table2(s);
    }
    if run("table3") || run("table4") || run("table5") {
        let s = setup.get_or_insert_with(&mut ensure_setup);
        tables_3_to_5(s, experiment);
    }
    if run("table6") {
        let s = setup.get_or_insert_with(&mut ensure_setup);
        table6(s);
    }
    if run("table7") {
        table7(docs, seed);
    }
    if run("table8") {
        table8(docs, seed);
    }
    if run("table9") {
        table9(docs, seed);
    }
    if run("ablation-extra") {
        ablation_extra(docs, seed);
    }
    if run("qkb") {
        let s = setup.get_or_insert_with(&mut ensure_setup);
        qkb_experiment(s);
    }
    if run("ilp") {
        let s = setup.get_or_insert_with(&mut ensure_setup);
        ilp_experiment(s);
    }
    if run("analysis") {
        let s = setup.get_or_insert_with(&mut ensure_setup);
        analysis_experiment(s);
    }
    if run("extended") {
        extended_experiment(docs, seed);
    }

    ExitCode::SUCCESS
}

/// Print `err`, the usage and every experiment's name to stderr, and
/// return the exit status of a usage error (1).
fn refuse(err: &str) -> ExitCode {
    eprintln!("{err}");
    eprintln!("{}", cli::usage(&[&EVAL]));
    eprintln!("experiments: {} or all", EXPERIMENTS.join(", "));
    ExitCode::FAILURE
}

/// Extended aggregates (min/max ranking mentions): the framework
/// capability of §II-A beyond the evaluated four functions.
fn extended_experiment(docs: usize, seed: u64) {
    use briq_core::evaluate::EvalReport;
    use briq_core::training::LabeledDocument;
    use briq_corpus::annotate::{annotate, AnnotatorConfig};
    use briq_corpus::corpus::{generate_corpus, CorpusConfig, MentionWeights};
    use briq_ml::split::random_split;

    println!("== Extended aggregates: ranking mentions → min/max virtual cells ==");
    let corpus_cfg = CorpusConfig {
        n_documents: docs,
        seed,
        weights: MentionWeights {
            single: 0.62,
            ranking: 0.06,
            ..Default::default()
        },
        ..Default::default()
    };
    let corpus = generate_corpus(&corpus_cfg);
    let mut documents = corpus.documents;
    annotate(&mut documents, &AnnotatorConfig::default());

    let split = random_split(documents.len(), 0.1, 0.1, seed ^ 0x5eed);
    let train: Vec<LabeledDocument> = split.train.iter().map(|&i| documents[i].clone()).collect();
    let val: Vec<LabeledDocument> = split
        .validation
        .iter()
        .map(|&i| documents[i].clone())
        .collect();

    let mut cfg = BriqConfig::default();
    cfg.virtual_cells.extended = true;
    let briq = Briq::train(cfg, &train, &val);

    let mut report = EvalReport::default();
    for &i in &split.test {
        let ld = &documents[i];
        report.add_document(&briq.align(&ld.document), &ld.gold);
    }
    let mut t = TextTable::new(&["type", "recall", "precision", "F1"]);
    for k in ["max", "min", "sum", "single-cell"] {
        let p = report.prf_for(k);
        t.row(vec![
            k.to_string(),
            fmt(p.recall),
            fmt(p.precision),
            fmt(p.f1),
        ]);
    }
    let o = report.overall();
    t.row(vec![
        "overall".into(),
        fmt(o.recall),
        fmt(o.precision),
        fmt(o.f1),
    ]);
    println!("{}", t.render());
}

/// The QKB baseline (§VII-D): exact-match linking through a small quantity
/// knowledge base — demonstrates why the paper dismissed it.
fn qkb_experiment(s: &Setup) {
    println!("== QKB baseline (exact-match canonicalization, §VII-D) ==");
    let docs = test_documents(s, Perturbation::Original);
    let mut qkb = briq_core::evaluate::EvalReport::default();
    let mut briq_rep = briq_core::evaluate::EvalReport::default();
    for ld in &docs {
        qkb.add_document(
            &briq_core::baselines::qkb_only(&s.briq, &ld.document),
            &ld.gold,
        );
        briq_rep.add_document(&s.briq.align(&ld.document), &ld.gold);
    }
    let mut t = TextTable::new(&["system", "recall", "precision", "F1"]);
    let q = qkb.overall();
    let b = briq_rep.overall();
    t.row(vec![
        "QKB".into(),
        fmt(q.recall),
        fmt(q.precision),
        fmt(q.f1),
    ]);
    t.row(vec![
        "BriQ".into(),
        fmt(b.recall),
        fmt(b.precision),
        fmt(b.f1),
    ]);
    println!("{}", t.render());
    println!("(low QKB recall = limited unit coverage + exact matching only)\n");
}

/// Exact ILP-style resolution vs the random walk: quality and cost
/// (§VI: the ILP approach "did not scale sufficiently well").
fn ilp_experiment(s: &Setup) {
    use briq_core::resolution_ilp::{resolve_ilp, IlpConfig};
    use std::time::Instant;

    println!("== ILP vs RWR global resolution (§VI) ==");
    let docs = test_documents(s, Perturbation::Original);
    let mut rwr_rep = briq_core::evaluate::EvalReport::default();
    let mut ilp_rep = briq_core::evaluate::EvalReport::default();
    let mut rwr_time = 0.0f64;
    let mut ilp_time = 0.0f64;
    let mut ilp_nodes = 0usize;
    let mut exhausted = 0usize;

    for ld in &docs {
        let t0 = Instant::now();
        let alignments = s.briq.align(&ld.document);
        rwr_time += t0.elapsed().as_secs_f64();
        rwr_rep.add_document(&alignments, &ld.gold);

        let sd = s.briq.score_document(&ld.document);
        let (candidates, _) = s.briq.filter(&sd);
        let t1 = Instant::now();
        let sol = resolve_ilp(&candidates, &sd.targets, &IlpConfig::default());
        ilp_time += t1.elapsed().as_secs_f64();
        ilp_nodes += sol.nodes;
        if sol.budget_exhausted {
            exhausted += 1;
        }
        let ilp_alignments: Vec<briq_core::Alignment> = sol
            .assignment
            .iter()
            .enumerate()
            .filter_map(|(mi, a)| {
                a.map(|ti| briq_core::Alignment::new(&sd.mentions[mi], &sd.targets[ti], 1.0))
            })
            .collect();
        ilp_rep.add_document(&ilp_alignments, &ld.gold);
    }

    // The paper's setting: exact inference over the *unpruned* pair space
    // (classifier scores, no adaptive filtering) — this is where ILP
    // stops scaling.
    let mut raw_time = 0.0f64;
    let mut raw_nodes = 0usize;
    let mut raw_exhausted = 0usize;
    let raw_budget = IlpConfig {
        node_budget: 300_000,
        ..Default::default()
    };
    for ld in docs.iter().take(10) {
        let sd = s.briq.score_document(&ld.document);
        let candidates: Vec<Vec<briq_core::filtering::Candidate>> = sd
            .scored
            .iter()
            .map(|row| {
                let mut cs: Vec<briq_core::filtering::Candidate> = row
                    .iter()
                    .map(|&(target, score)| briq_core::filtering::Candidate { target, score })
                    .collect();
                cs.sort_by(|a, b| {
                    b.score
                        .partial_cmp(&a.score)
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                cs
            })
            .collect();
        let t2 = std::time::Instant::now();
        let sol = resolve_ilp(&candidates, &sd.targets, &raw_budget);
        raw_time += t2.elapsed().as_secs_f64();
        raw_nodes += sol.nodes;
        if sol.budget_exhausted {
            raw_exhausted += 1;
        }
    }

    let mut t = TextTable::new(&["resolver", "F1", "total seconds", "notes"]);
    let r = rwr_rep.overall();
    let i = ilp_rep.overall();
    t.row(vec![
        "RWR (Algorithm 1)".into(),
        fmt(r.f1),
        format!("{rwr_time:.2}"),
        "-".into(),
    ]);
    t.row(vec![
        "ILP on filtered pairs".into(),
        fmt(i.f1),
        format!("{ilp_time:.2}"),
        format!("{ilp_nodes} nodes, {exhausted} budget-exhausted docs"),
    ]);
    t.row(vec![
        "ILP on unpruned pairs".into(),
        "-".into(),
        format!("{raw_time:.2} (first 10 docs only)"),
        format!("{raw_nodes} nodes, {raw_exhausted}/10 budget-exhausted"),
    ]);
    println!("{}", t.render());
    println!("(the unpruned setting is the one the paper abandoned, §VI)\n");
}

/// Feature-importance and calibration analysis of the trained classifier.
fn analysis_experiment(s: &Setup) {
    use briq_core::training::{build_training_examples, examples_to_dataset};

    println!("== Classifier analysis: permutation importance & calibration ==");
    let docs = test_documents(s, Perturbation::Original);
    let briq_cfg = BriqConfig::default();
    let (examples, _) = build_training_examples(&docs, &briq_cfg.virtual_cells, &briq_cfg.context);
    let data = examples_to_dataset(&examples);

    // permutation importance of the trained prior
    let imp = briq_ml::permutation_importance(&data, |r| s.briq.prior(r), 3, 11);
    let names = [
        "f1 surface",
        "f2 local words",
        "f3 global words",
        "f4 local phrases",
        "f5 global phrases",
        "f6 rel diff",
        "f7 raw rel diff",
        "f8 unit match",
        "f9 scale diff",
        "f10 precision diff",
        "f11 approx",
        "f12 agg match",
    ];
    let mut t = TextTable::new(&["feature", "AUC drop"]);
    let mut order: Vec<usize> = (0..imp.len()).collect();
    order.sort_by(|&a, &b| {
        imp[b]
            .partial_cmp(&imp[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    for i in order {
        t.row(vec![
            names.get(i).unwrap_or(&"?").to_string(),
            format!("{:+.4}", imp[i]),
        ]);
    }
    println!("{}", t.render());

    // calibration of σ on held-out pairs
    let scores: Vec<f64> = data.features.iter().map(|r| s.briq.prior(r)).collect();
    let bins = briq_ml::calibration_curve(&scores, &data.labels, 10);
    let ece = briq_ml::expected_calibration_error(&bins);
    let mut t = TextTable::new(&["mean predicted", "observed", "count"]);
    for b in &bins {
        t.row(vec![
            format!("{:.2}", b.mean_predicted),
            format!("{:.2}", b.observed),
            b.count.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("expected calibration error: {ece:.4} (vote fractions, §IV-A)\n");
}

type Setup = briq_bench::experiments::ExperimentSetup;

fn table1(s: &Setup) {
    println!(
        "== Table I: classifier training data (annotator kappa {:.4}) ==",
        s.kappa
    );
    let mut t = TextTable::new(&["type", "#pos", "#neg"]);
    for k in TYPE_ORDER {
        let (p, n) = s.breakdown.by_type.get(k).copied().unwrap_or((0, 0));
        t.row(vec![k.to_string(), p.to_string(), n.to_string()]);
    }
    let (p, n) = s.breakdown.totals();
    t.row(vec!["total".into(), p.to_string(), n.to_string()]);
    println!("{}", t.render());
}

fn table2(s: &Setup) {
    println!("== Table II: results for original, truncated and rounded mentions ==");
    let mut t = TextTable::new(&[
        "", "RF", "RWR", "BriQ", "RF(tr)", "RWR(tr)", "BriQ(tr)", "RF(rd)", "RWR(rd)", "BriQ(rd)",
    ]);
    let mut rows = vec![
        vec!["recall".to_string()],
        vec!["prec.".to_string()],
        vec!["F1".to_string()],
    ];
    for p in Perturbation::ALL {
        let docs = test_documents(s, p);
        for sys in SystemKind::ALL {
            let r = evaluate_system(&s.briq, sys, &docs);
            let o = r.overall();
            rows[0].push(fmt(o.recall));
            rows[1].push(fmt(o.precision));
            rows[2].push(fmt(o.f1));
        }
    }
    for r in rows {
        t.row(r);
    }
    println!("{}", t.render());
}

fn tables_3_to_5(s: &Setup, experiment: &str) {
    let docs = test_documents(s, Perturbation::Original);
    for (sys, table) in [
        (SystemKind::Rf, "table3"),
        (SystemKind::Rwr, "table4"),
        (SystemKind::Briq, "table5"),
    ] {
        if experiment != "all" && experiment != table {
            continue;
        }
        let r = evaluate_system(&s.briq, sys, &docs);
        println!(
            "== Table {}: results by mention type, using {} ==",
            &table[5..],
            sys.name()
        );
        println!("{}", per_type_table(&r));
    }
}

fn table6(s: &Setup) {
    println!("== Table VI: selectivity and recall after filtering ==");
    let docs = test_documents(s, Perturbation::Original);
    let (stats, recall) = filtering_stats(&s.briq, &docs);
    let mut t = TextTable::new(&["type", "selectivity", "recall"]);
    for k in TYPE_ORDER {
        let sel = stats
            .selectivity(k)
            .map(|v| {
                if v < 0.005 {
                    "< 0.01".to_string()
                } else {
                    fmt(v)
                }
            })
            .unwrap_or_else(|| "-".into());
        let rec = recall.recall(k).map(fmt).unwrap_or_else(|| "-".into());
        t.row(vec![k.to_string(), sel, rec]);
    }
    t.row(vec![
        "overall".into(),
        fmt(stats.overall_selectivity()),
        fmt(recall.overall()),
    ]);
    println!("{}", t.render());
}

fn table7(docs: usize, seed: u64) {
    println!("== Table VII: ablation study (recall / precision / F1) ==");
    let masks = [
        ("all features", FeatureMask::all()),
        (
            "w/o surf. sim.",
            FeatureMask {
                surface: false,
                context: true,
                quantity: true,
            },
        ),
        (
            "w/o context",
            FeatureMask {
                surface: true,
                context: false,
                quantity: true,
            },
        ),
        (
            "w/o quantity",
            FeatureMask {
                surface: true,
                context: true,
                quantity: false,
            },
        ),
    ];
    let mut t = TextTable::new(&[
        "", "RF-R", "RWR-R", "BriQ-R", "RF-P", "RWR-P", "BriQ-P", "RF-F1", "RWR-F1", "BriQ-F1",
    ]);
    for (label, mask) in masks {
        let s = prepare(&SetupConfig {
            n_documents: docs,
            seed,
            mask,
        });
        let test = test_documents(&s, Perturbation::Original);
        let mut row = vec![label.to_string()];
        let reports: Vec<_> = SystemKind::ALL
            .iter()
            .map(|&sys| evaluate_system(&s.briq, sys, &test).overall())
            .collect();
        for r in &reports {
            row.push(fmt(r.recall));
        }
        for r in &reports {
            row.push(fmt(r.precision));
        }
        for r in &reports {
            row.push(fmt(r.f1));
        }
        t.row(row);
    }
    println!("{}", t.render());
}

fn table8(docs: usize, seed: u64) {
    println!("== Table VIII: throughput by domain (docs/min) ==");
    let s = prepare(&SetupConfig {
        n_documents: docs,
        seed,
        mask: FeatureMask::all(),
    });
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut t = TextTable::new(&[
        "domain",
        "pages",
        "documents",
        "mentions",
        "docs/min",
        "RWR docs/min",
    ]);
    let mut total = (0usize, 0usize, 0usize, 0.0f64, 0.0f64);
    for domain in Domain::ALL {
        let domain_docs: Vec<_> = s
            .documents
            .iter()
            .zip(&s.domains)
            .filter(|&(_, d)| *d == domain)
            .map(|(ld, _)| ld.clone())
            .collect();
        if domain_docs.is_empty() {
            continue;
        }
        let pages = render_pages(&domain_docs, 3);
        let r = measure(&s.briq, ThroughputSystem::Briq, &pages, workers);
        let rwr = measure(&s.briq, ThroughputSystem::RwrOnly, &pages, workers);
        t.row(vec![
            domain.name().to_string(),
            r.pages.to_string(),
            r.documents.to_string(),
            r.mentions.to_string(),
            format!("{:.0}", r.docs_per_minute()),
            format!("{:.0}", rwr.docs_per_minute()),
        ]);
        total.0 += r.pages;
        total.1 += r.documents;
        total.2 += r.mentions;
        total.3 += r.seconds;
        total.4 += rwr.seconds;
    }
    t.row(vec![
        "total".into(),
        total.0.to_string(),
        total.1.to_string(),
        total.2.to_string(),
        format!("{:.0}", total.1 as f64 * 60.0 / total.3.max(1e-9)),
        format!("{:.0}", total.1 as f64 * 60.0 / total.4.max(1e-9)),
    ]);
    println!("{}", t.render());
}

fn table9(docs: usize, seed: u64) {
    println!("== Table IX: table statistics by domain ==");
    let corpus = generate_corpus(&CorpusConfig {
        n_documents: docs,
        seed,
        ..Default::default()
    });
    let vc = VirtualCellConfig::default();
    let mut t = TextTable::new(&["domain", "rows", "columns", "single cells", "virtual cells"]);
    let mut all_tables = Vec::new();
    for domain in Domain::ALL {
        let tables: Vec<_> = corpus
            .documents
            .iter()
            .zip(&corpus.domains)
            .filter(|&(_, d)| *d == domain)
            .flat_map(|(ld, _)| ld.document.tables.iter())
            .collect();
        if tables.is_empty() {
            continue;
        }
        let avg = average_stats(tables.iter().copied(), &vc);
        all_tables.extend(tables);
        t.row(vec![
            domain.name().to_string(),
            format!("{:.0}", avg.rows),
            format!("{:.0}", avg.columns),
            format!("{:.0}", avg.single_cells),
            format!("{:.0}", avg.virtual_cells),
        ]);
    }
    let avg = average_stats(all_tables, &vc);
    t.row(vec![
        "average".into(),
        format!("{:.0}", avg.rows),
        format!("{:.0}", avg.columns),
        format!("{:.0}", avg.single_cells),
        format!("{:.0}", avg.virtual_cells),
    ]);
    println!("{}", t.render());
}

/// Extra ablations beyond the paper (DESIGN.md §3): entropy ordering,
/// graph updates, adaptive top-k, α/β mixing.
fn ablation_extra(docs: usize, seed: u64) {
    println!("== Extra ablations (BriQ F1, original mentions) ==");
    let s = prepare(&SetupConfig {
        n_documents: docs,
        seed,
        mask: FeatureMask::all(),
    });
    let test = test_documents(&s, Perturbation::Original);

    let f1_with = |briq: &Briq| {
        let mut report = briq_core::evaluate::EvalReport::default();
        for ld in &test {
            report.add_document(&briq.align(&ld.document), &ld.gold);
        }
        report.overall().f1
    };

    let mut t = TextTable::new(&["variant", "F1"]);
    t.row(vec!["full BriQ".into(), fmt(f1_with(&s.briq))]);

    // α/β sweep of Eq. 1.
    for (alpha, beta) in [(1.0, 0.0), (0.0, 1.0), (0.5, 0.5)] {
        let mut briq = s.briq.clone();
        briq.cfg.resolution = ResolutionConfig {
            alpha,
            beta,
            ..briq.cfg.resolution
        };
        t.row(vec![
            format!("alpha={alpha} beta={beta}"),
            fmt(f1_with(&briq)),
        ]);
    }

    // Fixed small top-k instead of adaptive.
    {
        let mut briq = s.briq.clone();
        briq.cfg.filter.k_exact = 2;
        briq.cfg.filter.k_approx = 2;
        briq.cfg.filter.k_small = 2;
        briq.cfg.filter.k_large = 2;
        t.row(vec!["fixed top-2 filter".into(), fmt(f1_with(&briq))]);
    }

    // No virtual cells at all.
    {
        let mut cfg = BriqConfig::default();
        cfg.virtual_cells.sums = false;
        cfg.virtual_cells.differences = false;
        cfg.virtual_cells.percentages = false;
        cfg.virtual_cells.change_ratios = false;
        let mut briq = s.briq.clone();
        briq.cfg.virtual_cells = cfg.virtual_cells;
        t.row(vec!["no virtual cells".into(), fmt(f1_with(&briq))]);
    }
    println!("{}", t.render());
}
