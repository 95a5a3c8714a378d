//! `briq-perf compare BASE HEAD`: one verdict per workload and
//! end-to-end metric, judged against the bounds in `BENCHMARK.json`.
//!
//! BASE and HEAD are files written by `run --out`, one result per line.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use briq_json::Value;

use crate::stats::{median, quartiles, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The runs spread wider than the bound, so a change within it
    /// cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of the base median by which the metric may worsen.
    pub bound: f64,
}

/// Judge `head` against `base`, each a list of `(seed, value)` runs.
///
/// * Either side's spread (interquartile distance over median) wider
///   than `bound`: unresolved, unless every head run beats (or loses
///   to) every base run.
/// * Head median worse than base median by more than `bound`: regressed.
/// * Head better on at least nine tenths of the seeds both sides ran,
///   ties counting for neither, and the medians further apart than the
///   base runs' interquartile distance: improved.
/// * Otherwise unchanged.
pub fn verdict(base: &[(u64, f64)], head: &[(u64, f64)], d: &Declared) -> Verdict {
    if base.len() < 2 || head.len() < 2 {
        return Verdict::Unresolved;
    }
    let better = |a: f64, b: f64| if d.lower_is_better { a < b } else { a > b };
    let bv: Vec<f64> = base.iter().map(|r| r.1).collect();
    let hv: Vec<f64> = head.iter().map(|r| r.1).collect();
    let (bm, hm) = (median(&bv), median(&hv));
    if spread(&bv) > d.bound || spread(&hv) > d.bound {
        return if hv.iter().all(|&h| bv.iter().all(|&b| better(h, b))) {
            Verdict::Improved
        } else if hv.iter().all(|&h| bv.iter().all(|&b| better(b, h))) {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    let worse_by = if d.lower_is_better {
        (hm - bm) / bm.abs()
    } else {
        (bm - hm) / bm.abs()
    };
    if worse_by > d.bound {
        return Verdict::Regressed;
    }
    let base_by_seed: BTreeMap<u64, f64> = base.iter().copied().collect();
    let (mut pairs, mut wins) = (0usize, 0usize);
    for &(seed, h) in head {
        if let Some(&b) = base_by_seed.get(&seed) {
            pairs += 1;
            wins += usize::from(better(h, b));
        }
    }
    let iqr = quartiles(&bv).map_or(f64::INFINITY, |(q1, q3)| q3 - q1);
    if pairs > 0 && wins * 10 >= pairs * 9 && better(hm, bm) && (hm - bm).abs() > iqr {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// The end-to-end metrics of a `BENCHMARK.json` document.
pub fn declared(bench: &Value) -> Result<Vec<Declared>, String> {
    bench
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let better = m.get("better").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            match (name, better, bound) {
                (Some(n), Some(b @ ("lower" | "higher")), Some(bound)) => Ok(Declared {
                    name: n.to_string(),
                    lower_is_better: b == "lower",
                    bound,
                }),
                _ => Err(format!(
                    "malformed end_to_end entry {}",
                    m.to_string_compact()
                )),
            }
        })
        .collect()
}

/// workload → metric → `(seed, value)` runs, from untraced results.
type Runs = BTreeMap<String, BTreeMap<String, Vec<(u64, f64)>>>;

fn read_runs(path: &Path) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = briq_json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        if v.get("trace").and_then(Value::as_bool) == Some(true) {
            continue;
        }
        let workload = v.get("workload").and_then(Value::as_str);
        let seed = v.get("seed").and_then(Value::as_f64);
        let metrics = v
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_object);
        let (Some(workload), Some(seed), Some(metrics)) = (workload, seed, metrics) else {
            return Err(format!(
                "{}:{}: not a briq-perf result",
                path.display(),
                n + 1
            ));
        };
        for (name, m) in metrics {
            if let Some(x) = m.get("value").and_then(Value::as_f64) {
                runs.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push((seed as u64, x));
            }
        }
    }
    Ok(runs)
}

/// Print the verdict table. Returns whether any metric regressed.
pub fn compare(bench: &Path, base: &Path, head: &Path) -> Result<bool, String> {
    let text = std::fs::read_to_string(bench)
        .map_err(|e| format!("cannot read {}: {e}", bench.display()))?;
    let decl = declared(&briq_json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?)?;
    let (base, head) = (read_runs(base)?, read_runs(head)?);
    let workloads: BTreeSet<&String> = base.keys().chain(head.keys()).collect();
    let none = Vec::new();
    let mut regressed = false;
    println!(
        "{:<12} {:<12} {:>14} {:>7} {:>14} {:>7} {:>8}  verdict",
        "workload", "metric", "base median", "spread", "head median", "spread", "change"
    );
    for w in workloads {
        for d in &decl {
            let runs = |r: &Runs| -> Vec<(u64, f64)> {
                r.get(w)
                    .and_then(|m| m.get(&d.name))
                    .unwrap_or(&none)
                    .clone()
            };
            let (b, h) = (runs(&base), runs(&head));
            let v = verdict(&b, &h, d);
            regressed |= v == Verdict::Regressed;
            let vals = |r: &[(u64, f64)]| r.iter().map(|x| x.1).collect::<Vec<f64>>();
            let (bm, hm) = (median(&vals(&b)), median(&vals(&h)));
            println!(
                "{:<12} {:<12} {:>14.4} {:>6.1}% {:>14.4} {:>6.1}% {:>7.1}%  {} (bound {:.0}%, n={}/{})",
                w,
                d.name,
                bm,
                spread(&vals(&b)) * 100.0,
                hm,
                spread(&vals(&h)) * 100.0,
                (hm - bm) / bm.abs() * 100.0,
                v.name(),
                d.bound * 100.0,
                b.len(),
                h.len()
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Declared {
        Declared {
            name: "setup_s".into(),
            lower_is_better: true,
            bound,
        }
    }

    fn runs(vals: &[f64]) -> Vec<(u64, f64)> {
        vals.iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect()
    }

    #[test]
    fn same_runs_are_unchanged() {
        let r = runs(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        assert_eq!(verdict(&r, &r, &lower(0.1)), Verdict::Unchanged);
    }

    #[test]
    fn worse_beyond_the_bound_regresses() {
        let b = runs(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let h = runs(&[115.0, 116.0, 114.0, 115.5, 114.5]);
        assert_eq!(verdict(&b, &h, &lower(0.1)), Verdict::Regressed);
        // The same change is within a 20% bound.
        assert_eq!(verdict(&b, &h, &lower(0.2)), Verdict::Unchanged);
        // For a higher-is-better metric the direction flips.
        let higher = Declared {
            lower_is_better: false,
            ..lower(0.1)
        };
        assert_eq!(verdict(&h, &b, &higher), Verdict::Regressed);
    }

    #[test]
    fn improvement_needs_nine_in_ten_wins_and_a_gap_beyond_base_spread() {
        let b = runs(&[
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ]);
        let h: Vec<(u64, f64)> = b.iter().map(|&(s, v)| (s, v - 5.0)).collect();
        assert_eq!(verdict(&b, &h, &lower(0.1)), Verdict::Improved);
        // Two seeds of ten lost: 8/10 wins is not enough.
        let mut h2 = h.clone();
        h2[0].1 = 120.0;
        h2[1].1 = 120.0;
        assert_eq!(verdict(&b, &h2, &lower(0.25)), Verdict::Unchanged);
        // Winning every seed by less than the base spread is no claim.
        let h3: Vec<(u64, f64)> = b.iter().map(|&(s, v)| (s, v - 0.1)).collect();
        assert_eq!(verdict(&b, &h3, &lower(0.1)), Verdict::Unchanged);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_on_one_side() {
        let b = runs(&[100.0, 140.0, 70.0, 120.0, 90.0]);
        let h = runs(&[105.0, 135.0, 75.0, 125.0, 95.0]);
        assert_eq!(verdict(&b, &h, &lower(0.1)), Verdict::Unresolved);
        let faster = runs(&[50.0, 60.0, 40.0, 55.0, 45.0]);
        assert_eq!(verdict(&b, &faster, &lower(0.1)), Verdict::Improved);
        let slower = runs(&[300.0, 400.0, 200.0, 350.0, 250.0]);
        assert_eq!(verdict(&b, &slower, &lower(0.1)), Verdict::Regressed);
        assert_eq!(verdict(&b[..1], &h, &lower(0.1)), Verdict::Unresolved);
    }

    #[test]
    fn declared_reads_benchmark_json_metrics() {
        let v = briq_json::parse(
            r#"{"end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.25},
                {"name":"docs_per_s","unit":"docs/s","better":"higher","bound":0.1}]}"#,
        )
        .expect("json");
        let d = declared(&v).expect("declared");
        assert_eq!(d.len(), 2);
        assert!(d[0].lower_is_better && !d[1].lower_is_better);
        assert_eq!(d[1].bound, 0.1);
        let bad = briq_json::parse(r#"{"end_to_end":[{"name":"x","better":"up","bound":1}]}"#)
            .expect("json");
        assert!(declared(&bad).is_err());
    }
}
