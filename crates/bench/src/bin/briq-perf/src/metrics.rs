//! The metric catalogue and the result line.
//!
//! Every name here is also in `BENCHMARK.json` (a test holds the two
//! equal). A run with `--trace 0` emits exactly [`END_TO_END`]; a run
//! with `--trace 1` emits exactly [`PER_LAYER`]. A per-layer metric of a
//! layer the workload never runs reads 0.

use std::collections::BTreeMap;

use briq_json::Value;

/// `(name, unit)` of every end-to-end metric, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("docs_per_s", "docs/s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, measured by the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("html.parse_ms_per_page", "ms"),
    ("segment.ms_per_page", "ms"),
    ("text.extract_us_per_paragraph", "us"),
    ("virtual_cells.us_per_table", "us"),
    ("virtual_cells.cells_per_table", "count"),
    ("pipeline.extract_ms_per_doc", "ms"),
    ("pipeline.classify_ms_per_doc", "ms"),
    ("pipeline.filter_ms_per_doc", "ms"),
    ("pipeline.graph_ms_per_doc", "ms"),
    ("pipeline.resolve_ms_per_doc", "ms"),
    ("pipeline.align_other_ms_per_doc", "ms"),
    ("pipeline.model_from_json_s", "s"),
    ("retrieval.candidates_per_mention", "count"),
    ("retrieval.pairs_skipped_ratio", "ratio"),
    ("scoring.rows_scored_per_mention", "count"),
    ("scoring.pairs_pruned_ratio", "ratio"),
    ("scoring.rows_deduped_ratio", "ratio"),
    ("forest.ns_per_row", "ns"),
    ("rwr.walks_per_doc", "count"),
    ("rwr.matvec_iterations_per_walk", "count"),
    ("rwr.us_per_matvec_iteration", "us"),
    ("batch.utilization", "ratio"),
    ("json.model_parse_s", "s"),
    ("json.model_parse_ns_per_byte", "ns"),
    ("json.encode_ms_per_page", "ms"),
    ("store.recover_s", "s"),
    ("store.recovered_entries", "count"),
    ("store.hit_ratio", "ratio"),
    ("store.mentions_realigned_ratio", "ratio"),
    ("store.bytes_written_per_pass", "bytes"),
    ("store.compactions_per_pass", "count"),
    ("store.snapshot_bytes", "bytes"),
    ("store.snapshot_s", "s"),
    ("store.bytes_per_entry", "bytes"),
    ("trace_overhead_ratio", "ratio"),
];

/// Metric names: letters, digits, `_`, `.` and `-`, at most 64 long,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// What one run found, before it is printed.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// One line per failed output check, printed before the result.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// The result object for the metrics of `catalogue`. Errors name a
    /// catalogue metric the run did not measure (or measured as a
    /// non-finite number): a benchmark bug, never a program failure.
    pub fn result(&self, catalogue: &[(&'static str, &'static str)]) -> Result<Value, String> {
        let mut metrics = Vec::new();
        for &(name, unit) in catalogue {
            if !valid_name(name) {
                return Err(format!("metric name {name:?} is not valid"));
            }
            let v = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite ({v})"));
            }
            metrics.push((
                name.to_string(),
                Value::Object(vec![
                    ("value".into(), Value::Num(v)),
                    ("unit".into(), Value::Str(unit.into())),
                ]),
            ));
        }
        Ok(Value::Object(vec![
            ("correct".into(), Value::Bool(self.failed == 0)),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), Value::Object(metrics)),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        briq_json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(bench: &Value, key: &str) -> Vec<(String, String)> {
        bench
            .get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(catalogue: &[(&str, &str)]) -> Vec<(String, String)> {
        catalogue
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        for n in &all {
            assert!(valid_name(n), "{n}");
        }
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), before, "a metric name is used twice");
        assert!(!valid_name("docs per s"));
        assert!(!valid_name("_lead"));
        assert!(!valid_name(""));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name("store.hit_ratio"));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let bench = bench_json();
        assert_eq!(declared(&bench, "end_to_end"), owned(END_TO_END));
        assert_eq!(declared(&bench, "per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn result_emits_every_catalogue_metric_and_nothing_else() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for &(name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        o.set("store.hit_ratio", 0.9);
        let v = o.result(END_TO_END).expect("all measured");
        let names: Vec<&str> = v
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names, want);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));

        o.values.remove("docs_per_s");
        assert!(o.result(END_TO_END).is_err());
        o.fail("x".into());
        o.set("docs_per_s", 2.0);
        let v = o.result(END_TO_END).expect("all measured");
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(v.get("failed").and_then(Value::as_f64), Some(1.0));
    }
}
