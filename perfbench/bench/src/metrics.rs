//! The metric catalogue (mirrored in `BENCHMARK.json`) and the result line.

use crate::stats::{valid_metric_name, valid_unit};

/// A metric definition: name and unit.
pub type Def = (&'static str, &'static str);

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [Def; 5] = [
    ("throughput_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A layer
/// a workload does not exercise reports 0. Time and count metrics marked
/// `/op` are means per op of the traced cycles.
pub const PER_LAYER: [Def; 47] = [
    // Answers and latency classes, from the untraced ops.
    ("replay_p50_ms", "ms"),
    ("warm_p50_ms", "ms"),
    ("cold_p50_ms", "ms"),
    ("makespan_gap_pct", "%"),
    ("predict_err_pct", "%"),
    ("failed_frac", "ratio"),
    // hslb-perfmodel and hslb-lsq.
    ("perfmodel.fit_ms", "ms/op"),
    ("lsq.lm_steps", "count/op"),
    // The simulators.
    ("cesm_sim.gather_ms", "ms/op"),
    ("cesm_sim.execute_ms", "ms/op"),
    ("fmo_sim.spec_ms", "ms/op"),
    ("fmo_sim.execute_ms", "ms/op"),
    // hslb core: model building.
    ("core.build_ms", "ms/op"),
    // hslb-minlp.
    ("minlp.solve_ms", "ms/op"),
    ("minlp.tree_ms", "ms/op"),
    ("minlp.nodes_opened", "count/op"),
    ("minlp.prune_ratio", "ratio"),
    ("minlp.warm_start_hit_ratio", "ratio"),
    ("minlp.oa_cuts", "count/op"),
    ("minlp.speculative_nodes", "count/op"),
    ("minlp.parallel_over_serial", "ratio"),
    // hslb-nlp.
    ("nlp.busy_ms", "ms/op"),
    ("nlp.us_per_newton", "us"),
    ("nlp.newton_iters", "count/op"),
    ("nlp.line_search_backtracks", "count/op"),
    ("nlp.mpc_iter_share", "ratio"),
    ("nlp.speculative_newton", "count/op"),
    // hslb-lp and hslb-linalg.
    ("lp.busy_ms", "ms/op"),
    ("lp.us_per_pivot", "us"),
    ("lp.simplex_pivots", "count/op"),
    ("lp.dual_pivots", "count/op"),
    ("linalg.factorizations", "count/op"),
    ("linalg.factor_updates", "count/op"),
    ("linalg.fill_nnz", "count/op"),
    // hslb-json and hslb-serve.
    ("json.encode_us", "us/op"),
    ("json.decode_us", "us/op"),
    ("serve.inproc_p50_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.solves", "count/op"),
    ("serve.warm_seeded", "count/op"),
    ("serve.coalesced", "count/op"),
    ("serve.evictions", "count/op"),
    ("serve.shed", "count/op"),
    ("serve.errors", "count/op"),
    ("serve.work.newton_iters", "count/op"),
    // Tracing itself.
    ("trace.overhead_pct", "%"),
];

/// A table of values over a fixed catalogue: every metric starts at 0 and
/// setting a name outside the catalogue is a bug in the benchmark.
#[derive(Debug, Clone)]
pub struct Metrics {
    defs: &'static [Def],
    values: Vec<f64>,
}

impl Metrics {
    pub fn new(defs: &'static [Def]) -> Metrics {
        Metrics {
            defs,
            values: vec![0.0; defs.len()],
        }
    }

    fn index(&self, name: &str) -> usize {
        self.defs
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self.index(name);
        self.values[i] = value;
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.defs
            .iter()
            .zip(&self.values)
            .map(|(&(n, u), &v)| (n, u, v))
    }
}

/// The final result line. Every value must be finite and every name and
/// unit must follow the grammar.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
) -> Result<String, String> {
    let mut body = Vec::new();
    for (name, unit, value) in metrics.iter() {
        if !valid_metric_name(name) || !valid_unit(unit) {
            return Err(format!("bad metric name or unit: {name} [{unit}]"));
        }
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

/// Shortest round-trip decimal form, with a fractional part so JSON
/// readers keep it a float.
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hslb_json::Json;

    #[test]
    fn catalogue_names_and_units_follow_the_grammar_and_are_unique() {
        let all: Vec<&Def> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (name, unit) in &all {
            assert!(valid_metric_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
        }
        let mut names: Vec<&str> = all.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_else(|| panic!("{key} entry lacks {k}"))
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let own = |defs: &[Def]| -> Vec<(String, String)> {
            defs.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let mut m = Metrics::new(&END_TO_END);
        m.set("latency_p50_ms", 1.25);
        m.set("setup_s", 3.0);
        let line = result_line(true, 10, 0, &m).expect("finite values");
        let doc = Json::parse(&line).expect("result line parses");
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(10));
        let metrics = doc.get("metrics").expect("metrics object");
        for (name, unit) in END_TO_END {
            let entry = metrics.get(name).expect("every metric present");
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(unit));
        }
        let p50 = metrics.get("latency_p50_ms").and_then(|e| e.get("value"));
        assert_eq!(p50.and_then(Json::as_f64), Some(1.25));
        m.set("setup_s", f64::NAN);
        assert!(result_line(true, 10, 0, &m).is_err());
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn unknown_metric_is_a_bug() {
        Metrics::new(&END_TO_END).set("latency_p51_ms", 1.0);
    }
}
