//! What one run found: the metrics, the correctness ledger, and the
//! result line the run ends with.

use std::fmt::Write as _;

/// End-to-end metrics every workload prints in an untraced run, with
/// their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("throughput_rps", "1/s"),
    ("p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Service stages of `pv_obs::Stage`, in pipeline order.
pub const STAGES: [&str; 6] = [
    "extract",
    "cache_lookup",
    "store_hydrate",
    "memo_warm",
    "solve",
    "encode",
];

/// Per-layer metrics every workload prints in a traced run, with their
/// units. A layer a workload does not exercise reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("gis.extract_s", "s"),
        ("gis.cell_steps", "count"),
        ("floorplan.suitability_s", "s"),
        ("floorplan.traditional_s", "s"),
        ("floorplan.greedy_s", "s"),
        ("floorplan.evaluate_s", "s"),
        ("floorplan.module_steps", "count"),
        ("floorplan.solve_greedy_us", "us"),
        ("floorplan.solve_anneal_us", "us"),
        ("server.service_handle_us", "us"),
        ("server.transport_us", "us"),
        ("server.router_hop_us", "us"),
        ("server.ring_max_share", "ratio"),
        ("server.cache_hit_rate", "ratio"),
        ("server.cache_misses", "count"),
        ("server.queue_depth_max", "count"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for stage in STAGES {
        names.push((format!("server.stage_{stage}_p50_us"), "us"));
        names.push((format!("server.stage_{stage}_total_ms"), "ms"));
    }
    names.extend(
        [
            ("store.hydrate_s", "s"),
            ("store.hydrated_sites", "count"),
            ("store.save_ms", "ms"),
            ("store.snapshot_bytes", "bytes"),
            ("store.writes", "count"),
            ("store.write_errors", "count"),
            ("json.place_parse_us", "us"),
            ("http.read_request_us", "us"),
            ("obs.trace_overhead_pct", "%"),
            ("obs.trace_dropped", "count"),
        ]
        .into_iter()
        .map(|(n, u)| (n.to_string(), u)),
    );
    names
}

/// The per-layer values of a traced run, every name present.
#[derive(Clone, Debug)]
pub struct Layers {
    values: Vec<(String, &'static str, f64)>,
}

impl Layers {
    /// Every per-layer metric at 0 (layer not exercised).
    pub fn zero() -> Self {
        Self {
            values: per_layer().into_iter().map(|(n, u)| (n, u, 0.0)).collect(),
        }
    }

    /// Sets one metric.
    ///
    /// # Panics
    ///
    /// On a name outside [`per_layer`]: a typo in the benchmark itself.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .iter_mut()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric '{name}'"));
        slot.2 = value;
    }
}

/// One measured end-to-end metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Everything one run reports.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    pub layers: Option<Layers>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
            layers: None,
            notes: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records `count` failed operations and why.
    pub fn fail(&mut self, count: u64, why: String) {
        self.failed += count;
        self.failures.push(why);
    }

    /// Failed operations over attempted ones.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty() && self.attempted > 0
    }

    /// The metrics the result line carries: every end-to-end metric for
    /// an untraced run, every per-layer metric for a traced one. A
    /// missing end-to-end metric or a non-finite value is a failure of
    /// the run.
    pub fn result_metrics(&mut self) -> Vec<(String, f64, &'static str)> {
        let mut out = Vec::new();
        match &self.layers {
            Some(layers) => {
                out.extend(layers.values.iter().map(|(n, u, v)| (n.clone(), *v, *u)));
            }
            None => {
                for (name, unit) in END_TO_END {
                    match self.metrics.iter().find(|m| m.name == name) {
                        Some(m) => out.push((name.to_string(), m.value, unit)),
                        None => self
                            .failures
                            .push(format!("end-to-end metric '{name}' was not measured")),
                    }
                }
            }
        }
        let bad: Vec<String> = out
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| n.clone())
            .collect();
        for name in bad {
            self.failures
                .push(format!("metric '{name}' is not a finite number"));
        }
        out.retain(|(_, v, _)| v.is_finite());
        out
    }

    /// The human-readable lines printed before the result line.
    pub fn summary(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .notes
            .iter()
            .map(|n| format!("{}: {n}", self.workload))
            .collect();
        for m in &self.metrics {
            lines.push(format!(
                "{}: {:<16} {:>14.6} {:<5} ({} sample(s))",
                self.workload, m.name, m.value, m.unit, m.samples
            ));
        }
        lines.push(format!(
            "{}: error_rate {:.6} ({} failed of {} attempted)",
            self.workload,
            self.error_rate(),
            self.failed,
            self.attempted
        ));
        for f in &self.failures {
            lines.push(format!("{}: FAILED: {f}", self.workload));
        }
        lines
    }

    /// The last line of a run's standard output.
    pub fn result_line(&mut self) -> String {
        let metrics = self.result_metrics();
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                line,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        line.push_str("}}");
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_every_end_to_end_metric() {
        let mut outcome = Outcome::new("w");
        outcome.attempted = 10;
        for (name, unit) in END_TO_END {
            outcome.metric(name, 1.25, unit, 3);
        }
        let line = outcome.result_line();
        assert!(outcome.correct());
        let parsed = pv_json::parse(&line).expect("valid JSON");
        let metrics = parsed.get("metrics").expect("metrics");
        for (name, unit) in END_TO_END {
            let m = metrics.get(name).expect(name);
            assert_eq!(m.get("value").and_then(|v| v.as_number()), Some(1.25));
            assert_eq!(m.get("unit").and_then(|v| v.as_str()), Some(unit));
        }
    }

    #[test]
    fn a_missing_metric_or_failure_makes_the_run_incorrect() {
        let mut outcome = Outcome::new("w");
        outcome.attempted = 4;
        outcome.metric("setup_s", 0.5, "s", 1);
        let line = outcome.result_line();
        assert!(!outcome.correct(), "{line}");

        let mut outcome = Outcome::new("w");
        outcome.attempted = 4;
        outcome.fail(1, "byte mismatch".into());
        assert_eq!(outcome.error_rate(), 0.25);
        assert!(!outcome.correct());
    }

    #[test]
    fn traced_runs_print_every_per_layer_metric() {
        let mut outcome = Outcome::new("w");
        outcome.attempted = 1;
        let mut layers = Layers::zero();
        layers.set("obs.trace_overhead_pct", 2.5);
        outcome.layers = Some(layers);
        let line = outcome.result_line();
        let parsed = pv_json::parse(&line).expect("valid JSON");
        let metrics = parsed.get("metrics").expect("metrics");
        for (name, _) in per_layer() {
            assert!(metrics.get(&name).is_some(), "{name} missing");
        }
        assert_eq!(per_layer().len(), 38);
    }

    #[test]
    fn metric_names_and_units_match_benchmark_json() {
        let doc = pv_json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(pv_json::JsonValue::Array(items)) = doc.get(key) else {
                panic!("BENCHMARK.json has no '{key}' list");
            };
            items
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let end_to_end: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), end_to_end);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
    }
}
