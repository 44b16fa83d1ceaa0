//! Metric names, the run report and the one-line JSON result.
//!
//! `BENCHMARK.json` lists a fixed set of end-to-end and per-layer
//! metrics, and every run prints all of the set it was asked for. Each
//! workload therefore fills the same end-to-end slots with its own
//! headline numbers (the slot → workload map is in `README.md`), and a
//! layer that does no work in a workload reports 0 beside a base count
//! of 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end slots: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("read_p50_us", "us"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // cosmo-http
    ("http.requests", "count"),
    ("http.round_trip_us", "us"),
    ("http.route_us", "us"),
    ("http.transport_self_us", "us"),
    ("http.reconnects", "count"),
    ("http.accepted", "count"),
    ("http.shed_conns", "count"),
    ("http.rejected_conns", "count"),
    ("http.bad_requests", "count"),
    // cosmo-serving protocol + system (in-process replay)
    ("serving.replayed", "count"),
    ("serving.decode_us", "us"),
    ("serving.serve_us", "us"),
    ("serving.encode_us", "us"),
    ("serving.route_self_us", "us"),
    // cosmo-serving cache (window deltas of ops())
    ("serving.cache.l1_hits", "count"),
    ("serving.cache.l2_hits", "count"),
    ("serving.cache.misses", "count"),
    ("serving.cache.dropped", "count"),
    ("serving.cache.rejected", "count"),
    ("serving.cache.queue_high_water", "count"),
    ("serving.cache.dropped_per_miss", "ratio"),
    // cosmo-serving batch (spans of the bench-owned batch scheduler)
    ("serving.batch.cycles", "count"),
    ("serving.batch.cycle_ms", "ms"),
    ("serving.batch.queries_per_cycle", "count"),
    ("serving.batch.busy_share", "ratio"),
    ("serving.batch.failed_chunks", "count"),
    ("serving.batch.queue_wait_ms", "ms"),
    ("serving.batch.unaccounted_frac", "ratio"),
    // features + lm + nn (replay over the window's enqueued queries)
    ("serving.features.queries", "count"),
    ("serving.features.batch_us_per_query", "us"),
    ("serving.features.kg_answered_share", "ratio"),
    ("lm.generate_items", "count"),
    ("lm.generate_batch_us_per_item", "us"),
    ("lm.embed_batch_us_per_item", "us"),
    ("nn.flops_per_query", "flop"),
    ("nn.bytes_per_query", "B"),
    // cosmo-kg read side
    ("kg.lookups", "count"),
    ("kg.find_node_ns", "ns"),
    ("kg.top_intents_ns", "ns"),
    ("kg.open_verified_ms", "ms"),
    // cosmo-serving swap
    ("serving.swap.build_ms", "ms"),
    // cosmo-nav
    ("nav.interpreted", "count"),
    ("nav.interpret_us", "us"),
    ("nav.engine_build_ms", "ms"),
    // cosmo-synth
    ("synth.world_s", "s"),
    ("synth.log_s", "s"),
    // cosmo-core + cosmo-teacher (stage replay of run_over)
    ("core.run_over_s", "s"),
    ("core.candidates", "count"),
    ("core.sampling_s", "s"),
    ("teacher.generate_s", "s"),
    ("core.filter_s", "s"),
    ("core.filter_keep_ratio", "ratio"),
    ("core.annotate_s", "s"),
    ("core.critic_train_s", "s"),
    ("core.critic_score_s", "s"),
    ("core.admit_ratio", "ratio"),
    ("core.unaccounted_s", "s"),
    // cosmo-lm training
    ("lm.train_examples", "count"),
    ("lm.train_epoch_s", "s"),
    // cosmo-kg writer
    ("kg.stream.edges", "count"),
    ("kg.stream.spill_runs", "count"),
    ("kg.stream.spilled_mb", "MB"),
    ("kg.stream.file_mb", "MB"),
    ("kg.bytes_per_edge", "B"),
    // the trace itself
    ("trace.spans", "count"),
    ("trace.outer_p50_us", "us"),
    ("trace.unaccounted_frac", "ratio"),
    ("trace.untraced_us", "us"),
    ("trace.traced_us", "us"),
    ("trace.overhead_frac", "ratio"),
];

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
    /// Output checks: `(what, passed)`.
    pub checks: Vec<(String, bool)>,
    /// Operations attempted (requests, reloads or builds).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Values keyed by metric name.
    values: BTreeMap<String, f64>,
}

impl Report {
    /// Record a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Add a line of the human-readable report.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Print one named workload metric (named as in the README's metric
    /// table) with its unit and the sample base it was computed from.
    pub fn metric(&mut self, name: &str, value: Option<f64>, unit: &str, base: &str) {
        let shown = match value {
            Some(v) => format!("{v:.4}"),
            None => "n/a".to_string(),
        };
        self.line(format!("  {name:<26} {shown:>14} {unit:<6} ({base})"));
    }

    /// Record an output check.
    pub fn check(&mut self, what: impl Into<String>, passed: bool) {
        self.checks.push((what.into(), passed));
    }

    /// Whether every output check passed (and at least one ran).
    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The final result line. `trace` selects the per-layer set instead
    /// of the end-to-end one; a per-layer metric the workload did not
    /// exercise reads 0.
    pub fn result_json(&self, trace: bool) -> String {
        let names: Vec<(&str, &str)> = if trace {
            PER_LAYER.to_vec()
        } else {
            END_TO_END.to_vec()
        };
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let v = self.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// True when `name` is a legal metric name: starts with a letter or
    /// digit, at most 64 of `[A-Za-z0-9_.-]`.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(seen.insert(*name), "duplicate metric name {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit}");
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn name_rule_rejects_what_it_should() {
        assert!(valid_name("http.round_trip_us"));
        assert!(valid_name("9lives-x.y_z"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn benchmark_manifest_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(manifest) = std::fs::read_to_string(path) else {
            return; // packaged without the manifest: nothing to compare
        };
        let names_in = |section: &str| -> Vec<String> {
            let start = manifest
                .find(&format!("\"{section}\""))
                .expect("section present");
            let rest = &manifest[start..];
            let end = rest.find(']').expect("section closes");
            rest[..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s.split('"').next().unwrap_or_default().to_string())
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layers: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in("end_to_end"), e2e);
        assert_eq!(names_in("per_layer"), layers);
    }

    #[test]
    fn result_line_has_every_requested_metric() {
        let mut r = Report::default();
        r.set("setup_s", 1.5);
        r.check("ok", true);
        r.attempted = 10;
        let line = r.result_json(false);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":10,\"failed\":0,"));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\":{{\"value\":")));
            assert!(line.contains(&format!("\"unit\":\"{unit}\"")));
        }
        assert!(r.result_json(true).contains("\"trace.overhead_frac\""));
    }
}
