//! The metric catalogue and the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported by every workload with `--trace 0`.
/// Each is defined on every workload: an operation is one query reply
/// on the serve workloads and one whole FF5 job on the MR workloads.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a
/// layer a workload does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("protocol.codec_us", "us"),
    ("protocol.reply_bytes", "bytes"),
    ("protocol.wire_us", "us"),
    ("server.queue_wait_us", "us"),
    ("engine.execute_us", "us"),
    ("engine.self_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.lookup_us", "us"),
    ("contraction.plan_us", "us"),
    ("contraction.build_ms", "ms"),
    ("contraction.direct_ratio", "ratio"),
    ("contraction.core_edge_ratio", "ratio"),
    ("store.parse_ms", "ms"),
    ("maxflow.solve_us", "us"),
    ("maxflow.pulses", "count"),
    ("maxflow.pushes", "count"),
    ("maxflow.relabels", "count"),
    ("maxflow.global_relabels", "count"),
    ("reload_ms", "ms"),
    ("mapreduce.map_s", "s"),
    ("mapreduce.shuffle_s", "s"),
    ("mapreduce.reduce_s", "s"),
    ("mapreduce.map_output_records", "count"),
    ("ff.job_s", "s"),
    ("ff.loop_s", "s"),
    ("ff.round_wall_max_s", "s"),
    ("ff.a_paths", "count"),
    ("ff.aug_queue_max", "count"),
    ("rounds", "count"),
    ("shuffle_mb", "MB"),
    ("sim_s", "s"),
    ("dist.job_s", "s"),
    ("wire_mb", "MB"),
    ("worker.dispatch_wait_s", "s"),
    ("worker.transfer_s", "s"),
    ("worker.serialize_s", "s"),
    ("worker.compute_s", "s"),
    ("worker.blob_get_mb", "MB"),
    ("worker.blob_put_mb", "MB"),
    ("worker.dispatches", "count"),
    ("trace.unattributed_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Bytes per MB in every `*_mb` metric.
pub const MB: f64 = 1e6;

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Whether every answer that came back matched the oracle.
    pub correct: bool,
    /// Operations attempted (queries, reloads or jobs).
    pub attempted: u64,
    /// Operations that failed (an error reply or job error).
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// An empty, so far correct report.
    #[must_use]
    pub fn new() -> Self {
        Self {
            correct: true,
            ..Self::default()
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a failed correctness check.
    pub fn mismatch(&mut self, what: &str) {
        eprintln!("perfbench: check failed: {what}");
        self.correct = false;
    }

    /// The result line: the catalogue for this mode, each metric with
    /// its unit. End-to-end metrics must all be present and non-zero;
    /// per-layer metrics a workload did not measure read 0.
    ///
    /// # Errors
    /// A missing, zero or non-finite end-to-end metric, or a
    /// non-finite per-layer one.
    pub fn to_json(&self, traced: bool) -> Result<String, String> {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(&v) => v,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() || (!traced && value <= 0.0) {
                return Err(format!("metric {name} has no usable value ({value})"));
            }
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_valid() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(unit.len() <= 16);
        }
    }

    /// The string values of `key` in `text`, in order.
    fn string_values(text: &str, key: &str) -> Vec<String> {
        let pattern = format!("\"{key}\"");
        text.match_indices(&pattern)
            .map(|(i, _)| {
                let rest = text[i + pattern.len()..]
                    .trim_start()
                    .trim_start_matches(':');
                let rest = rest.trim_start().trim_start_matches('"');
                rest[..rest.find('"').expect("closing quote")].to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let e2e = text.find("\"end_to_end\"").expect("end_to_end section");
        let layers = text.find("\"per_layer\"").expect("per_layer section");
        assert!(e2e < layers, "end_to_end is listed before per_layer");
        for (section, catalogue) in [
            (&text[e2e..layers], END_TO_END),
            (&text[layers..], PER_LAYER),
        ] {
            let names = string_values(section, "name");
            let units = string_values(section, "unit");
            let expected_names: Vec<_> = catalogue.iter().map(|(n, _)| (*n).to_string()).collect();
            let expected_units: Vec<_> = catalogue.iter().map(|(_, u)| (*u).to_string()).collect();
            assert_eq!(names, expected_names);
            assert_eq!(units, expected_units);
        }
    }

    #[test]
    fn result_line_needs_every_end_to_end_metric() {
        let mut r = Report::new();
        r.attempted = 3;
        assert!(r.to_json(false).is_err());
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        let line = r.to_json(false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(r
            .to_json(true)
            .unwrap()
            .contains("\"sim_s\": {\"value\": 0, \"unit\": \"s\"}"));
    }
}
