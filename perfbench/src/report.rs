//! Metric names, units, and the result line.
//!
//! `BENCHMARK.json` at the repository root declares the same names; a
//! unit test keeps the two in step.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_mean_ms", "ms"),
    ("cpu_s_per_job", "s"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// does not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("e2e.job_p50_ms", "ms"),
    ("e2e.job_p90_ms", "ms"),
    ("e2e.write_p50_ms", "ms"),
    ("e2e.slo_met_frac", "frac"),
    ("e2e.failed_frac", "frac"),
    ("preprocess.s", "s"),
    ("preprocess.compression_ratio", "x"),
    ("disk_csr.decode_ns_per_edge", "ns"),
    ("dispatcher.ns_per_edge", "ns"),
    ("computer.fold_ns_per_msg", "ns"),
    ("slab.wait_us_per_job", "us"),
    ("slab.pool_hit_frac", "frac"),
    ("engine.edge_bytes_per_job", "bytes"),
    ("manager.step_wall_us", "us"),
    ("manager.idle_us_per_step", "us"),
    ("manager.commit_us_per_step", "us"),
    ("engine.supersteps_per_job", "count"),
    ("actor.msgs_per_s", "1/s"),
    ("frontier.density_mean", "frac"),
    ("dispatcher.skipped_frac", "frac"),
    ("scheduler.queue_wait_us_p90", "us"),
    ("scheduler.shed_frac", "frac"),
    ("engine.run_us_p50", "us"),
    ("wire.us_p50", "us"),
    ("wire.reply_bytes_mean", "bytes"),
    ("json.encode_us_per_reply", "us"),
    ("cache.hit_frac", "frac"),
    ("delta.overlay_edges_end", "count"),
    ("cluster.commit_us_per_step", "us"),
    ("cluster.cross_node_msg_frac", "frac"),
    ("cluster.core_ratio", "x"),
    ("mmap.seq_gbps", "GB/s"),
    ("seq.ms_per_job", "ms"),
    ("engine.cost_ratio", "x"),
    ("actor.ping_msgs_per_s", "1/s"),
    ("actor.channel_msgs_per_s", "1/s"),
    ("host.steal_frac", "frac"),
    ("host.cpu_s", "s"),
    ("host.rss_mb", "MiB"),
    ("host.peak_rss_mb", "MiB"),
    ("gen.late_ms_p90", "ms"),
    ("trace.overhead_frac", "frac"),
];

/// Metric values by name.
#[derive(Debug, Clone, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Set `name` to `value` (non-finite values, from an idle layer's
    /// empty ratio, read 0).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Render the `metrics` object over `names`, each defaulting to 0 for
    /// a layer this workload leaves idle. Panics on a name neither list
    /// declares: that is a bug here.
    pub fn render(&self, names: &[(&str, &str)]) -> String {
        for k in self.0.keys() {
            assert!(declared(k), "metric {k} is not declared");
        }
        let body: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let v = self.get(name).unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn declared(name: &str) -> bool {
    END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name)
}

/// The result line: the last line a run prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {metrics}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (list, names) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = text.find(&format!("\"{list}\"")).expect(list);
            let section = &text[start..];
            let section = &section[..section.find(']').expect("list end")];
            let declared: Vec<&str> = section
                .split("\"name\": \"")
                .skip(1)
                .map(|s| &s[..s.find('"').expect("closing quote")])
                .collect();
            let ours: Vec<&str> = names.iter().map(|(n, _)| *n).collect();
            assert_eq!(declared, ours, "{list} names");
            for (name, unit) in names {
                let at = section.find(&format!("\"name\": \"{name}\"")).expect(name);
                let row = &section[at..];
                let row = &row[..row.find('}').expect("row end")];
                assert!(
                    row.contains(&format!("\"unit\": \"{unit}\"")),
                    "{name} unit"
                );
            }
        }
    }

    #[test]
    fn render_fills_idle_layers_with_zero_and_keeps_digits() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.123456789);
        m.set("jobs_per_s", f64::NAN);
        let out = m.render(&END_TO_END[..2]);
        assert_eq!(
            out,
            "{\"setup_s\": {\"value\": 0.123456789, \"unit\": \"s\"}, \
             \"jobs_per_s\": {\"value\": 0.0, \"unit\": \"1/s\"}}"
        );
    }
}
