//! The result of one run and how it is printed: a human-readable table,
//! then one JSON object as the last line of standard output.

use std::collections::BTreeMap;

use crate::measure::{median, ms, OpTimes};

/// End-to-end metrics (printed with `--trace 0`), with units. The names
/// and units match `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("virtual_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
    ("reply_kb_per_op", "KiB"),
];

/// Per-layer metrics (printed with `--trace 1`), with units. A metric a
/// workload does not set reads 0; README.md lists which workload fills
/// which metric.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ksim.build_ms", "ms"),
    ("ksim.tick_us", "us"),
    ("session.stop_ms", "ms"),
    ("session.extract_ms.p50", "ms"),
    ("session.extract_ms.p95", "ms"),
    ("vbridge.packets_per_op", "count"),
    ("vbridge.bytes_per_op", "B"),
    ("vbridge.cache_hit_ratio", "ratio"),
    ("vbridge.packets_saved_per_op", "count"),
    ("vbridge.faults", "count"),
    ("viewcl.parse_ms", "ms"),
    ("viewcl.plan_virtual_ms_per_op", "ms"),
    ("viewcl.interp_virtual_ms_per_op", "ms"),
    ("viewcl.plan_nodes_per_op", "count"),
    ("viewcl.dedup_walks_per_op", "count"),
    ("vincr.keep_ratio", "ratio"),
    ("vincr.keep_ms", "ms"),
    ("vincr.rewalk_ms", "ms"),
    ("vincr.dirty_bytes_per_stop", "B"),
    ("vgraph.boxes_per_op", "count"),
    ("vgraph.apply_ms", "ms"),
    ("vql.run_ms", "ms"),
    ("vrender.text_ms", "ms"),
    ("vserve.walks_per_req", "ratio"),
    ("vserve.coalesce_ratio", "ratio"),
    ("vserve.fulls_per_req", "ratio"),
    ("vserve.deltas_per_req", "ratio"),
    ("vserve.delta_saved_ratio", "ratio"),
    ("vserve.send_ms", "ms"),
    ("vserve.reply_wait_ms", "ms"),
    ("vserve.retained_panes", "count"),
    ("vserve.queue_depth_max", "count"),
    ("vserve.errors", "count"),
    ("vserve.resyncs", "count"),
    ("wire.handshake_ms", "ms"),
    ("wire.sweeps_per_req", "ratio"),
    ("wire.engine_busy_per_req", "ratio"),
    ("wire.bytes_out_per_req", "B"),
    ("wire.decode_errors", "count"),
    ("bench.unattributed_ms", "ms"),
    ("bench.ops_per_s_traced", "1/s"),
    ("bench.ops_per_s_untraced", "1/s"),
    ("bench.ops_per_s_q1", "1/s"),
    ("bench.ops_per_s_q4", "1/s"),
    ("bench.ops_per_s_wall", "1/s"),
    ("bench.op_p90_ms", "ms"),
];

/// Everything one run produced.
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Ops attempted in the measured run.
    pub attempted: u64,
    /// Ops (and run-level checks) that failed.
    pub failed: u64,
    /// One line per failure, in order.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Extra human-readable lines (sample counts, spans, checks).
    pub notes: Vec<String>,
}

impl Outcome {
    /// An empty outcome for `workload`.
    pub fn new(workload: &'static str) -> Outcome {
        Outcome {
            workload,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            values: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// Record a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Record set-up time and image build time as medians over every
    /// set-up of the run, given as `(setup_ns, build_ns)` pairs.
    pub fn set_setups(&mut self, setups: &[(u64, u64)]) {
        let secs: Vec<f64> = setups.iter().map(|&(s, _)| s as f64 / 1e9).collect();
        let builds: Vec<f64> = setups.iter().map(|&(_, b)| ms(b)).collect();
        self.set("setup_s", median(&secs));
        self.set("ksim.build_ms", median(&builds));
        self.note(format!(
            "set-up: median of {} set-ups, {:.4}..{:.4} s",
            secs.len(),
            secs.iter().copied().fold(f64::INFINITY, f64::min),
            secs.iter().copied().fold(0.0, f64::max)
        ));
    }

    /// Record the op-time metrics of a timed run.
    pub fn set_op_times(&mut self, w: &OpTimes, life: usize) {
        self.set("ops_per_s", w.ops_per_s);
        self.set("op_p50_ms", w.p50_ms);
        self.set("bench.op_p90_ms", w.p90_ms);
        self.note(format!(
            "op times (CPU clock): medians over {} lives of {life} ops; p90 {:.4} ms ({} samples \
             beyond it in each life)",
            w.lives,
            w.p90_ms,
            life / 10
        ));
    }

    /// Record one failed op or check.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        self.failures.push(msg.into());
    }

    /// Record a human-readable note.
    pub fn note(&mut self, msg: impl Into<String>) {
        self.notes.push(msg.into());
    }

    /// Whether every op and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Print the table and the final JSON line for the chosen metric set.
    pub fn print(&self, trace: bool) {
        let set = if trace { PER_LAYER } else { END_TO_END };
        println!(
            "perfbench {} ({} run)",
            self.workload,
            if trace { "traced" } else { "untraced" }
        );
        for n in &self.notes {
            println!("  {n}");
        }
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  ops attempted {}, failed {} (failed_frac {failed_frac})",
            self.attempted, self.failed
        );
        for f in self.failures.iter().take(10) {
            println!("  FAILED: {f}");
        }
        let mut fields = Vec::new();
        for (name, unit) in set {
            // An end-to-end metric left unset, or any metric not finite,
            // is a bug in this benchmark, never a measurement: refuse to
            // print a result.
            let unset = if trace { 0.0 } else { f64::NAN };
            let v = self.values.get(name).copied().unwrap_or(unset);
            assert!(v.is_finite(), "metric {name} is {v}");
            println!("  {name:<34} {v:>16.4} {unit}");
            fields.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed.min(self.attempted.max(1)),
            fields.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let json: serde_json::Value =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        json[section]
            .as_array()
            .expect("a list of metrics")
            .iter()
            .map(|m| {
                let field = |k: &str| m[k].as_str().expect("a string").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn own(set: &[(&str, &str)]) -> Vec<(String, String)> {
        set.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    /// The metrics this binary prints are exactly the ones
    /// `BENCHMARK.json` declares, in order, with the same units.
    #[test]
    fn metrics_match_benchmark_json() {
        assert_eq!(declared("end_to_end"), own(END_TO_END));
        assert_eq!(declared("per_layer"), own(PER_LAYER));
    }
}
