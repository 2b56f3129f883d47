//! What a run reports: the contract metric lists, one run's outcome, and
//! the final JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run. A "unit of work" is
/// a training step or a serving request; see README.md for each
/// workload's definition.
pub const END_TO_END: [(&str, &str); 5] = [
    ("samples_per_s", "1/s"),
    ("gflops_sustained", "GFLOP/s"),
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Short names of the census categories, in `profile::Category::ALL` order.
pub const CATEGORIES: [&str; 8] = [
    "fwd_conv",
    "fwd_pointwise",
    "bwd_conv",
    "bwd_pointwise",
    "optimizer",
    "copies",
    "allreduce",
    "type_conv",
];

/// Categories the kernel replay times.
pub const REPLAY_CATEGORIES: [&str; 4] = ["fwd_conv", "bwd_conv", "fwd_pointwise", "bwd_pointwise"];

/// Per-layer metrics, printed by every traced run; a layer a workload does
/// not exercise reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("pipeline.next_batch_ms", "ms"),
        ("pipeline.wait_fraction", "fraction"),
        ("nn.forward_ms", "ms"),
        ("nn.backward_ms", "ms"),
        ("nn.optim_ms", "ms"),
        ("nn.optim_busy_ms", "ms"),
        ("distrib.exposed_comm_ms", "ms"),
        ("distrib.comm_busy_ms", "ms"),
        ("distrib.comm_hidden_fraction", "fraction"),
        ("distrib.other_ms", "ms"),
        ("comm.wire_mb_per_step", "MB"),
        ("comm.allreduce_calls_per_step", "count"),
        ("distrib.control_msgs_per_step", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for cat in CATEGORIES {
        v.push((format!("tensor.{cat}.gflop_per_step"), "GFLOP"));
        v.push((format!("tensor.{cat}.gb_per_step"), "GB"));
    }
    v.push(("tensor.fwd_conv.gflop_per_request".into(), "GFLOP"));
    v.push(("tensor.type_conv.gb_per_request".into(), "GB"));
    for cat in REPLAY_CATEGORIES {
        v.push((format!("tensor.{cat}.replay_ms"), "ms"));
        v.push((format!("tensor.{cat}.gflops"), "GFLOP/s"));
        v.push((format!("tensor.{cat}.pct_peak"), "%"));
    }
    for (n, u) in [
        ("tensor.gemm_peak_gflops", "GFLOP/s"),
        ("tensor.stream_gbps", "GB/s"),
        ("tensor.pool.fresh_allocs_per_step", "count"),
        ("tensor.pool.hit_fraction", "fraction"),
        ("tensor.pool.high_water_mb", "MB"),
        ("serve.service_ms", "ms"),
        ("serve.per_sample_ms", "ms"),
        ("serve.mean_batch", "count"),
        ("serve.replica_busy_max", "fraction"),
        ("serve.replica_busy_min", "fraction"),
        ("serve.deadline_flush_fraction", "fraction"),
        ("serve.queue_high", "count"),
        ("serve.generator_late_ms", "ms"),
        ("nn.checkpoint_save_ms", "ms"),
        ("nn.checkpoint_load_ms", "ms"),
        ("trace.untraced_rate", "1/s"),
        ("trace.traced_rate", "1/s"),
        ("trace.overhead_fraction", "fraction"),
    ] {
        v.push((n.to_string(), u));
    }
    v
}

/// One reported value with the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Value {
    /// The number as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind it (1 for a single measurement or a count).
    pub n: usize,
}

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics of the untraced pass, keyed by contract name.
    pub end_to_end: BTreeMap<String, Value>,
    /// Every end-to-end metric the workload defines under its own name
    /// (e.g. `step_ms_p50`, `latency_p99_ms`, `goodput_rps`), for the report.
    pub named: Vec<(String, Value)>,
    /// Per-layer metrics of the traced pass (traced runs only).
    pub per_layer: BTreeMap<String, f64>,
    /// Operations attempted (training steps, serving requests, whole-run checks).
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Identities the traced run must reproduce (final parameter hash,
    /// loss sequence, output digest), for the report.
    pub hashes: BTreeMap<String, String>,
}

impl Outcome {
    /// Records a check over `ops` operations of which `bad` failed.
    pub fn check(&mut self, what: &str, ops: u64, bad: u64) {
        self.attempted += ops;
        self.failed += bad;
        if bad > 0 {
            self.failures.push(format!("{what}: {bad} of {ops} failed"));
        }
    }

    /// Records a whole-run check as one operation.
    pub fn require(&mut self, what: &str, ok: bool) {
        self.check(what, 1, u64::from(!ok));
    }

    /// Sets a contract end-to-end metric and lists it under `alias` too.
    pub fn set_e2e(&mut self, name: &str, alias: &str, value: f64, n: usize) {
        let unit = END_TO_END
            .iter()
            .find(|(m, _)| *m == name)
            .map(|(_, u)| *u)
            .expect("contract end-to-end metric");
        let v = Value { value, unit, n };
        self.end_to_end.insert(name.to_string(), v.clone());
        if alias != name {
            self.named.push((alias.to_string(), v));
        }
    }

    /// Adds a workload-specific end-to-end metric to the report only.
    pub fn named(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.named
            .push((name.to_string(), Value { value, unit, n }));
    }

    /// The final result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding every end-to-end metric (untraced) or
    /// every per-layer metric (traced).
    pub fn result_line(&self, traced: bool) -> String {
        let mut metrics = Vec::new();
        if traced {
            for (name, unit) in per_layer() {
                let v = self.per_layer.get(&name).copied().unwrap_or(0.0);
                metrics.push(metric_json(&name, v, unit));
            }
        } else {
            for (name, unit) in END_TO_END {
                let v = self.end_to_end.get(name).map_or(0.0, |v| v.value);
                metrics.push(metric_json(name, v, unit));
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Human-readable report of every metric with unit and sample count.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for (name, v) in self
            .end_to_end
            .iter()
            .chain(self.named.iter().map(|(n, v)| (n, v)))
        {
            let _ = writeln!(
                s,
                "  {name:<34} {:>14.4} {:<8} (n={})",
                v.value, v.unit, v.n
            );
        }
        for (name, v) in &self.per_layer {
            let _ = writeln!(s, "  {name:<34} {v:>14.4}");
        }
        for (what, h) in &self.hashes {
            let _ = writeln!(s, "  hash {what:<29} {h}");
        }
        for f in &self.failures {
            let _ = writeln!(s, "  FAILED {f}");
        }
        s
    }
}

/// A finite JSON number (non-finite values have no JSON form; report 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn metric_json(name: &str, v: f64, unit: &str) -> String {
    format!(
        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
        num(v)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in BENCHMARK.json must agree name for name.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let names: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').expect("closing quote")])
            .collect();
        let mut ours: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        ours.extend(per_layer().into_iter().map(|(n, _)| n));
        for n in &ours {
            assert!(
                names.contains(&n.as_str()),
                "{n} missing from BENCHMARK.json"
            );
        }
        let workloads = [
            "train-tiramisu-1r",
            "train-deeplab-2r",
            "serve-deeplab-burst",
        ];
        assert_eq!(
            names.len(),
            ours.len() + workloads.len(),
            "BENCHMARK.json lists extra names"
        );
    }

    #[test]
    fn result_line_has_every_contract_metric() {
        let mut o = Outcome::default();
        o.set_e2e("latency_p50_ms", "step_ms_p50", 12.5, 20);
        o.check("steps", 20, 0);
        let line = o.result_line(false);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 20, \"failed\": 0, \"metrics\": {"));
        for (n, _) in END_TO_END {
            assert!(line.contains(&format!("\"{n}\":")));
        }
        assert!(line.contains("\"latency_p50_ms\": {\"value\": 12.5, \"unit\": \"ms\"}"));
        assert_eq!(
            o.result_line(true).matches("\"value\"").count(),
            per_layer().len()
        );
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut o = Outcome::default();
        o.check("requests", 1000, 3);
        o.require("replicas consistent", false);
        assert_eq!((o.attempted, o.failed), (1001, 4));
        assert!(o
            .result_line(false)
            .starts_with("{\"correct\": false, \"attempted\": 1001, \"failed\": 4"));
    }
}
