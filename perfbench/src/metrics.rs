//! The benchmark's metric names, units and directions — the one list the
//! output and `BENCHMARK.json` must agree with — and the JSON result line.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's name, unit and direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricSpec {
    /// Stable name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better }
}

use Better::{Higher, Lower};

/// Printed by untraced runs (`--trace 0`).
pub const END_TO_END: [MetricSpec; 10] = [
    m("setup_s", "s", Lower),
    m("ns_per_token", "ns", Lower),
    m("peak_rss_mib", "MiB", Lower),
    m("sim_ttft_p50_s", "s", Lower),
    m("sim_ttft_p99_s", "s", Lower),
    m("sim_slo_attainment", "ratio", Higher),
    m("sim_mean_qoe", "ratio", Higher),
    m("sim_goodput_rps", "1/s", Higher),
    m("sim_throughput_tokens_per_s", "1/s", Higher),
    m("completed_share", "ratio", Higher),
];

/// Printed by traced runs (`--trace 1`).
pub const PER_LAYER: [MetricSpec; 53] = [
    m("host.reference_ms", "ms", Lower),
    m("workload.build_s", "s", Lower),
    m("workload.output_tokens", "count", Higher),
    m("sim.events", "count", Lower),
    m("sim.events_per_token", "ratio", Lower),
    m("engine.arrival.count", "count", Lower),
    m("engine.arrival.mean_us", "us", Lower),
    m("engine.arrival.p99_us", "us", Lower),
    m("engine.arrival.share", "ratio", Lower),
    m("engine.iteration.count", "count", Lower),
    m("engine.iteration.mean_us", "us", Lower),
    m("engine.iteration.p99_us", "us", Lower),
    m("engine.iteration.share", "ratio", Lower),
    m("engine.tokens_per_iteration", "count", Higher),
    m("engine.kv_io.count", "count", Lower),
    m("engine.kv_io.mean_us", "us", Lower),
    m("engine.migration.count", "count", Lower),
    m("engine.migration.mean_us", "us", Lower),
    m("engine.fleet.count", "count", Lower),
    m("engine.accounted_share", "ratio", Higher),
    m("sched.placements", "count", Higher),
    m("sched.migrations.considered", "count", Lower),
    m("sched.migrations.launched", "count", Lower),
    m("sched.migrations.vetoed", "count", Lower),
    m("sched.escape.cross_shard.considered", "count", Lower),
    m("sched.escape.cross_shard.launched", "count", Lower),
    m("sched.escape.cross_region.considered", "count", Lower),
    m("sched.escape.cross_region.launched", "count", Lower),
    m("cluster.preemptions_per_request", "ratio", Lower),
    m("cluster.kv_peak_share", "ratio", Lower),
    m("predict.coverage", "ratio", Higher),
    m("predict.rel_err_p50", "ratio", Lower),
    m("predict.abs_err_p90_tokens", "count", Lower),
    m("federation.stranded", "count", Lower),
    m("federation.nonlocal_routed", "count", Lower),
    m("metrics.summarize_s", "s", Lower),
    m("metrics.slo_violation_rate", "ratio", Lower),
    m("telemetry.trace_events", "count", Lower),
    m("telemetry.trace_overhead", "ratio", Lower),
    m("telemetry.jsonl_s", "s", Lower),
    m("telemetry.jsonl_bytes", "bytes", Lower),
    m("telemetry.traced_peak_rss_mib", "MiB", Lower),
    m("telemetry.reconstruct_s", "s", Lower),
    m("analyze.parse_s", "s", Lower),
    m("blame.ttft.queue", "ratio", Lower),
    m("blame.ttft.service", "ratio", Higher),
    m("blame.ttft.offload", "ratio", Lower),
    m("blame.ttft.parked", "ratio", Lower),
    m("blame.ttft.migration_intra", "ratio", Lower),
    m("blame.ttft.migration_cross_shard", "ratio", Lower),
    m("blame.ttft.migration_cross_region", "ratio", Lower),
    m("failed_share", "ratio", Lower),
    m("sim.wall_s", "s", Lower),
];

/// One measurement pass: metric name → value.
pub type Sample = BTreeMap<&'static str, f64>;

/// For each metric of the first sample, the median of its values over
/// `samples`.
#[must_use]
pub fn medians(samples: &[Sample]) -> Sample {
    let mut out = Sample::new();
    let Some(first) = samples.first() else {
        return out;
    };
    for &name in first.keys() {
        let values: Vec<f64> = samples
            .iter()
            .filter_map(|s| s.get(name).copied())
            .collect();
        out.insert(name, median(&values));
    }
    out
}

/// The median of `values` (mean of the middle two for an even count; 0 when
/// empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A finished run of the benchmark.
#[derive(Debug)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Requests simulated (one pass over the workload's traces).
    pub attempted: u64,
    /// Requests of traces whose run panicked or failed a check.
    pub failed: u64,
    /// Values for every metric of `specs`.
    pub values: Sample,
    /// The metric list the values answer to.
    pub specs: &'static [MetricSpec],
}

impl Outcome {
    /// The result line: `{"correct": …, "attempted": …, "failed": …,
    /// "metrics": {name: {"value": v, "unit": u}, …}}`.
    ///
    /// # Panics
    ///
    /// Panics if a metric of `specs` has no value (a bug in the benchmark).
    #[must_use]
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .specs
            .iter()
            .map(|spec| {
                let v = *self
                    .values
                    .get(spec.name)
                    .unwrap_or_else(|| panic!("no value for metric {}", spec.name));
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    spec.name,
                    json_number(v),
                    spec.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && self.values.values().all(|v| v.is_finite()),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit of `v` (non-finite values, which mark the
/// run incorrect, print as 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|s| s.name)
            .collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        for workload in crate::workload::NAMES {
            assert!(valid_name(workload), "{workload}");
        }
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "metric names must be unique");
        assert!(END_TO_END.iter().any(|s| s.name == "setup_s"));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        use pascal::core::sweep::JsonValue;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .expect(key)
                .to_vec()
        };
        let field = |v: &JsonValue, key: &str| {
            v.get(key)
                .and_then(JsonValue::as_str)
                .unwrap_or_else(|| panic!("{key} in {v:?}"))
                .to_owned()
        };
        for (key, specs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = list(key);
            assert_eq!(listed.len(), specs.len(), "{key}");
            for (entry, spec) in listed.iter().zip(specs) {
                assert_eq!(field(entry, "name"), spec.name, "{key}");
                assert_eq!(field(entry, "unit"), spec.unit, "{}", spec.name);
                assert_eq!(field(entry, "better"), spec.better.key(), "{}", spec.name);
            }
        }
        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(workloads, crate::workload::NAMES);
    }

    #[test]
    fn medians_take_the_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let samples = vec![
            Sample::from([("a", 1.0)]),
            Sample::from([("a", 5.0)]),
            Sample::from([("a", 2.0)]),
        ];
        assert_eq!(medians(&samples)["a"], 2.0);
    }

    #[test]
    fn the_result_line_has_exactly_the_four_keys() {
        let outcome = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            values: END_TO_END.iter().map(|s| (s.name, 1.5)).collect(),
            specs: &END_TO_END,
        };
        let line = outcome.to_json();
        let parsed = pascal::core::sweep::JsonValue::parse(&line).expect("valid JSON");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        let metrics = parsed.get("metrics").expect("metrics");
        for spec in END_TO_END {
            let entry = metrics.get(spec.name).expect("every metric");
            assert_eq!(entry.get("unit").and_then(|u| u.as_str()), Some(spec.unit));
        }
    }
}
