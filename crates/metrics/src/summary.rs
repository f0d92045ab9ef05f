//! Aggregate metrics: SLO violation rates (Fig. 11), serving throughput
//! (Fig. 12), latency summaries (Fig. 15(c)) and phase-latency breakdowns
//! (Fig. 4 / Fig. 5).

use std::collections::BTreeMap;

use pascal_sim::SimDuration;

use crate::qoe::{answering_qoe, QoeParams};
use crate::record::RequestRecord;
use crate::tail::percentile;

/// The paper's SLO threshold: a request violates if its QoE drops below
/// 0.95 (§III-A, §V-A).
pub const SLO_QOE_THRESHOLD: f64 = 0.95;

/// Fraction of answering-capable requests whose QoE falls below
/// `threshold`. Requests without answering tokens are excluded.
///
/// # Examples
///
/// ```
/// use pascal_metrics::{slo_violation_rate, QoeParams, SLO_QOE_THRESHOLD};
///
/// let rate = slo_violation_rate(&[], &QoeParams::paper_eval(), SLO_QOE_THRESHOLD);
/// assert_eq!(rate, 0.0);
/// ```
#[must_use]
pub fn slo_violation_rate(records: &[RequestRecord], params: &QoeParams, threshold: f64) -> f64 {
    let mut considered = 0usize;
    let mut violated = 0usize;
    for r in records {
        if let Some(qoe) = answering_qoe(r, params) {
            considered += 1;
            if qoe < threshold {
                violated += 1;
            }
        }
    }
    if considered == 0 {
        0.0
    } else {
        violated as f64 / considered as f64
    }
}

/// Serving throughput as the paper measures it (Fig. 12): total generated
/// tokens (reasoning + answering) divided by the makespan from first arrival
/// to last completion.
#[must_use]
pub fn throughput_tokens_per_s(records: &[RequestRecord]) -> f64 {
    if records.is_empty() {
        return 0.0;
    }
    let total_tokens: u64 = records
        .iter()
        .map(|r| u64::from(r.spec.output_tokens()))
        .sum();
    let first_arrival = records
        .iter()
        .map(|r| r.spec.arrival)
        .min()
        .expect("non-empty");
    let last_completion = records
        .iter()
        .map(|r| r.completion)
        .max()
        .expect("non-empty");
    let span = last_completion
        .saturating_since(first_arrival)
        .as_secs_f64();
    if span <= 0.0 {
        return 0.0;
    }
    total_tokens as f64 / span
}

/// Mean / median / tail summary of a latency population (seconds).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (P50).
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl LatencySummary {
    /// Summarizes a set of values; returns `None` when empty.
    #[must_use]
    pub fn from_values(values: impl IntoIterator<Item = f64>) -> Option<Self> {
        let mut xs: Vec<f64> = values.into_iter().collect();
        if xs.is_empty() {
            return None;
        }
        xs.sort_by(|a, b| a.partial_cmp(b).expect("latencies must not be NaN"));
        let count = xs.len();
        let mean = xs.iter().sum::<f64>() / count as f64;
        Some(LatencySummary {
            count,
            mean,
            p50: percentile(&xs, 50.0),
            p99: percentile(&xs, 99.0),
            max: xs[count - 1],
        })
    }
}

/// Mean wall-time decomposition of a request population: actively executing
/// vs. waiting before first execution (blocked) vs. suspended afterwards
/// (preempted) — the stacked bars of Fig. 4 and Fig. 5(a).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Samples aggregated.
    pub count: usize,
    /// Mean executed seconds.
    pub executed_s: f64,
    /// Mean blocked-wait seconds.
    pub blocked_s: f64,
    /// Mean preempted-wait seconds.
    pub preempted_s: f64,
}

impl PhaseBreakdown {
    /// Mean total latency (sum of the three components).
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.executed_s + self.blocked_s + self.preempted_s
    }

    /// Aggregates records into a breakdown.
    #[must_use]
    pub fn of(records: impl IntoIterator<Item = (SimDuration, SimDuration, SimDuration)>) -> Self {
        let mut sum = PhaseBreakdown::default();
        for (exec, blocked, preempted) in records {
            sum.count += 1;
            sum.executed_s += exec.as_secs_f64();
            sum.blocked_s += blocked.as_secs_f64();
            sum.preempted_s += preempted.as_secs_f64();
        }
        if sum.count > 0 {
            let n = sum.count as f64;
            sum.executed_s /= n;
            sum.blocked_s /= n;
            sum.preempted_s /= n;
        }
        sum
    }
}

/// Groups records by a key (e.g. reasoning token count) and computes each
/// group's [`PhaseBreakdown`] — the x-axis grouping of Fig. 4 / Fig. 5.
#[must_use]
pub fn breakdown_by<K: Ord + Copy>(
    records: &[RequestRecord],
    key: impl Fn(&RequestRecord) -> K,
) -> BTreeMap<K, PhaseBreakdown> {
    let mut groups: BTreeMap<K, Vec<(SimDuration, SimDuration, SimDuration)>> = BTreeMap::new();
    for r in records {
        groups
            .entry(key(r))
            .or_default()
            .push((r.executed, r.blocked, r.preempted));
    }
    groups
        .into_iter()
        .map(|(k, v)| (k, PhaseBreakdown::of(v)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pascal_sim::SimTime;
    use pascal_workload::{RequestId, RequestSpec};

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    /// A request that streams its answers with a controllable stall.
    fn record_with_stall(id: u64, stall_s: f64) -> RequestRecord {
        let spec = RequestSpec::new(RequestId(id), secs(0.0), 128, 1, 20);
        let mut times = vec![secs(1.0)];
        let mut t = 1.1;
        for i in 0..20 {
            if i == 10 {
                t += stall_s;
            }
            times.push(secs(t));
            t += 0.1;
        }
        RequestRecord {
            executed: SimDuration::from_secs_f64(1.0),
            blocked: SimDuration::from_secs_f64(0.5),
            preempted: SimDuration::from_secs_f64(stall_s),
            num_preemptions: u32::from(stall_s > 0.0),
            answer_resume_time: Some(secs(1.1)),
            ..RequestRecord::fixture(spec, &times)
        }
    }

    #[test]
    fn violation_rate_counts_stalls() {
        let records = vec![
            record_with_stall(0, 0.0),
            record_with_stall(1, 5.0),
            record_with_stall(2, 0.0),
            record_with_stall(3, 4.0),
        ];
        let rate = slo_violation_rate(&records, &QoeParams::paper_eval(), SLO_QOE_THRESHOLD);
        assert!((rate - 0.5).abs() < 1e-9, "rate {rate}");
    }

    #[test]
    fn throughput_counts_all_output_tokens() {
        let records = vec![record_with_stall(0, 0.0)];
        // 21 tokens over [0, completion].
        let expected = 21.0 / records[0].completion.as_secs_f64();
        let got = throughput_tokens_per_s(&records);
        assert!((got - expected).abs() < 1e-9);
    }

    #[test]
    fn empty_population_is_quiet() {
        assert_eq!(throughput_tokens_per_s(&[]), 0.0);
        assert_eq!(
            slo_violation_rate(&[], &QoeParams::paper_eval(), SLO_QOE_THRESHOLD),
            0.0
        );
        assert_eq!(LatencySummary::from_values(std::iter::empty()), None);
    }

    #[test]
    fn latency_summary_stats() {
        let s = LatencySummary::from_values((1..=100).map(f64::from)).unwrap();
        assert_eq!(s.count, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert!((s.p50 - 50.5).abs() < 1e-9);
        assert!(s.p99 > 98.0 && s.p99 <= 100.0);
        assert_eq!(s.max, 100.0);
    }

    #[test]
    fn breakdown_means_components() {
        let records = vec![record_with_stall(0, 0.0), record_with_stall(1, 2.0)];
        let groups = breakdown_by(&records, |r| r.spec.answering_tokens);
        let b = groups[&20];
        assert_eq!(b.count, 2);
        assert!((b.executed_s - 1.0).abs() < 1e-9);
        assert!((b.blocked_s - 0.5).abs() < 1e-9);
        assert!((b.preempted_s - 1.0).abs() < 1e-9);
        assert!((b.total_s() - 2.5).abs() < 1e-9);
    }
}

/// Goodput: SLO-satisfying requests completed per second over the makespan
/// — the operator-facing counterpart of [`throughput_tokens_per_s`].
#[must_use]
pub fn goodput_requests_per_s(
    records: &[RequestRecord],
    params: &QoeParams,
    threshold: f64,
) -> f64 {
    if records.is_empty() {
        return 0.0;
    }
    let good = records
        .iter()
        .filter(|r| answering_qoe(r, params).is_none_or(|q| q >= threshold))
        .count();
    let first_arrival = records
        .iter()
        .map(|r| r.spec.arrival)
        .min()
        .expect("non-empty");
    let last_completion = records
        .iter()
        .map(|r| r.completion)
        .max()
        .expect("non-empty");
    let span = last_completion
        .saturating_since(first_arrival)
        .as_secs_f64();
    if span <= 0.0 {
        0.0
    } else {
        good as f64 / span
    }
}

/// Empirical CDF of a latency population, down-sampled to at most
/// `max_points` evenly spaced quantiles — ready for plotting TTFT
/// distributions like Fig. 15(a).
///
/// Returns `(value, cumulative_fraction)` pairs in ascending order.
#[must_use]
pub fn cdf_points(values: impl IntoIterator<Item = f64>, max_points: usize) -> Vec<(f64, f64)> {
    let mut xs: Vec<f64> = values.into_iter().collect();
    if xs.is_empty() || max_points == 0 {
        return Vec::new();
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("CDF values must not be NaN"));
    let n = xs.len();
    let points = max_points.min(n);
    (1..=points)
        .map(|i| {
            let frac = i as f64 / points as f64;
            let idx = ((frac * n as f64).ceil() as usize).clamp(1, n) - 1;
            (xs[idx], (idx + 1) as f64 / n as f64)
        })
        .collect()
}

#[cfg(test)]
mod goodput_tests {
    use super::*;
    use pascal_sim::SimTime;
    use pascal_workload::{RequestId, RequestSpec};

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn on_pace_record(id: u64, arrival: f64) -> RequestRecord {
        let spec = RequestSpec::new(RequestId(id), secs(arrival), 64, 1, 10);
        let mut times = vec![secs(arrival + 1.0)];
        for i in 0..10 {
            times.push(secs(arrival + 1.1 + 0.1 * f64::from(i)));
        }
        RequestRecord {
            executed: SimDuration::from_secs_f64(2.0),
            answer_resume_time: Some(secs(arrival + 1.1)),
            ..RequestRecord::fixture(spec, &times)
        }
    }

    #[test]
    fn goodput_counts_slo_satisfying_completions() {
        let records: Vec<RequestRecord> = (0..10).map(|i| on_pace_record(i, i as f64)).collect();
        let g = goodput_requests_per_s(&records, &QoeParams::paper_eval(), SLO_QOE_THRESHOLD);
        let span = records.last().unwrap().completion.as_secs_f64();
        assert!((g - 10.0 / span).abs() < 1e-9);
    }

    #[test]
    fn goodput_of_empty_population_is_zero() {
        assert_eq!(
            goodput_requests_per_s(&[], &QoeParams::paper_eval(), SLO_QOE_THRESHOLD),
            0.0
        );
    }

    #[test]
    fn cdf_points_are_monotone_and_end_at_one() {
        let values = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        let cdf = cdf_points(values, 10);
        assert_eq!(cdf.len(), 5);
        assert!(cdf.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
        assert_eq!(cdf.last().unwrap(), &(5.0, 1.0));
    }

    #[test]
    fn cdf_downsamples_large_populations() {
        let values: Vec<f64> = (0..10_000).map(f64::from).collect();
        let cdf = cdf_points(values, 50);
        assert_eq!(cdf.len(), 50);
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cdf_of_empty_is_empty() {
        assert!(cdf_points(std::iter::empty(), 10).is_empty());
    }
}
