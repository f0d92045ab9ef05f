//! The streaming-quantile predictor: P² estimates per phase class.
//!
//! The EMA predictor tracks per-dataset *means* — fine for symmetric
//! lengths, but reasoning lengths are heavy-tailed, where the mean
//! over-predicts the typical request and under-predicts the tail. This
//! predictor instead tracks *quantiles* with the P² algorithm (Jain &
//! Chlamtac, 1985): five markers per tracked quantile, updated in O(1) per
//! observation with parabolic interpolation, no sample buffer. Each
//! dataset bucket tracks the median reasoning and answering lengths (the
//! estimate served to placement and admission) and an upper reasoning
//! quantile (the speculative-demotion signal), with the same
//! right-censored threshold-crossing feedback the EMA uses — completions
//! under saturation are survivorship-biased short, and mid-flight
//! crossings are the only early evidence of the tail.

use std::collections::BTreeMap;

use pascal_workload::RequestSpec;

use crate::predictor::{EstimateScope, LengthEstimate, LengthPredictor};

/// One P² streaming quantile estimator: O(1) state, O(1) update.
///
/// # Examples
///
/// ```
/// use pascal_predict::P2Quantile;
///
/// let mut p50 = P2Quantile::new(0.5);
/// for x in 1..=101 {
///     p50.observe(f64::from(x));
/// }
/// let est = p50.estimate().unwrap();
/// assert!((est - 51.0).abs() < 5.0, "median of 1..=101 is 51, got {est}");
/// ```
#[derive(Clone, Copy, Debug)]
pub struct P2Quantile {
    q: f64,
    /// Samples seen. The first five land in `heights` directly.
    count: u64,
    /// Marker heights (the quantile estimates); `heights[2]` is the
    /// q-quantile once warmed up.
    heights: [f64; 5],
    /// Actual marker positions (1-based ranks).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Per-observation increments of the desired positions.
    increments: [f64; 5],
}

impl P2Quantile {
    /// A tracker for the `q`-quantile.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `(0, 1)`.
    #[must_use]
    pub fn new(q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "P² quantile {q} must be in (0, 1)");
        P2Quantile {
            q,
            count: 0,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
        }
    }

    /// Samples observed so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The current quantile estimate: exact over the first five samples,
    /// the P² center marker afterwards. `None` before the first sample.
    #[must_use]
    pub fn estimate(&self) -> Option<f64> {
        match self.count {
            0 => None,
            n if n < 5 => {
                // Exact small-sample quantile by nearest rank.
                let mut sorted = self.heights;
                let filled = &mut sorted[..n as usize];
                filled.sort_by(f64::total_cmp);
                let rank = (self.q * n as f64).ceil().max(1.0) as usize - 1;
                Some(filled[rank.min(n as usize - 1)])
            }
            _ => Some(self.heights[2]),
        }
    }

    /// Feeds one sample.
    pub fn observe(&mut self, x: f64) {
        if self.count < 5 {
            self.heights[self.count as usize] = x;
            self.count += 1;
            if self.count == 5 {
                self.heights.sort_by(f64::total_cmp);
            }
            return;
        }
        self.count += 1;

        // Locate the cell, extending the extreme markers when x escapes.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            (0..4)
                .find(|&i| x < self.heights[i + 1])
                .expect("x is below heights[4]")
        };

        for i in (k + 1)..5 {
            self.positions[i] += 1.0;
        }
        for i in 0..5 {
            self.desired[i] += self.increments[i];
        }

        // Nudge the three interior markers toward their desired positions.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let step_up = self.positions[i + 1] - self.positions[i] > 1.0;
            let step_down = self.positions[i - 1] - self.positions[i] < -1.0;
            if (d >= 1.0 && step_up) || (d <= -1.0 && step_down) {
                let d = d.signum();
                let parabolic = self.parabolic(i, d);
                self.heights[i] =
                    if self.heights[i - 1] < parabolic && parabolic < self.heights[i + 1] {
                        parabolic
                    } else {
                        self.linear(i, d)
                    };
                self.positions[i] += d;
            }
        }
    }

    /// Piecewise-parabolic (P²) height prediction for marker `i` moving by
    /// `d` (±1).
    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (h, p) = (&self.heights, &self.positions);
        h[i] + d / (p[i + 1] - p[i - 1])
            * ((p[i] - p[i - 1] + d) * (h[i + 1] - h[i]) / (p[i + 1] - p[i])
                + (p[i + 1] - p[i] - d) * (h[i] - h[i - 1]) / (p[i] - p[i - 1]))
    }

    /// Linear fallback when the parabola would cross a neighbor.
    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.heights[i]
            + d * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }
}

/// Per-phase P² trackers of one dataset bucket.
#[derive(Clone, Copy, Debug)]
struct QuantileBucket {
    observations: u64,
    reasoning_median: P2Quantile,
    answering_median: P2Quantile,
    /// Upper reasoning quantile — the oversize/demotion signal.
    reasoning_upper: P2Quantile,
    /// Right-censored tail bound from mid-flight threshold crossings; kept
    /// outside the P² state so a burst of crossings cannot distort the
    /// completion-driven quantile, exactly like the EMA's censored tracker.
    censored_tail: f64,
}

impl QuantileBucket {
    fn new() -> Self {
        QuantileBucket {
            observations: 0,
            reasoning_median: P2Quantile::new(0.5),
            answering_median: P2Quantile::new(0.5),
            reasoning_upper: P2Quantile::new(QuantilePredictor::UPPER_QUANTILE),
            censored_tail: 0.0,
        }
    }

    fn observe(&mut self, reasoning: f64, answering: f64) {
        self.observations += 1;
        self.reasoning_median.observe(reasoning);
        self.answering_median.observe(answering);
        self.reasoning_upper.observe(reasoning);
    }

    fn observe_censored(&mut self, bound: f64) {
        // The true length provably exceeds `bound`; assume the conditional
        // tail expectation overshoot and approach it, never past it.
        let target = bound * QuantilePredictor::CENSOR_OVERSHOOT;
        if target > self.censored_tail {
            self.censored_tail += QuantilePredictor::UPPER_QUANTILE * (target - self.censored_tail);
        }
    }

    fn upper_reasoning(&self) -> f64 {
        self.reasoning_upper
            .estimate()
            .unwrap_or(0.0)
            .max(self.censored_tail)
    }
}

/// Per-dataset streaming-quantile estimator (`--predictor quantile`).
///
/// Maintains one [`P2Quantile`] triple per dataset tag (falling back to a
/// global bucket for untagged requests or unseen datasets) and predicts
/// the tracked *median* per phase. Estimates are withheld until a bucket
/// has seen [`QuantilePredictor::MIN_OBSERVATIONS`] completions — P²'s own
/// warm-up — so the cold-start phase degrades to non-predictive
/// scheduling.
///
/// # Examples
///
/// ```
/// use pascal_predict::{LengthPredictor, QuantilePredictor};
/// use pascal_sim::SimTime;
/// use pascal_workload::{RequestId, RequestSpec};
///
/// let mut q = QuantilePredictor::default();
/// let mk = |id, r| {
///     RequestSpec::new(RequestId(id), SimTime::ZERO, 64, r, 50).with_dataset("d")
/// };
/// for i in 0..40 {
///     // 75% short, 25% long: the median must follow the short mode.
///     q.observe(&mk(i, if i % 4 == 0 { 4000 } else { 300 }));
/// }
/// let est = q.estimate(&mk(99, 1)).reasoning_tokens.unwrap();
/// assert!(est < 1000.0, "median tracks the typical request, got {est}");
/// ```
#[derive(Clone, Debug)]
pub struct QuantilePredictor {
    buckets: BTreeMap<String, QuantileBucket>,
    global: QuantileBucket,
}

impl Default for QuantilePredictor {
    fn default() -> Self {
        QuantilePredictor {
            buckets: BTreeMap::new(),
            global: QuantileBucket::new(),
        }
    }
}

impl QuantilePredictor {
    /// Completions a bucket needs before it starts predicting (P²'s five-
    /// sample initialization).
    pub const MIN_OBSERVATIONS: u64 = 5;
    /// The tracked upper quantile of reasoning length.
    pub const UPPER_QUANTILE: f64 = 0.9;
    /// How far past a censored crossing bound the true length is assumed
    /// to land (conditional tail expectation factor).
    pub const CENSOR_OVERSHOOT: f64 = 1.25;

    /// The bucket that answers for `req`: its dataset's, if warmed up,
    /// else the global one, else nothing.
    fn lookup(&self, req: &RequestSpec) -> Option<&QuantileBucket> {
        let warm = |b: &&QuantileBucket| b.observations >= QuantilePredictor::MIN_OBSERVATIONS;
        self.buckets
            .get(req.dataset_key())
            .filter(warm)
            .or_else(|| Some(&self.global).filter(warm))
    }

    /// The tracked upper-quantile reasoning length for `req`'s dataset, if
    /// warmed up (includes the censored tail bound).
    #[must_use]
    pub fn reasoning_upper_quantile(&self, req: &RequestSpec) -> Option<f64> {
        self.lookup(req).map(QuantileBucket::upper_reasoning)
    }
}

impl LengthPredictor for QuantilePredictor {
    fn name(&self) -> &'static str {
        "Quantile"
    }

    fn estimate(&self, req: &RequestSpec) -> LengthEstimate {
        match self.lookup(req) {
            Some(b) => LengthEstimate {
                reasoning_tokens: b.reasoning_median.estimate(),
                answering_tokens: b.answering_median.estimate(),
            },
            None => LengthEstimate::UNKNOWN,
        }
    }

    /// One bucket per dataset tag, falling back to the global bucket.
    fn estimate_scope(&self) -> EstimateScope {
        EstimateScope::Dataset
    }

    fn work_score(&self, req: &RequestSpec) -> f64 {
        self.estimate(req).total_tokens().unwrap_or(0.0)
    }

    fn predicts_oversized(&self, req: &RequestSpec, threshold_tokens: u32) -> bool {
        // Demote on the tracked *upper* quantile, not the median: a
        // median-driven rule would never demote a bucket whose typical
        // request is short even when a fifth of it is oversized.
        self.lookup(req)
            .is_some_and(|b| b.upper_reasoning() > f64::from(threshold_tokens))
    }

    fn observe(&mut self, completed: &RequestSpec) {
        let r = f64::from(completed.reasoning_tokens);
        let a = f64::from(completed.answering_tokens);
        self.buckets
            .entry(completed.dataset_key().to_owned())
            .or_insert_with(QuantileBucket::new)
            .observe(r, a);
        self.global.observe(r, a);
    }

    fn observe_threshold_crossing(&mut self, req: &RequestSpec, threshold_tokens: u32) {
        let bound = f64::from(threshold_tokens) + 1.0;
        self.buckets
            .entry(req.dataset_key().to_owned())
            .or_insert_with(QuantileBucket::new)
            .observe_censored(bound);
        self.global.observe_censored(bound);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pascal_sim::{log_normal_mu_for_mean, SimRng, SimTime};
    use pascal_workload::RequestId;

    fn req(id: u64, dataset: &str, reasoning: u32, answering: u32) -> RequestSpec {
        RequestSpec::new(RequestId(id), SimTime::ZERO, 64, reasoning, answering)
            .with_dataset(dataset)
    }

    #[test]
    fn p2_tracks_known_quantiles_of_a_lognormal_stream() {
        // Property: the P² estimate lands within a few percent of the
        // exact sample quantile on a heavy-tailed stream, for several
        // seeds and quantiles.
        for seed in [1u64, 7, 42] {
            for q in [0.5, 0.9] {
                let mut rng = SimRng::seed_from(seed);
                let mut p2 = P2Quantile::new(q);
                let mut samples = Vec::new();
                let mu = log_normal_mu_for_mean(900.0, 0.8);
                for _ in 0..5000 {
                    let x = rng.log_normal(mu, 0.8);
                    p2.observe(x);
                    samples.push(x);
                }
                samples.sort_by(f64::total_cmp);
                let exact = samples[(q * 5000.0) as usize - 1];
                let est = p2.estimate().expect("warmed up");
                let rel = (est - exact).abs() / exact;
                assert!(
                    rel < 0.06,
                    "seed {seed} q{q}: P² {est:.1} vs exact {exact:.1} ({rel:.3} rel)"
                );
            }
        }
    }

    #[test]
    fn p2_small_sample_estimates_are_exact_order_statistics() {
        let mut p2 = P2Quantile::new(0.5);
        assert_eq!(p2.estimate(), None);
        p2.observe(30.0);
        assert_eq!(p2.estimate(), Some(30.0));
        p2.observe(10.0);
        p2.observe(20.0);
        // Nearest-rank median of {10, 20, 30} at n=3: ceil(0.5·3)=2nd.
        assert_eq!(p2.estimate(), Some(20.0));
        assert_eq!(p2.count(), 3);
    }

    #[test]
    fn p2_monotone_markers_survive_adversarial_input() {
        // Strictly decreasing input forces every extreme-marker branch.
        let mut p2 = P2Quantile::new(0.9);
        for x in (0..500).rev() {
            p2.observe(f64::from(x));
        }
        let est = p2.estimate().unwrap();
        assert!((400.0..500.0).contains(&est), "p90 of 0..500 ≈ 450: {est}");
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1)")]
    fn p2_rejects_degenerate_quantiles() {
        let _ = P2Quantile::new(1.0);
    }

    #[test]
    fn cold_start_withholds_estimates() {
        let mut q = QuantilePredictor::default();
        assert_eq!(q.estimate(&req(0, "a", 100, 100)), LengthEstimate::UNKNOWN);
        for i in 0..QuantilePredictor::MIN_OBSERVATIONS - 1 {
            q.observe(&req(i, "a", 100, 100));
        }
        assert!(!q.estimate(&req(9, "a", 1, 1)).is_known());
        q.observe(&req(8, "a", 100, 100));
        assert!(q.estimate(&req(9, "a", 1, 1)).is_known());
    }

    #[test]
    fn unseen_dataset_falls_back_to_global() {
        let mut q = QuantilePredictor::default();
        for i in 0..10 {
            q.observe(&req(i, "a", 400, 40));
        }
        let est = q.estimate(&req(99, "never-seen", 1, 1));
        assert!((est.reasoning_tokens.unwrap() - 400.0).abs() < 1e-6);
    }

    #[test]
    fn median_resists_the_tail_that_skews_the_mean() {
        // 80% short / 20% giant: the mean lands mid-air, the median stays
        // on the typical request — the estimator's whole reason to exist.
        let mut q = QuantilePredictor::default();
        for i in 0..500 {
            q.observe(&req(i, "tailed", if i % 5 == 0 { 20_000 } else { 300 }, 10));
        }
        let probe = req(9999, "tailed", 1, 1);
        let median = q.estimate(&probe).reasoning_tokens.unwrap();
        assert!(median < 500.0, "median must hug the short mode: {median}");
        // …while the upper quantile still sees the giants and demotes.
        assert!(
            q.predicts_oversized(&probe, 2000),
            "p90 {:?} must cross 2000",
            q.reasoning_upper_quantile(&probe)
        );
        assert!(!q.predicts_oversized(&probe, 50_000));
        assert!(q.work_score(&probe) > 0.0);
    }

    #[test]
    fn censored_crossings_raise_the_tail_estimate() {
        let mut q = QuantilePredictor::default();
        for i in 0..50 {
            q.observe(&req(i, "biased", 300, 10));
        }
        let probe = req(9999, "biased", 1, 1);
        assert!(!q.predicts_oversized(&probe, 5000));
        for i in 0..200 {
            q.observe_threshold_crossing(&req(1000 + i, "biased", 1, 1), 5000);
        }
        assert!(
            q.predicts_oversized(&probe, 5000),
            "censored tail {:?} must cross 5000",
            q.reasoning_upper_quantile(&probe)
        );
        // The completion-driven median is untouched by censored feedback.
        let median = q.estimate(&probe).reasoning_tokens.unwrap();
        assert!((median - 300.0).abs() < 1e-6);
    }

    #[test]
    fn observe_sequences_are_deterministic() {
        let run = || {
            let mut q = QuantilePredictor::default();
            for i in 0..300 {
                q.observe(&req(
                    i,
                    if i % 3 == 0 { "a" } else { "b" },
                    (i as u32) * 7 % 900 + 1,
                    5,
                ));
                if i % 11 == 0 {
                    q.observe_threshold_crossing(&req(1000 + i, "a", 1, 1), 2000);
                }
            }
            format!("{q:?}")
        };
        assert_eq!(run(), run());
    }
}
