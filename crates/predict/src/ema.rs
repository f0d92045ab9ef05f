//! The per-dataset running mean / quantile predictor.

use std::collections::BTreeMap;

use pascal_workload::RequestSpec;

use crate::predictor::{EstimateScope, LengthEstimate, LengthPredictor};

/// Exponential-moving-average statistics of one dataset bucket.
#[derive(Clone, Copy, Debug)]
struct BucketStats {
    observations: u64,
    reasoning_mean: f64,
    answering_mean: f64,
    /// Robbins–Monro tracker of the reasoning-length upper quantile
    /// ([`ProfileEma::QUANTILE`]), used for the oversize decision: demote
    /// speculatively only when a meaningful fraction of the dataset's
    /// requests exceed the threshold.
    reasoning_upper_q: f64,
}

impl BucketStats {
    fn new() -> Self {
        BucketStats {
            observations: 0,
            reasoning_mean: 0.0,
            answering_mean: 0.0,
            reasoning_upper_q: 0.0,
        }
    }

    fn update(&mut self, reasoning: f64, answering: f64, alpha: f64) {
        self.observations += 1;
        if self.observations == 1 {
            self.reasoning_mean = reasoning;
            self.answering_mean = answering;
            // max, not assignment: censored threshold crossings may already
            // have established a tail bound before the first (survivorship
            // -biased short) completion arrives.
            self.reasoning_upper_q = reasoning.max(self.reasoning_upper_q);
            return;
        }
        // Early observations get a larger effective step so the estimator
        // forgets its first-sample initialization quickly.
        let a = alpha.max(1.0 / self.observations as f64);
        self.reasoning_mean += a * (reasoning - self.reasoning_mean);
        self.answering_mean += a * (answering - self.answering_mean);
        // Robbins–Monro quantile step, scaled to the running mean so the
        // tracker moves at a workload-appropriate pace.
        let step = (self.reasoning_mean / 16.0).max(1.0);
        if reasoning > self.reasoning_upper_q {
            self.reasoning_upper_q += step * ProfileEma::QUANTILE;
        } else {
            self.reasoning_upper_q -= step * (1.0 - ProfileEma::QUANTILE);
        }
        self.reasoning_upper_q = self.reasoning_upper_q.max(0.0);
    }

    /// Quantile step for a right-censored sample known to exceed `bound`:
    /// whenever the tracker sits below the bound the sample is provably
    /// above it, so only the upward branch can fire. The step covers a
    /// [`ProfileEma::QUANTILE`] fraction of the remaining gap — censored
    /// bounds sit far above a survivorship-biased mean, and the fixed
    /// mean-scaled step would take hundreds of crossings to catch up. The
    /// tracker approaches but never exceeds the bound, so a burst of
    /// crossings cannot run away; completion updates keep pulling it back
    /// down when the tail evidence stops.
    fn update_quantile_censored(&mut self, bound: f64) {
        if self.observations == 0 {
            // No completions yet: the bound itself is the best tail guess.
            self.reasoning_upper_q = self.reasoning_upper_q.max(bound);
            return;
        }
        // A request observed crossing `bound` will finish above it — the
        // conditional tail mean of a heavy-tailed length sits well past the
        // crossing point. Without the overshoot the tracker asymptotes to
        // `bound` from below while completion updates drag it down, and the
        // equilibrium lands just *under* the demotion threshold.
        let target = bound * ProfileEma::CENSOR_OVERSHOOT;
        if target > self.reasoning_upper_q {
            self.reasoning_upper_q += ProfileEma::QUANTILE * (target - self.reasoning_upper_q);
        }
    }
}

/// Per-dataset running mean / quantile estimator.
///
/// Maintains one EMA bucket per dataset tag (falling back to a global
/// bucket for untagged requests or unseen datasets) and predicts the bucket
/// mean. Estimates are withheld (`None`) until a bucket has seen
/// [`ProfileEma::MIN_OBSERVATIONS`] completions, so the cold-start phase
/// degrades to non-predictive scheduling instead of guessing wildly.
///
/// # Examples
///
/// ```
/// use pascal_predict::{LengthPredictor, ProfileEma};
/// use pascal_sim::SimTime;
/// use pascal_workload::{RequestId, RequestSpec};
///
/// let mut ema = ProfileEma::default();
/// let mk = |id, r| {
///     RequestSpec::new(RequestId(id), SimTime::ZERO, 64, r, 50).with_dataset("d")
/// };
/// for i in 0..20 {
///     ema.observe(&mk(i, 800));
/// }
/// let est = ema.estimate(&mk(99, 1)); // actual length is hidden
/// assert!((est.reasoning_tokens.unwrap() - 800.0).abs() < 1e-6);
/// ```
#[derive(Clone, Debug)]
pub struct ProfileEma {
    alpha: f64,
    buckets: BTreeMap<String, BucketStats>,
    global: BucketStats,
}

impl Default for ProfileEma {
    fn default() -> Self {
        ProfileEma::new(ProfileEma::DEFAULT_ALPHA)
    }
}

impl ProfileEma {
    /// Default EMA smoothing factor.
    pub const DEFAULT_ALPHA: f64 = 0.05;
    /// Completions a bucket needs before it starts predicting.
    pub const MIN_OBSERVATIONS: u64 = 5;
    /// The tracked upper quantile of reasoning length.
    pub const QUANTILE: f64 = 0.9;
    /// How far past a censored crossing bound the true length is assumed to
    /// land (conditional tail expectation factor).
    pub const CENSOR_OVERSHOOT: f64 = 1.25;

    /// Creates an estimator with the given smoothing factor.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "EMA alpha {alpha} must be in (0, 1]"
        );
        ProfileEma {
            alpha,
            buckets: BTreeMap::new(),
            global: BucketStats::new(),
        }
    }

    /// The bucket that answers for `req`: its dataset's, if warmed up, else
    /// the global one, else nothing.
    fn lookup(&self, req: &RequestSpec) -> Option<&BucketStats> {
        let warm = |b: &&BucketStats| b.observations >= ProfileEma::MIN_OBSERVATIONS;
        self.buckets
            .get(req.dataset_key())
            .filter(warm)
            .or_else(|| Some(&self.global).filter(warm))
    }

    /// The tracked upper-quantile reasoning length for `req`'s dataset, if
    /// warmed up.
    #[must_use]
    pub fn reasoning_upper_quantile(&self, req: &RequestSpec) -> Option<f64> {
        self.lookup(req).map(|b| b.reasoning_upper_q)
    }
}

impl LengthPredictor for ProfileEma {
    fn name(&self) -> &'static str {
        "EMA"
    }

    fn estimate(&self, req: &RequestSpec) -> LengthEstimate {
        match self.lookup(req) {
            Some(b) => LengthEstimate {
                reasoning_tokens: Some(b.reasoning_mean),
                answering_tokens: Some(b.answering_mean),
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
        // Demote a whole dataset bucket only once its *tail* (tracked upper
        // quantile), not just its mean, has crossed the threshold; the mean
        // alone demotes too eagerly on heavy-tailed profiles.
        let t = f64::from(threshold_tokens);
        self.lookup(req)
            .is_some_and(|b| b.reasoning_mean > t || b.reasoning_upper_q > t)
    }

    fn observe(&mut self, completed: &RequestSpec) {
        let r = f64::from(completed.reasoning_tokens);
        let a = f64::from(completed.answering_tokens);
        self.buckets
            .entry(completed.dataset_key().to_owned())
            .or_insert_with(BucketStats::new)
            .update(r, a, self.alpha);
        self.global.update(r, a, self.alpha);
    }

    /// A mid-flight crossing is a right-censored observation: the final
    /// length is unknown but provably above `threshold_tokens`. Completions
    /// under load are survivorship-biased toward short requests, so without
    /// this signal the tracked upper quantile chronically under-estimates
    /// the tail. Only the quantile trackers move (a censored value would
    /// bias the means).
    fn observe_threshold_crossing(&mut self, req: &RequestSpec, threshold_tokens: u32) {
        let bound = f64::from(threshold_tokens) + 1.0;
        let bucket = self
            .buckets
            .entry(req.dataset_key().to_owned())
            .or_insert_with(BucketStats::new);
        bucket.update_quantile_censored(bound);
        self.global.update_quantile_censored(bound);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pascal_sim::{SimRng, SimTime};
    use pascal_workload::RequestId;

    fn req(id: u64, dataset: &str, reasoning: u32, answering: u32) -> RequestSpec {
        RequestSpec::new(RequestId(id), SimTime::ZERO, 64, reasoning, answering)
            .with_dataset(dataset)
    }

    #[test]
    fn cold_start_withholds_estimates() {
        let mut ema = ProfileEma::default();
        assert_eq!(
            ema.estimate(&req(0, "a", 100, 100)),
            LengthEstimate::UNKNOWN
        );
        for i in 0..ProfileEma::MIN_OBSERVATIONS - 1 {
            ema.observe(&req(i, "a", 100, 100));
        }
        assert!(!ema.estimate(&req(9, "a", 1, 1)).is_known());
        ema.observe(&req(8, "a", 100, 100));
        assert!(ema.estimate(&req(9, "a", 1, 1)).is_known());
    }

    #[test]
    fn unseen_dataset_falls_back_to_global() {
        let mut ema = ProfileEma::default();
        for i in 0..10 {
            ema.observe(&req(i, "a", 400, 40));
        }
        let est = ema.estimate(&req(99, "never-seen", 1, 1));
        assert!((est.reasoning_tokens.unwrap() - 400.0).abs() < 1e-6);
    }

    #[test]
    fn buckets_are_conditioned_on_dataset() {
        let mut ema = ProfileEma::default();
        for i in 0..20 {
            ema.observe(&req(2 * i, "short", 100, 50));
            ema.observe(&req(2 * i + 1, "long", 3000, 50));
        }
        let short = ema.estimate(&req(100, "short", 1, 1));
        let long = ema.estimate(&req(101, "long", 1, 1));
        assert!(short.reasoning_tokens.unwrap() < 200.0);
        assert!(long.reasoning_tokens.unwrap() > 2000.0);
        assert!(ema.work_score(&req(101, "long", 1, 1)) > ema.work_score(&req(100, "short", 1, 1)));
    }

    /// Property: on a stationary dataset the running mean converges to the
    /// true mean (within sampling noise) from any of several seeds.
    #[test]
    fn prop_converges_to_stationary_mean() {
        for seed in [1u64, 7, 42, 1234] {
            let mut rng = SimRng::seed_from(seed);
            // With alpha below 1/n the update rule degenerates to the true
            // running mean, which converges almost surely on a stationary
            // stream — the property under test.
            let mut ema = ProfileEma::new(1e-9);
            let true_mean = 900.0;
            let mu = pascal_sim::log_normal_mu_for_mean(true_mean, 0.5);
            for i in 0..4000 {
                let r = rng.log_normal(mu, 0.5).round().max(1.0) as u32;
                ema.observe(&req(i, "stationary", r, 10));
            }
            let est = ema
                .estimate(&req(u64::MAX, "stationary", 1, 1))
                .reasoning_tokens
                .expect("warmed up");
            let rel = (est - true_mean).abs() / true_mean;
            assert!(
                rel < 0.05,
                "seed {seed}: EMA {est:.1} not within 5% of stationary mean {true_mean}"
            );
        }
    }

    #[test]
    fn oversize_decision_follows_the_tail() {
        let mut ema = ProfileEma::default();
        // 80% short, 20% oversized: mean stays below a 2000 threshold but the
        // tracked 0.9-quantile must cross it.
        for i in 0..500 {
            let r = if i % 5 == 0 { 6000 } else { 300 };
            ema.observe(&req(i, "tailed", r, 10));
        }
        let probe = req(9999, "tailed", 1, 1);
        let mean = ema.estimate(&probe).reasoning_tokens.unwrap();
        assert!(mean < 2000.0, "mean {mean} should stay below threshold");
        assert!(
            ema.predicts_oversized(&probe, 2000),
            "upper quantile {:?} should cross 2000",
            ema.reasoning_upper_quantile(&probe)
        );
        assert!(!ema.predicts_oversized(&probe, 20_000));
    }

    #[test]
    fn censored_crossings_raise_the_tail_estimate() {
        let mut ema = ProfileEma::default();
        // Completions are survivorship-biased short: only 300-token requests
        // finish during the window.
        for i in 0..50 {
            ema.observe(&req(i, "biased", 300, 10));
        }
        let probe = req(9_999, "biased", 1, 1);
        assert!(!ema.predicts_oversized(&probe, 5_000));
        // Mid-flight crossings prove the tail exists even though no giant
        // has completed; the quantile tracker must follow.
        for i in 0..200 {
            ema.observe_threshold_crossing(&req(1_000 + i, "biased", 1, 1), 5_000);
        }
        assert!(
            ema.predicts_oversized(&probe, 5_000),
            "tracked q = {:?} should have crossed 5000",
            ema.reasoning_upper_quantile(&probe)
        );
        // Means stay driven by completions alone (censored values excluded).
        let mean = ema.estimate(&probe).reasoning_tokens.unwrap();
        assert!((mean - 300.0).abs() < 1e-6);
    }

    #[test]
    fn first_completion_keeps_censored_tail_bound() {
        let mut ema = ProfileEma::default();
        // Crossings establish the tail before anything completes …
        ema.observe_threshold_crossing(&req(0, "d", 1, 1), 5_000);
        // … and the first short completion must not erase that bound.
        for i in 0..10 {
            ema.observe(&req(1 + i, "d", 300, 10));
        }
        let q = ema
            .reasoning_upper_quantile(&req(99, "d", 1, 1))
            .expect("warm");
        assert!(
            q > 4_000.0,
            "first completion clobbered the tail bound: {q}"
        );
    }

    #[test]
    fn observe_sequences_are_deterministic() {
        let run = || {
            let mut ema = ProfileEma::default();
            for i in 0..200 {
                ema.observe(&req(
                    i,
                    if i % 3 == 0 { "a" } else { "b" },
                    (i as u32) * 7 % 900 + 1,
                    5,
                ));
            }
            format!("{ema:?}")
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1]")]
    fn bad_alpha_rejected() {
        let _ = ProfileEma::new(0.0);
    }
}
