//! Dataset profiles fitted to the paper's published token statistics.
//!
//! Fig. 8 reports the reasoning/answering token distributions of the two
//! chat-style traces (AlpacaEval2.0 and Arena-Hard) and Fig. 14 the three
//! reasoning-heavy benchmarks (MATH-500, GPQA, LiveCodeBench); all were
//! produced by querying o4-mini. We reproduce each as a clamped log-normal
//! matched to the published mean and axis range, with skews chosen so that
//! the qualitative facts the paper relies on hold: >70% of chat requests
//! stay below 1,000 reasoning tokens (Fig. 10 caption) and GPQA reaches the
//! quoted 8.48× reasoning:answering ratio (§V-D).

use pascal_sim::SimRng;

use crate::dist::TokenDist;

/// Token-length profile of one dataset: prompt, reasoning and answering
/// distributions.
///
/// # Examples
///
/// ```
/// use pascal_workload::DatasetProfile;
///
/// let arena = DatasetProfile::arena_hard();
/// assert!((arena.reasoning.mean() - 968.35).abs() < 1.0);
/// assert!((arena.answering.mean() - 824.02).abs() < 1.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct DatasetProfile {
    /// Dataset name as used in the paper's figures.
    pub name: String,
    /// Prompt-length distribution (not published; short-chat estimate).
    pub prompt: TokenDist,
    /// Hidden reasoning token distribution (includes the boundary token).
    pub reasoning: TokenDist,
    /// User-visible answering token distribution.
    pub answering: TokenDist,
}

impl DatasetProfile {
    /// AlpacaEval2.0 (Fig. 8(a)): reasoning mean 557.75, answering mean
    /// 566.85, support up to ~6k tokens.
    #[must_use]
    pub fn alpaca_eval2() -> Self {
        DatasetProfile {
            name: "AlpacaEval2.0".to_owned(),
            prompt: TokenDist::log_normal_mean(96.0, 0.6, 8, 1024),
            reasoning: TokenDist::log_normal_mean(557.75, 0.95, 16, 6_000),
            answering: TokenDist::log_normal_mean(566.85, 0.85, 16, 6_000),
        }
    }

    /// Arena-Hard (Fig. 8(b)): reasoning mean 968.35, answering mean 824.02,
    /// support up to ~15k tokens.
    #[must_use]
    pub fn arena_hard() -> Self {
        DatasetProfile {
            name: "Arena-Hard".to_owned(),
            prompt: TokenDist::log_normal_mean(128.0, 0.6, 8, 2_048),
            reasoning: TokenDist::log_normal_mean(968.35, 1.0, 16, 15_000),
            answering: TokenDist::log_normal_mean(824.02, 0.9, 16, 15_000),
        }
    }

    /// MATH-500 (Fig. 14(a)): reasoning mean 747.20, answering mean 164.67.
    #[must_use]
    pub fn math500() -> Self {
        DatasetProfile {
            name: "MATH-500".to_owned(),
            prompt: TokenDist::log_normal_mean(128.0, 0.5, 8, 1_024),
            reasoning: TokenDist::log_normal_mean(747.20, 1.1, 16, 8_000),
            answering: TokenDist::log_normal_mean(164.67, 0.8, 8, 2_000),
        }
    }

    /// GPQA (Fig. 14(b)): reasoning mean 2679.27, answering mean 316.09 —
    /// the 8.48× reasoning-heavy extreme quoted in §V-D.
    #[must_use]
    pub fn gpqa() -> Self {
        DatasetProfile {
            name: "GPQA".to_owned(),
            prompt: TokenDist::log_normal_mean(192.0, 0.5, 8, 1_024),
            reasoning: TokenDist::log_normal_mean(2_679.27, 1.0, 32, 15_000),
            answering: TokenDist::log_normal_mean(316.09, 0.8, 8, 3_000),
        }
    }

    /// LiveCodeBench (Fig. 14(c)): reasoning mean 1896.64, answering mean
    /// 697.09.
    #[must_use]
    pub fn live_code_bench() -> Self {
        DatasetProfile {
            name: "LiveCodeBench".to_owned(),
            prompt: TokenDist::log_normal_mean(256.0, 0.5, 8, 2_048),
            reasoning: TokenDist::log_normal_mean(1_896.64, 1.0, 32, 15_000),
            answering: TokenDist::log_normal_mean(697.09, 0.9, 16, 8_000),
        }
    }

    /// All three reasoning-heavy profiles of Fig. 14.
    #[must_use]
    pub fn reasoning_heavy_suite() -> Vec<DatasetProfile> {
        vec![
            DatasetProfile::math500(),
            DatasetProfile::gpqa(),
            DatasetProfile::live_code_bench(),
        ]
    }

    /// Mean total output tokens (reasoning + answering) per request.
    #[must_use]
    pub fn mean_output_tokens(&self) -> f64 {
        self.reasoning.mean() + self.answering.mean()
    }
}

/// A weighted mixture of dataset profiles; each request draws its dataset
/// first, then its lengths — the construction of Fig. 16's trace (50%
/// Arena-Hard, 50% reasoning-heavy sampled uniformly).
#[derive(Clone, Debug)]
pub struct DatasetMix {
    components: Vec<(DatasetProfile, f64)>,
    total_weight: f64,
}

impl DatasetMix {
    /// Builds a mixture from `(profile, weight)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `components` is empty or any weight is non-positive.
    #[must_use]
    pub fn new(components: Vec<(DatasetProfile, f64)>) -> Self {
        assert!(
            !components.is_empty(),
            "mixture needs at least one component"
        );
        for (p, w) in &components {
            assert!(
                w.is_finite() && *w > 0.0,
                "mixture weight for {} must be positive, got {w}",
                p.name
            );
        }
        let total_weight = components.iter().map(|(_, w)| w).sum();
        DatasetMix {
            components,
            total_weight,
        }
    }

    /// A single-profile "mixture".
    #[must_use]
    pub fn single(profile: DatasetProfile) -> Self {
        DatasetMix::new(vec![(profile, 1.0)])
    }

    /// Fig. 16's trace: 50% Arena-Hard, 50% split evenly across MATH-500,
    /// GPQA and LiveCodeBench.
    #[must_use]
    pub fn arena_with_reasoning_heavy() -> Self {
        DatasetMix::new(vec![
            (DatasetProfile::arena_hard(), 0.5),
            (DatasetProfile::math500(), 0.5 / 3.0),
            (DatasetProfile::gpqa(), 0.5 / 3.0),
            (DatasetProfile::live_code_bench(), 0.5 / 3.0),
        ])
    }

    /// Draws the profile for the next request.
    pub fn sample_profile(&self, rng: &mut SimRng) -> &DatasetProfile {
        let mut pick = rng.uniform_f64() * self.total_weight;
        for (profile, weight) in &self.components {
            if pick < *weight {
                return profile;
            }
            pick -= weight;
        }
        // Floating-point edge: fall back to the last component.
        &self.components.last().expect("mixture is non-empty").0
    }

    /// Expected mean output tokens per request across the mixture.
    #[must_use]
    pub fn mean_output_tokens(&self) -> f64 {
        self.components
            .iter()
            .map(|(p, w)| p.mean_output_tokens() * w)
            .sum::<f64>()
            / self.total_weight
    }

    /// The component profiles and weights.
    #[must_use]
    pub fn components(&self) -> &[(DatasetProfile, f64)] {
        &self.components
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_means_are_encoded() {
        let cases = [
            (DatasetProfile::alpaca_eval2(), 557.75, 566.85),
            (DatasetProfile::arena_hard(), 968.35, 824.02),
            (DatasetProfile::math500(), 747.20, 164.67),
            (DatasetProfile::gpqa(), 2_679.27, 316.09),
            (DatasetProfile::live_code_bench(), 1_896.64, 697.09),
        ];
        for (profile, reasoning, answering) in cases {
            assert!(
                (profile.reasoning.mean() - reasoning).abs() < 0.5,
                "{}: reasoning mean {} != {reasoning}",
                profile.name,
                profile.reasoning.mean()
            );
            assert!(
                (profile.answering.mean() - answering).abs() < 0.5,
                "{}: answering mean {} != {answering}",
                profile.name,
                profile.answering.mean()
            );
        }
    }

    #[test]
    fn gpqa_ratio_matches_papers_8_48x() {
        let gpqa = DatasetProfile::gpqa();
        let ratio = gpqa.reasoning.mean() / gpqa.answering.mean();
        assert!((ratio - 8.48).abs() < 0.02, "GPQA ratio {ratio} != 8.48");
    }

    #[test]
    fn chat_traces_are_short_reasoning_dominated() {
        // Fig. 10 caption: >70% of requests generate <1000 reasoning tokens.
        let mut rng = SimRng::seed_from(11);
        for profile in [DatasetProfile::alpaca_eval2(), DatasetProfile::arena_hard()] {
            let n = 20_000;
            let below = (0..n)
                .filter(|_| profile.reasoning.sample(&mut rng) < 1000)
                .count();
            let frac = below as f64 / f64::from(n);
            assert!(
                frac > 0.70,
                "{}: only {frac:.2} of requests below 1000 reasoning tokens",
                profile.name
            );
        }
    }

    #[test]
    fn mixture_samples_every_component() {
        let mix = DatasetMix::arena_with_reasoning_heavy();
        let mut rng = SimRng::seed_from(12);
        let mut counts = std::collections::HashMap::new();
        let n = 10_000;
        for _ in 0..n {
            *counts
                .entry(mix.sample_profile(&mut rng).name.clone())
                .or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 4, "all four components drawn");
        let arena = counts["Arena-Hard"] as f64 / f64::from(n);
        assert!((arena - 0.5).abs() < 0.05, "arena fraction {arena} != 0.5");
    }

    #[test]
    fn mixture_mean_is_weighted() {
        let mix = DatasetMix::new(vec![
            (DatasetProfile::alpaca_eval2(), 1.0),
            (DatasetProfile::arena_hard(), 1.0),
        ]);
        let expected = (DatasetProfile::alpaca_eval2().mean_output_tokens()
            + DatasetProfile::arena_hard().mean_output_tokens())
            / 2.0;
        assert!((mix.mean_output_tokens() - expected).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_weight_rejected() {
        let _ = DatasetMix::new(vec![(DatasetProfile::gpqa(), 0.0)]);
    }
}
