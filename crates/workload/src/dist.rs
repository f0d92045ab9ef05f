//! Token-count distributions.
//!
//! The paper's traces are token-length distributions (Fig. 8, Fig. 14)
//! obtained by querying o4-mini; we fit clamped log-normals to the published
//! means and axis ranges (see `DESIGN.md` §2). Characterization workloads
//! (Fig. 4, Fig. 5) use fixed values or uniform choices over a discrete set.

use pascal_sim::{log_normal_mu_for_mean, SimRng};

/// A distribution over token counts.
///
/// # Examples
///
/// ```
/// use pascal_sim::SimRng;
/// use pascal_workload::TokenDist;
///
/// let dist = TokenDist::log_normal_mean(557.75, 0.95, 16, 6000);
/// let mut rng = SimRng::seed_from(1);
/// let draw = dist.sample(&mut rng);
/// assert!((16..=6000).contains(&draw));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub enum TokenDist {
    /// Always the same count.
    Fixed(u32),
    /// Uniform over an explicit set of counts (e.g. `{128, 256, …, 2048}`).
    Choice(Vec<u32>),
    /// Uniform over an inclusive integer range.
    Uniform {
        /// Smallest value (inclusive).
        lo: u32,
        /// Largest value (inclusive).
        hi: u32,
    },
    /// Log-normal with underlying parameters `mu`/`sigma`, clamped into
    /// `[min, max]`.
    LogNormal {
        /// Mean of the underlying normal.
        mu: f64,
        /// Standard deviation of the underlying normal.
        sigma: f64,
        /// Clamp floor (inclusive).
        min: u32,
        /// Clamp ceiling (inclusive).
        max: u32,
    },
}

impl TokenDist {
    /// A log-normal fitted so its (unclamped) mean equals `mean`.
    ///
    /// # Panics
    ///
    /// Panics if `mean <= 0`, `sigma < 0`, or `min > max`.
    #[must_use]
    pub fn log_normal_mean(mean: f64, sigma: f64, min: u32, max: u32) -> Self {
        assert!(min <= max, "log_normal_mean requires min <= max");
        TokenDist::LogNormal {
            mu: log_normal_mu_for_mean(mean, sigma),
            sigma,
            min,
            max,
        }
    }

    /// Draws one token count.
    ///
    /// # Panics
    ///
    /// Panics if a [`TokenDist::Choice`] is empty or a
    /// [`TokenDist::Uniform`] has `lo > hi`.
    pub fn sample(&self, rng: &mut SimRng) -> u32 {
        match self {
            TokenDist::Fixed(v) => *v,
            TokenDist::Choice(set) => *rng.choose(set),
            TokenDist::Uniform { lo, hi } => {
                rng.uniform_range(u64::from(*lo), u64::from(*hi)) as u32
            }
            TokenDist::LogNormal {
                mu,
                sigma,
                min,
                max,
            } => {
                let draw = rng.log_normal(*mu, *sigma).round();
                (draw.clamp(f64::from(*min), f64::from(*max))) as u32
            }
        }
    }

    /// Analytic mean of the distribution (ignoring clamping for the
    /// log-normal case — the presets keep clamp mass negligible).
    #[must_use]
    pub fn mean(&self) -> f64 {
        match self {
            TokenDist::Fixed(v) => f64::from(*v),
            TokenDist::Choice(set) => {
                set.iter().map(|v| f64::from(*v)).sum::<f64>() / set.len() as f64
            }
            TokenDist::Uniform { lo, hi } => (f64::from(*lo) + f64::from(*hi)) / 2.0,
            TokenDist::LogNormal { mu, sigma, .. } => (mu + sigma * sigma / 2.0).exp(),
        }
    }

    /// Largest value the distribution can produce.
    #[must_use]
    pub fn max_value(&self) -> u32 {
        match self {
            TokenDist::Fixed(v) => *v,
            TokenDist::Choice(set) => set.iter().copied().max().unwrap_or(0),
            TokenDist::Uniform { hi, .. } => *hi,
            TokenDist::LogNormal { max, .. } => *max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fixed_always_same() {
        let mut rng = SimRng::seed_from(1);
        let d = TokenDist::Fixed(128);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 128);
        }
        assert_eq!(d.mean(), 128.0);
    }

    #[test]
    fn choice_covers_all_options() {
        let mut rng = SimRng::seed_from(2);
        let set = vec![128, 256, 512, 1024, 2048];
        let d = TokenDist::Choice(set.clone());
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            seen.insert(d.sample(&mut rng));
        }
        assert_eq!(seen.len(), set.len());
        assert!((d.mean() - 793.6).abs() < 1e-9);
    }

    #[test]
    fn uniform_within_bounds() {
        let mut rng = SimRng::seed_from(3);
        let d = TokenDist::Uniform { lo: 128, hi: 2048 };
        for _ in 0..1000 {
            let v = d.sample(&mut rng);
            assert!((128..=2048).contains(&v));
        }
    }

    #[test]
    fn log_normal_empirical_mean_tracks_target() {
        let mut rng = SimRng::seed_from(4);
        let d = TokenDist::log_normal_mean(968.35, 1.0, 16, 15_000);
        let n = 100_000;
        let mean = (0..n).map(|_| f64::from(d.sample(&mut rng))).sum::<f64>() / f64::from(n);
        assert!(
            (mean - 968.35).abs() / 968.35 < 0.05,
            "empirical mean {mean} too far from 968.35"
        );
    }

    #[test]
    fn max_value_reported() {
        assert_eq!(TokenDist::Fixed(5).max_value(), 5);
        assert_eq!(TokenDist::Choice(vec![1, 9, 3]).max_value(), 9);
        assert_eq!(TokenDist::Uniform { lo: 1, hi: 7 }.max_value(), 7);
        assert_eq!(
            TokenDist::log_normal_mean(100.0, 0.5, 1, 999).max_value(),
            999
        );
    }

    proptest! {
        #[test]
        fn prop_log_normal_respects_clamp(
            seed in any::<u64>(),
            mean in 10.0f64..5000.0,
            sigma in 0.1f64..1.5,
        ) {
            let mut rng = SimRng::seed_from(seed);
            let d = TokenDist::log_normal_mean(mean, sigma, 16, 8000);
            let v = d.sample(&mut rng);
            prop_assert!((16..=8000).contains(&v));
        }

        #[test]
        fn prop_uniform_mean_is_midpoint(lo in 0u32..1000, width in 0u32..1000) {
            let d = TokenDist::Uniform { lo, hi: lo + width };
            prop_assert!((d.mean() - (f64::from(lo) + f64::from(width) / 2.0)).abs() < 1e-9);
        }
    }
}
