//! Percentiles and the paper's adaptive tail-TTFT binning (Fig. 10 caption).
//!
//! Requests are grouped into 256-token bins by reasoning length. Because the
//! length distribution is highly skewed, the paper reports a different tail
//! statistic per bin depending on how many samples landed in it: maximum for
//! <10 samples, P90 for <20, P95 for <100, P99 otherwise — and omits bins
//! with fewer than five samples.

/// Linear-interpolation percentile of `sorted` values, `p` in `[0, 100]`.
///
/// # Panics
///
/// Panics if `sorted` is empty, unsorted, or `p` is out of range.
///
/// # Examples
///
/// ```
/// use pascal_metrics::percentile;
///
/// let xs = vec![1.0, 2.0, 3.0, 4.0];
/// assert_eq!(percentile(&xs, 0.0), 1.0);
/// assert_eq!(percentile(&xs, 100.0), 4.0);
/// assert_eq!(percentile(&xs, 50.0), 2.5);
/// ```
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of [0, 100]");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "percentile input must be sorted"
    );
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Which statistic the adaptive rule picked for a bin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TailStat {
    /// Maximum (bins with fewer than 10 samples).
    Max,
    /// 90th percentile (fewer than 20 samples).
    P90,
    /// 95th percentile (fewer than 100 samples).
    P95,
    /// 99th percentile (100 samples or more).
    P99,
}

impl std::fmt::Display for TailStat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TailStat::Max => f.write_str("max"),
            TailStat::P90 => f.write_str("P90"),
            TailStat::P95 => f.write_str("P95"),
            TailStat::P99 => f.write_str("P99"),
        }
    }
}

/// Tail statistic of one reasoning-length bin.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BinTail {
    /// Inclusive lower edge of the bin (tokens).
    pub bin_lo: u32,
    /// Exclusive upper edge of the bin (tokens).
    pub bin_hi: u32,
    /// Number of samples in the bin.
    pub count: usize,
    /// Which statistic the adaptive rule used.
    pub stat: TailStat,
    /// The tail value (same unit as the input values).
    pub value: f64,
}

/// Applies the Fig. 10 adaptive rule to one bin's samples. Returns `None`
/// for bins with fewer than five samples ("statistically less meaningful").
#[must_use]
pub fn adaptive_tail(samples: &mut [f64]) -> Option<(TailStat, f64)> {
    let n = samples.len();
    if n < 5 {
        return None;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("tail samples must not be NaN"));
    let (stat, p) = if n < 10 {
        (TailStat::Max, 100.0)
    } else if n < 20 {
        (TailStat::P90, 90.0)
    } else if n < 100 {
        (TailStat::P95, 95.0)
    } else {
        (TailStat::P99, 99.0)
    };
    Some((stat, percentile(samples, p)))
}

/// Bins `(reasoning_tokens, value)` pairs into `bin_width`-token bins and
/// applies the adaptive tail rule to each (Fig. 10, Fig. 13(a), Fig. 16(b)).
///
/// Returned bins are sorted by lower edge; omitted bins are skipped.
///
/// # Panics
///
/// Panics if `bin_width` is zero.
#[must_use]
pub fn tail_by_token_bins(
    points: impl IntoIterator<Item = (u32, f64)>,
    bin_width: u32,
) -> Vec<BinTail> {
    assert!(bin_width > 0, "bin_width must be non-zero");
    let mut bins: std::collections::BTreeMap<u32, Vec<f64>> = std::collections::BTreeMap::new();
    for (tokens, value) in points {
        bins.entry(tokens / bin_width).or_default().push(value);
    }
    bins.into_iter()
        .filter_map(|(bin, mut samples)| {
            let count = samples.len();
            adaptive_tail(&mut samples).map(|(stat, value)| BinTail {
                bin_lo: bin * bin_width,
                bin_hi: (bin + 1) * bin_width,
                count,
                stat,
                value,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn percentile_interpolates() {
        let xs = vec![10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&xs, 25.0), 20.0);
        assert_eq!(percentile(&xs, 90.0), 46.0);
    }

    #[test]
    fn adaptive_rule_thresholds() {
        let mk = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(adaptive_tail(&mut mk(4)), None);
        assert_eq!(adaptive_tail(&mut mk(5)).unwrap().0, TailStat::Max);
        assert_eq!(adaptive_tail(&mut mk(9)).unwrap().0, TailStat::Max);
        assert_eq!(adaptive_tail(&mut mk(10)).unwrap().0, TailStat::P90);
        assert_eq!(adaptive_tail(&mut mk(19)).unwrap().0, TailStat::P90);
        assert_eq!(adaptive_tail(&mut mk(20)).unwrap().0, TailStat::P95);
        assert_eq!(adaptive_tail(&mut mk(99)).unwrap().0, TailStat::P95);
        assert_eq!(adaptive_tail(&mut mk(100)).unwrap().0, TailStat::P99);
    }

    #[test]
    fn max_rule_returns_maximum() {
        let mut xs = vec![3.0, 9.0, 1.0, 7.0, 5.0];
        let (stat, v) = adaptive_tail(&mut xs).unwrap();
        assert_eq!(stat, TailStat::Max);
        assert_eq!(v, 9.0);
    }

    #[test]
    fn binning_groups_by_reasoning_length() {
        // 6 points in bin [0,256), 5 in bin [256,512), 3 in [512,768) (omitted).
        let points = vec![
            (10, 1.0),
            (100, 2.0),
            (200, 3.0),
            (250, 4.0),
            (255, 5.0),
            (128, 6.0),
            (256, 1.0),
            (300, 2.0),
            (400, 3.0),
            (500, 4.0),
            (511, 5.0),
            (512, 1.0),
            (600, 2.0),
            (700, 3.0),
        ];
        let bins = tail_by_token_bins(points, 256);
        assert_eq!(bins.len(), 2);
        assert_eq!(bins[0].bin_lo, 0);
        assert_eq!(bins[0].count, 6);
        assert_eq!(bins[0].stat, TailStat::Max);
        assert_eq!(bins[0].value, 6.0);
        assert_eq!(bins[1].bin_lo, 256);
        assert_eq!(bins[1].count, 5);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_rejects_empty() {
        let _ = percentile(&[], 50.0);
    }

    #[test]
    fn display_stat_labels() {
        assert_eq!(TailStat::Max.to_string(), "max");
        assert_eq!(TailStat::P99.to_string(), "P99");
    }

    proptest! {
        /// Percentiles are monotone in p and bounded by min/max.
        #[test]
        fn prop_percentile_monotone(
            mut xs in proptest::collection::vec(-1e6f64..1e6, 1..200),
            p1 in 0.0f64..100.0,
            p2 in 0.0f64..100.0,
        ) {
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            let v_lo = percentile(&xs, lo);
            let v_hi = percentile(&xs, hi);
            prop_assert!(v_lo <= v_hi + 1e-9);
            prop_assert!(v_lo >= xs[0] - 1e-9);
            prop_assert!(v_hi <= xs[xs.len() - 1] + 1e-9);
        }

        /// The adaptive tail is never below the median and never above max.
        #[test]
        fn prop_adaptive_tail_in_upper_half(
            xs in proptest::collection::vec(0.0f64..1e6, 5..300),
        ) {
            let mut samples = xs.clone();
            let (_, v) = adaptive_tail(&mut samples).unwrap();
            let mut sorted = xs.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            prop_assert!(v >= percentile(&sorted, 50.0) - 1e-9);
            prop_assert!(v <= sorted[sorted.len() - 1] + 1e-9);
        }
    }
}
