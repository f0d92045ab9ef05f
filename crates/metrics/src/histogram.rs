//! Fixed-width histograms with density normalization and a terminal
//! renderer — used to regenerate the token-distribution figures
//! (Fig. 8, Fig. 14).

/// A fixed-bin-width histogram over non-negative samples.
///
/// # Examples
///
/// ```
/// use pascal_metrics::Histogram;
///
/// let h = Histogram::from_samples(&[1.0, 2.0, 300.0, 305.0], 100.0);
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.bin_count(0), 2);
/// assert_eq!(h.bin_count(3), 2);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    bin_width: f64,
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    sum_sq: f64,
}

impl Histogram {
    /// Builds a histogram from samples with the given bin width.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is not strictly positive or any sample is
    /// negative/NaN.
    #[must_use]
    pub fn from_samples(samples: &[f64], bin_width: f64) -> Self {
        assert!(
            bin_width.is_finite() && bin_width > 0.0,
            "bin_width must be positive, got {bin_width}"
        );
        let mut h = Histogram {
            bin_width,
            counts: Vec::new(),
            total: 0,
            sum: 0.0,
            sum_sq: 0.0,
        };
        for &s in samples {
            h.add(s);
        }
        h
    }

    /// Adds one sample.
    ///
    /// # Panics
    ///
    /// Panics if `sample` is negative or NaN.
    pub fn add(&mut self, sample: f64) {
        assert!(
            sample.is_finite() && sample >= 0.0,
            "histogram samples must be finite and non-negative, got {sample}"
        );
        let bin = (sample / self.bin_width) as usize;
        if bin >= self.counts.len() {
            self.counts.resize(bin + 1, 0);
        }
        self.counts[bin] += 1;
        self.total += 1;
        self.sum += sample;
        self.sum_sq += sample * sample;
    }

    /// Total number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Number of bins (up to the highest occupied one).
    #[must_use]
    pub fn num_bins(&self) -> usize {
        self.counts.len()
    }

    /// Raw count of bin `i`.
    #[must_use]
    pub fn bin_count(&self, i: usize) -> u64 {
        self.counts.get(i).copied().unwrap_or(0)
    }

    /// Probability density of bin `i` (integrates to 1 over all bins).
    #[must_use]
    pub fn density(&self, i: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.bin_count(i) as f64 / (self.total as f64 * self.bin_width)
    }

    /// Sample mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// The `q`-quantile (`q` clamped to `[0, 1]`), linearly interpolated
    /// inside the containing bin; zero for an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.total as f64;
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cumulative + c;
            if next as f64 >= target {
                let within = ((target - cumulative as f64) / c as f64).clamp(0.0, 1.0);
                return (i as f64 + within) * self.bin_width;
            }
            cumulative = next;
        }
        self.counts.len() as f64 * self.bin_width
    }

    /// Sample standard deviation (population form).
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let n = self.total as f64;
        let mean = self.sum / n;
        (self.sum_sq / n - mean * mean).max(0.0).sqrt()
    }

    /// Renders the histogram as ASCII rows (`lo..hi | bar count`), scaling
    /// the tallest bin to `width` characters. Bins past `max_bins` are
    /// collapsed into a final overflow row.
    #[must_use]
    pub fn render_ascii(&self, width: usize, max_bins: usize) -> String {
        let peak = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        let shown = self.counts.len().min(max_bins);
        for (i, &c) in self.counts.iter().take(shown).enumerate() {
            let bar_len = (c as f64 / peak as f64 * width as f64).round() as usize;
            let lo = i as f64 * self.bin_width;
            let hi = lo + self.bin_width;
            out.push_str(&format!(
                "{:>7.0}-{:<7.0} |{:<width$}| {}\n",
                lo,
                hi,
                "#".repeat(bar_len),
                c,
                width = width
            ));
        }
        if self.counts.len() > shown {
            let rest: u64 = self.counts[shown..].iter().sum();
            out.push_str(&format!("{:>7}+{:<8}| (overflow) {}\n", "", "", rest));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_and_std_match_direct_computation() {
        let samples = [1.0, 2.0, 3.0, 4.0, 10.0];
        let h = Histogram::from_samples(&samples, 1.0);
        assert!((h.mean() - 4.0).abs() < 1e-9);
        let var = samples.iter().map(|x| (x - 4.0) * (x - 4.0)).sum::<f64>() / 5.0;
        assert!((h.std_dev() - var.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::from_samples(&[], 10.0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.density(3), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert!(!h.render_ascii(20, 10).contains('#'));
    }

    #[test]
    fn quantiles_interpolate_within_bins() {
        let samples: Vec<f64> = (0..100).map(f64::from).collect();
        let h = Histogram::from_samples(&samples, 1.0);
        assert!((h.quantile(0.5) - 50.0).abs() <= 1.0, "{}", h.quantile(0.5));
        assert!((h.quantile(0.99) - 99.0).abs() <= 1.0);
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(1.0), 100.0);
        // Out-of-range inputs clamp rather than extrapolate.
        assert_eq!(h.quantile(7.0), h.quantile(1.0));
        // A single-bin histogram interpolates inside that bin.
        let one = Histogram::from_samples(&[5.0, 5.1, 5.2], 10.0);
        let q = one.quantile(0.5);
        assert!((0.0..=10.0).contains(&q), "{q}");
    }

    #[test]
    fn ascii_render_scales_to_peak() {
        let h = Histogram::from_samples(&[0.5, 0.5, 0.5, 1.5], 1.0);
        let s = h.render_ascii(10, 10);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("##########"), "peak bin full width: {s}");
    }

    #[test]
    fn overflow_row_collapses_tail() {
        let h = Histogram::from_samples(&[0.0, 100.0, 200.0, 300.0], 1.0);
        let s = h.render_ascii(10, 2);
        assert!(s.contains("overflow"), "{s}");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_sample_rejected() {
        let _ = Histogram::from_samples(&[-1.0], 1.0);
    }

    proptest! {
        /// Density always integrates to ~1 for non-empty histograms.
        #[test]
        fn prop_density_normalized(
            samples in proptest::collection::vec(0.0f64..1e4, 1..500),
            bin_width in 1.0f64..500.0,
        ) {
            let h = Histogram::from_samples(&samples, bin_width);
            let integral: f64 = (0..h.num_bins()).map(|i| h.density(i) * bin_width).sum();
            prop_assert!((integral - 1.0).abs() < 1e-9);
        }

        /// Counts are conserved.
        #[test]
        fn prop_counts_conserved(samples in proptest::collection::vec(0.0f64..1e4, 0..500)) {
            let h = Histogram::from_samples(&samples, 50.0);
            let total: u64 = (0..h.num_bins()).map(|i| h.bin_count(i)).sum();
            prop_assert_eq!(total, samples.len() as u64);
        }
    }
}
