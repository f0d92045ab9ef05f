//! Request arrival processes.
//!
//! All experiments in the paper use Poisson arrivals (§III-A, Fig. 9
//! caption). [`ArrivalProcess`] also offers deterministic patterns for unit
//! tests and the Fig. 2 walkthrough.

use pascal_sim::{SimDuration, SimRng, SimTime};

/// How request submission times are generated.
///
/// # Examples
///
/// ```
/// use pascal_sim::SimRng;
/// use pascal_workload::ArrivalProcess;
///
/// let mut rng = SimRng::seed_from(9);
/// let times = ArrivalProcess::poisson(2.0).generate(1000, &mut rng);
/// assert_eq!(times.len(), 1000);
/// // Mean gap of a 2 req/s Poisson process is 0.5 s.
/// let span = (times[999] - times[0]).as_secs_f64();
/// assert!((span / 999.0 - 0.5).abs() < 0.05);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at `rate` requests/second.
    Poisson {
        /// Average arrival rate in requests per second.
        rate: f64,
    },
    /// One request every `interval`, starting at `interval`.
    Periodic {
        /// Fixed gap between consecutive arrivals.
        interval: SimDuration,
    },
    /// Every request arrives at the same instant (closed-loop stress test).
    Simultaneous {
        /// The shared arrival instant.
        at: SimTime,
    },
    /// Markov-modulated bursts: alternating ON phases (Poisson arrivals at
    /// `burst_rate`) and OFF gaps (no arrivals), with exponentially
    /// distributed phase lengths. Models the flash crowds that stress
    /// admission control harder than a smooth Poisson stream of the same
    /// average rate.
    Bursty {
        /// Arrival rate inside a burst, requests/second.
        burst_rate: f64,
        /// Mean ON-phase duration in seconds.
        mean_burst_s: f64,
        /// Mean OFF-gap duration in seconds.
        mean_gap_s: f64,
    },
    /// Sinusoidally modulated Poisson arrivals: the instantaneous rate is
    /// `mean_rate * (1 + amplitude * sin(2π t / period_s))`, generated by
    /// thinning a Poisson stream at the peak rate. Models the diurnal load
    /// swings an autoscaler has to track; over whole periods the long-run
    /// average stays `mean_rate`.
    Diurnal {
        /// Long-run average arrival rate in requests per second.
        mean_rate: f64,
        /// Relative swing of the rate around the mean, in `(0, 1]`.
        amplitude: f64,
        /// Length of one full modulation cycle in seconds.
        period_s: f64,
    },
}

impl ArrivalProcess {
    /// Poisson arrivals at `rate` requests/second.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    #[must_use]
    pub fn poisson(rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "Poisson rate must be positive, got {rate}"
        );
        ArrivalProcess::Poisson { rate }
    }

    /// Bursty arrivals averaging the same load as a Poisson process at
    /// `mean_rate`, with ON/OFF phases of the given mean lengths: during a
    /// burst the instantaneous rate is scaled up so that the long-run
    /// average stays `mean_rate`.
    ///
    /// # Panics
    ///
    /// Panics unless all three parameters are strictly positive and finite.
    #[must_use]
    pub fn bursty(mean_rate: f64, mean_burst_s: f64, mean_gap_s: f64) -> Self {
        assert!(
            mean_rate.is_finite() && mean_rate > 0.0,
            "mean rate must be positive, got {mean_rate}"
        );
        assert!(
            mean_burst_s.is_finite() && mean_burst_s > 0.0,
            "mean burst must be positive, got {mean_burst_s}"
        );
        assert!(
            mean_gap_s.is_finite() && mean_gap_s > 0.0,
            "mean gap must be positive, got {mean_gap_s}"
        );
        let duty_cycle = mean_burst_s / (mean_burst_s + mean_gap_s);
        ArrivalProcess::Bursty {
            burst_rate: mean_rate / duty_cycle,
            mean_burst_s,
            mean_gap_s,
        }
    }

    /// Diurnal arrivals averaging `mean_rate` with a sinusoidal swing of
    /// `amplitude` over a `period_s`-second cycle.
    ///
    /// # Panics
    ///
    /// Panics unless `mean_rate` and `period_s` are strictly positive and
    /// finite and `amplitude` is in `(0, 1]`.
    #[must_use]
    pub fn diurnal(mean_rate: f64, amplitude: f64, period_s: f64) -> Self {
        assert!(
            mean_rate.is_finite() && mean_rate > 0.0,
            "mean rate must be positive, got {mean_rate}"
        );
        assert!(
            amplitude.is_finite() && amplitude > 0.0 && amplitude <= 1.0,
            "amplitude must be in (0, 1], got {amplitude}"
        );
        assert!(
            period_s.is_finite() && period_s > 0.0,
            "period must be positive, got {period_s}"
        );
        ArrivalProcess::Diurnal {
            mean_rate,
            amplitude,
            period_s,
        }
    }

    /// Generates `count` non-decreasing arrival times.
    #[must_use]
    pub fn generate(&self, count: usize, rng: &mut SimRng) -> Vec<SimTime> {
        let mut times = Vec::with_capacity(count);
        self.generate_into(&mut times, count, rng);
        times
    }

    /// Appends `count` non-decreasing arrival times to `times`, which the
    /// caller has reserved room for.
    pub(crate) fn generate_into(&self, times: &mut Vec<SimTime>, count: usize, rng: &mut SimRng) {
        if let ArrivalProcess::Bursty {
            burst_rate,
            mean_burst_s,
            mean_gap_s,
        } = self
        {
            return generate_bursty(times, count, *burst_rate, *mean_burst_s, *mean_gap_s, rng);
        }
        if let ArrivalProcess::Diurnal {
            mean_rate,
            amplitude,
            period_s,
        } = self
        {
            return generate_diurnal(times, count, *mean_rate, *amplitude, *period_s, rng);
        }
        let mut now = SimTime::ZERO;
        for _ in 0..count {
            now = match self {
                ArrivalProcess::Poisson { rate } => {
                    now + SimDuration::from_secs_f64(rng.exponential(*rate))
                }
                ArrivalProcess::Periodic { interval } => now + *interval,
                ArrivalProcess::Simultaneous { at } => *at,
                ArrivalProcess::Bursty { .. } | ArrivalProcess::Diurnal { .. } => {
                    unreachable!("handled above")
                }
            };
            times.push(now);
        }
    }
}

/// ON/OFF burst generator: walk through alternating exponentially long
/// phases, emitting Poisson arrivals only during ON phases.
fn generate_bursty(
    times: &mut Vec<SimTime>,
    count: usize,
    burst_rate: f64,
    mean_burst_s: f64,
    mean_gap_s: f64,
    rng: &mut SimRng,
) {
    let end = times.len() + count;
    let mut now = 0.0f64;
    let mut burst_ends = rng.exponential(1.0 / mean_burst_s);
    while times.len() < end {
        let gap = rng.exponential(burst_rate);
        if now + gap <= burst_ends {
            now += gap;
            times.push(SimTime::from_secs_f64(now));
        } else {
            // The burst ended before the next arrival: skip the OFF gap and
            // open a fresh burst window.
            now = burst_ends + rng.exponential(1.0 / mean_gap_s);
            burst_ends = now + rng.exponential(1.0 / mean_burst_s);
        }
    }
}

/// Sinusoid-thinning generator: draw a homogeneous Poisson stream at the
/// peak rate, keep each candidate with probability `rate(t) / peak`.
fn generate_diurnal(
    times: &mut Vec<SimTime>,
    count: usize,
    mean_rate: f64,
    amplitude: f64,
    period_s: f64,
    rng: &mut SimRng,
) {
    let peak = mean_rate * (1.0 + amplitude);
    let end = times.len() + count;
    let mut now = 0.0f64;
    while times.len() < end {
        now += rng.exponential(peak);
        let rate = mean_rate * (1.0 + amplitude * (std::f64::consts::TAU * now / period_s).sin());
        if rng.uniform_f64() * peak <= rate {
            times.push(SimTime::from_secs_f64(now));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn periodic_is_evenly_spaced() {
        let mut rng = SimRng::seed_from(1);
        let times = ArrivalProcess::Periodic {
            interval: SimDuration::from_secs(2),
        }
        .generate(5, &mut rng);
        let secs: Vec<f64> = times.iter().map(|t| t.as_secs_f64()).collect();
        assert_eq!(secs, vec![2.0, 4.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    fn simultaneous_all_equal() {
        let mut rng = SimRng::seed_from(1);
        let at = SimTime::from_secs_f64(3.0);
        let times = ArrivalProcess::Simultaneous { at }.generate(10, &mut rng);
        assert!(times.iter().all(|t| *t == at));
    }

    #[test]
    fn poisson_mean_gap_matches_rate() {
        let mut rng = SimRng::seed_from(2);
        let rate = 5.0;
        let n = 50_000;
        let times = ArrivalProcess::poisson(rate).generate(n, &mut rng);
        let span = (times[n - 1] - times[0]).as_secs_f64();
        let mean_gap = span / (n as f64 - 1.0);
        assert!(
            (mean_gap - 1.0 / rate).abs() < 0.01,
            "mean gap {mean_gap} != {}",
            1.0 / rate
        );
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn non_positive_rate_rejected() {
        let _ = ArrivalProcess::poisson(0.0);
    }

    #[test]
    fn bursty_long_run_rate_matches_mean() {
        let mut rng = SimRng::seed_from(5);
        let mean_rate = 10.0;
        let n = 50_000;
        let times = ArrivalProcess::bursty(mean_rate, 5.0, 5.0).generate(n, &mut rng);
        let span = (times[n - 1] - times[0]).as_secs_f64();
        let rate = (n as f64 - 1.0) / span;
        assert!(
            (rate - mean_rate).abs() / mean_rate < 0.1,
            "long-run bursty rate {rate} drifted from {mean_rate}"
        );
    }

    #[test]
    fn bursty_is_burstier_than_poisson() {
        // Compare squared-coefficient-of-variation of interarrival gaps:
        // ON/OFF modulation must exceed the Poisson value of ~1.
        let gaps = |proc: ArrivalProcess, seed: u64| -> Vec<f64> {
            let mut rng = SimRng::seed_from(seed);
            let times = proc.generate(20_000, &mut rng);
            times
                .windows(2)
                .map(|w| (w[1] - w[0]).as_secs_f64())
                .collect()
        };
        let scv = |xs: &[f64]| {
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
            var / (mean * mean)
        };
        let poisson_scv = scv(&gaps(ArrivalProcess::poisson(10.0), 6));
        let bursty_scv = scv(&gaps(ArrivalProcess::bursty(10.0, 2.0, 8.0), 6));
        assert!(
            bursty_scv > poisson_scv * 1.5,
            "bursty SCV {bursty_scv:.2} not above Poisson {poisson_scv:.2}"
        );
    }

    #[test]
    #[should_panic(expected = "mean burst must be positive")]
    fn bursty_rejects_bad_parameters() {
        let _ = ArrivalProcess::bursty(1.0, 0.0, 1.0);
    }

    #[test]
    fn diurnal_long_run_rate_matches_mean() {
        let mut rng = SimRng::seed_from(7);
        let mean_rate = 10.0;
        let n = 50_000;
        let times = ArrivalProcess::diurnal(mean_rate, 0.8, 100.0).generate(n, &mut rng);
        let span = (times[n - 1] - times[0]).as_secs_f64();
        let rate = (n as f64 - 1.0) / span;
        assert!(
            (rate - mean_rate).abs() / mean_rate < 0.1,
            "long-run diurnal rate {rate} drifted from {mean_rate}"
        );
    }

    #[test]
    fn diurnal_peaks_and_troughs_differ() {
        // The first quarter-period (rate above mean) must collect visibly
        // more arrivals than the third quarter-period (rate below mean).
        let mut rng = SimRng::seed_from(8);
        let period = 40.0;
        let times = ArrivalProcess::diurnal(50.0, 0.9, period).generate(10_000, &mut rng);
        let in_window = |lo: f64, hi: f64| {
            times
                .iter()
                .filter(|t| {
                    let phase = t.as_secs_f64() % period;
                    phase >= lo && phase < hi
                })
                .count() as f64
        };
        let peak_half = in_window(0.0, period / 2.0);
        let trough_half = in_window(period / 2.0, period);
        assert!(
            peak_half > trough_half * 1.5,
            "peak half {peak_half} not above trough half {trough_half}"
        );
    }

    #[test]
    #[should_panic(expected = "amplitude must be in (0, 1]")]
    fn diurnal_rejects_bad_amplitude() {
        let _ = ArrivalProcess::diurnal(1.0, 1.5, 10.0);
    }

    proptest! {
        /// Arrival sequences are always sorted, whatever the process.
        #[test]
        fn prop_arrivals_sorted(seed in any::<u64>(), rate in 0.1f64..100.0, n in 1usize..500) {
            let mut rng = SimRng::seed_from(seed);
            let times = ArrivalProcess::poisson(rate).generate(n, &mut rng);
            prop_assert!(times.windows(2).all(|w| w[0] <= w[1]));
        }

        /// Bursty sequences are sorted and strictly inside ON windows.
        #[test]
        fn prop_bursty_sorted(seed in any::<u64>(), n in 1usize..300) {
            let mut rng = SimRng::seed_from(seed);
            let times = ArrivalProcess::bursty(5.0, 3.0, 3.0).generate(n, &mut rng);
            prop_assert_eq!(times.len(), n);
            prop_assert!(times.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
