//! Prediction-calibration reporting: how wrong was the length predictor?
//!
//! The engine logs one [`PredictionSample`] per request when a predictor is
//! active — the estimate the scheduler acted on at *arrival* next to the
//! actual lengths known at completion. [`CalibrationReport`] condenses the
//! samples into coverage plus absolute/relative error quantiles, the
//! standard way length-prediction papers present estimator quality.

use pascal_workload::RequestId;

use crate::tail::percentile;

/// One predicted-vs-actual pair, captured when a request arrived.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PredictionSample {
    /// The request the prediction was made for.
    pub id: RequestId,
    /// Predicted total reasoning tokens at arrival (`None` when the
    /// predictor could not estimate — cold start or rank-only predictors).
    pub predicted_reasoning_tokens: Option<f64>,
    /// Actual reasoning tokens the request generated.
    pub actual_reasoning_tokens: u32,
    /// Predicted total output tokens at arrival, when available.
    pub predicted_total_tokens: Option<f64>,
    /// Actual total output tokens.
    pub actual_total_tokens: u32,
}

impl PredictionSample {
    /// Absolute reasoning-length error in tokens, if a prediction existed.
    #[must_use]
    pub fn abs_error(&self) -> Option<f64> {
        self.predicted_reasoning_tokens
            .map(|p| (p - f64::from(self.actual_reasoning_tokens)).abs())
    }

    /// Relative reasoning-length error (absolute error over actual).
    #[must_use]
    pub fn rel_error(&self) -> Option<f64> {
        self.abs_error()
            .map(|e| e / f64::from(self.actual_reasoning_tokens.max(1)))
    }
}

/// Error quantiles of a predictor over one run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CalibrationReport {
    /// Total samples (requests served under the predictor).
    pub samples: usize,
    /// Samples for which the predictor produced an absolute estimate.
    pub covered: usize,
    /// Mean absolute reasoning-length error over covered samples, tokens.
    pub mean_abs_error: f64,
    /// p50 / p90 / p99 of the absolute reasoning-length error, tokens.
    pub abs_error_p50: f64,
    /// See [`Self::abs_error_p50`].
    pub abs_error_p90: f64,
    /// See [`Self::abs_error_p50`].
    pub abs_error_p99: f64,
    /// p50 / p90 / p99 of the relative reasoning-length error.
    pub rel_error_p50: f64,
    /// See [`Self::rel_error_p50`].
    pub rel_error_p90: f64,
    /// See [`Self::rel_error_p50`].
    pub rel_error_p99: f64,
}

impl CalibrationReport {
    /// Builds the report; `None` when no sample carries an absolute
    /// estimate (rank-only predictors, or no predictor at all).
    #[must_use]
    pub fn from_samples(samples: &[PredictionSample]) -> Option<Self> {
        let mut abs: Vec<f64> = samples
            .iter()
            .filter_map(PredictionSample::abs_error)
            .collect();
        if abs.is_empty() {
            return None;
        }
        let mut rel: Vec<f64> = samples
            .iter()
            .filter_map(PredictionSample::rel_error)
            .collect();
        abs.sort_by(f64::total_cmp);
        rel.sort_by(f64::total_cmp);
        Some(CalibrationReport {
            samples: samples.len(),
            covered: abs.len(),
            mean_abs_error: abs.iter().sum::<f64>() / abs.len() as f64,
            abs_error_p50: percentile(&abs, 50.0),
            abs_error_p90: percentile(&abs, 90.0),
            abs_error_p99: percentile(&abs, 99.0),
            rel_error_p50: percentile(&rel, 50.0),
            rel_error_p90: percentile(&rel, 90.0),
            rel_error_p99: percentile(&rel, 99.0),
        })
    }

    /// Fraction of samples the predictor covered with absolute estimates.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.covered as f64 / self.samples as f64
        }
    }
}

impl std::fmt::Display for CalibrationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "coverage {:.0}% ({}/{}), |err| mean {:.0} p50 {:.0} p90 {:.0} p99 {:.0} tok, \
             rel err p50 {:.2} p90 {:.2} p99 {:.2}",
            100.0 * self.coverage(),
            self.covered,
            self.samples,
            self.mean_abs_error,
            self.abs_error_p50,
            self.abs_error_p90,
            self.abs_error_p99,
            self.rel_error_p50,
            self.rel_error_p90,
            self.rel_error_p99,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(id: u64, predicted: Option<f64>, actual: u32) -> PredictionSample {
        PredictionSample {
            id: RequestId(id),
            predicted_reasoning_tokens: predicted,
            actual_reasoning_tokens: actual,
            predicted_total_tokens: predicted,
            actual_total_tokens: actual,
        }
    }

    #[test]
    fn perfect_predictions_have_zero_error() {
        let samples: Vec<PredictionSample> = (0..50)
            .map(|i| sample(i, Some(f64::from(i as u32 * 10 + 1)), i as u32 * 10 + 1))
            .collect();
        let report = CalibrationReport::from_samples(&samples).expect("covered");
        assert_eq!(report.covered, 50);
        assert_eq!(report.mean_abs_error, 0.0);
        assert_eq!(report.abs_error_p99, 0.0);
        assert_eq!(report.rel_error_p99, 0.0);
        assert!((report.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uncovered_samples_are_counted_but_not_scored() {
        let samples = vec![
            sample(0, Some(110.0), 100),
            sample(1, None, 500),
            sample(2, Some(90.0), 100),
        ];
        let report = CalibrationReport::from_samples(&samples).expect("covered");
        assert_eq!(report.samples, 3);
        assert_eq!(report.covered, 2);
        assert!((report.mean_abs_error - 10.0).abs() < 1e-12);
        assert!((report.rel_error_p50 - 0.1).abs() < 1e-12);
    }

    #[test]
    fn all_unknown_yields_none() {
        let samples = vec![sample(0, None, 10), sample(1, None, 20)];
        assert!(CalibrationReport::from_samples(&samples).is_none());
        assert!(CalibrationReport::from_samples(&[]).is_none());
    }

    #[test]
    fn display_is_reasonable() {
        let samples = vec![sample(0, Some(120.0), 100)];
        let report = CalibrationReport::from_samples(&samples).expect("covered");
        let s = report.to_string();
        assert!(s.contains("coverage 100%"), "{s}");
        assert!(s.contains("p99 20"), "{s}");
    }
}
