//! # pascal-metrics — user-experience metrics for reasoning-LLM serving
//!
//! Implements every metric the paper reports:
//!
//! * [`RequestRecord`] — per-request timestamps and wait-time decomposition
//!   emitted by the serving engine;
//! * TTFT / TTFAT / reasoning & answering latency / blocking latency as
//!   methods on the record (Fig. 1(b), Fig. 13(c));
//! * [`qoe_of_stream`] / [`answering_qoe`] — the Andes-style
//!   Quality-of-Experience score (Fig. 3), in both the characterization
//!   (TTFAT-target) and evaluation (TPOT-only) variants, computed exactly
//!   on a [`StallCurve`] that keeps only the tokens the reader waited for;
//! * [`slo_violation_rate`] (QoE < 0.95, Fig. 11),
//!   [`throughput_tokens_per_s`] (Fig. 12), [`LatencySummary`]
//!   (Fig. 15(c)) and [`PhaseBreakdown`] (Fig. 4 / Fig. 5);
//! * [`percentile`] / [`tail_by_token_bins`] — the adaptive tail-TTFT
//!   binning of Fig. 10;
//! * [`Histogram`] — density histograms for the token-distribution figures
//!   (Fig. 8, Fig. 14);
//! * [`PredictionSample`] / [`CalibrationReport`] — predicted-vs-actual
//!   length-prediction error quantiles for the `pascal-predict` subsystem;
//! * [`MigrationOutcomes`] / [`AdmissionCounters`] / [`AdmissionRecord`] —
//!   per-run decision tallies of the engine's migration and admission
//!   controllers;
//! * [`SweepCellMetrics`] — the per-cell aggregation row of the scenario
//!   sweep (TTFT quantiles, SLO rate, controller counters) consumed by the
//!   sweep reports and the CI perf-regression gate.
//!
//! # Examples
//!
//! Scoring a paced token stream:
//!
//! ```
//! use pascal_metrics::qoe_of_stream;
//! use pascal_sim::{SimDuration, SimTime};
//!
//! // 20 tokens generated every 100 ms — exactly the target pace.
//! let times: Vec<SimTime> = (0..20)
//!     .map(|i| SimTime::from_secs_f64(0.1 * i as f64))
//!     .collect();
//! let qoe = qoe_of_stream(&times, times[0], SimDuration::from_millis(100));
//! assert!((qoe - 1.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calibration;
mod counters;
mod histogram;
mod qoe;
mod record;
mod summary;
mod sweep;
mod tail;

pub use calibration::{CalibrationReport, PredictionSample};
pub use counters::{
    AdmissionCounters, AdmissionRecord, FleetOutcomes, MigrationOutcomes, RegionStats, ShardStats,
};
pub use histogram::Histogram;
pub use qoe::{answering_qoe, qoe_of_stream, QoeParams, StallCurve};
pub use record::{MigrationRecord, RequestRecord};
pub use summary::{
    breakdown_by, cdf_points, goodput_requests_per_s, slo_violation_rate, throughput_tokens_per_s,
    LatencySummary, PhaseBreakdown, SLO_QOE_THRESHOLD,
};
pub use sweep::SweepCellMetrics;
pub use tail::{adaptive_tail, percentile, tail_by_token_bins, BinTail, TailStat};
