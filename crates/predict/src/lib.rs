//! # pascal-predict — online output-length prediction
//!
//! PASCAL's scheduler, as published, is purely *reactive*: it learns a
//! request's phase when the boundary token appears and demotes oversized
//! reasoning requests only after their generated tokens cross the §IV-C
//! threshold. This crate adds the *predictive* layer: online estimators of
//! how many reasoning/answering tokens a request will generate, learned
//! from completed requests, which the engine and scheduler consume for
//! speculative demotion and predicted-KV-footprint placement.
//!
//! Four predictors behind one trait:
//!
//! * [`Oracle`] — reads the trace's hidden lengths; perfect information,
//!   the upper bound on what prediction can buy;
//! * [`ProfileEma`] — per-dataset running mean plus a tracked upper
//!   quantile, updated from every completion;
//! * [`PairwiseRank`] — a learning-to-rank comparator that only *orders*
//!   requests by predicted remaining work, never estimating absolute
//!   lengths;
//! * [`QuantilePredictor`] — per-dataset P² streaming quantiles: the
//!   median per phase class as the estimate (robust to the heavy tails
//!   that skew the EMA's mean), an upper quantile for demotion.
//!
//! All predictors are deterministic functions of their observation
//! sequence, preserving the engine's byte-identical-replay guarantee.
//!
//! # Examples
//!
//! ```
//! use pascal_predict::{LengthPredictor, PredictorKind};
//! use pascal_sim::SimTime;
//! use pascal_workload::{RequestId, RequestSpec};
//!
//! let mut predictor = PredictorKind::ProfileEma.build();
//! for i in 0..20 {
//!     let done = RequestSpec::new(RequestId(i), SimTime::ZERO, 64, 1200, 300)
//!         .with_dataset("Arena-Hard");
//!     predictor.observe(&done);
//! }
//! let incoming = RequestSpec::new(RequestId(99), SimTime::ZERO, 64, 1, 1)
//!     .with_dataset("Arena-Hard");
//! let est = predictor.estimate(&incoming);
//! assert!((est.reasoning_tokens.unwrap() - 1200.0).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ema;
mod kind;
mod oracle;
mod predictor;
mod quantile;
mod rank;

pub use ema::ProfileEma;
pub use kind::PredictorKind;
pub use oracle::Oracle;
pub use predictor::{EstimateScope, LengthEstimate, LengthPredictor};
pub use quantile::{P2Quantile, QuantilePredictor};
pub use rank::PairwiseRank;
