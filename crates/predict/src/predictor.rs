//! The [`LengthPredictor`] interface.
//!
//! A length predictor estimates, *online*, how many reasoning and answering
//! tokens a request will generate, learning from every completed request the
//! engine feeds back through [`LengthPredictor::observe`]. The scheduler
//! consumes predictions in three places:
//!
//! * **speculative demotion** — demote a reasoning request the moment its
//!   *predicted* total reasoning length exceeds the §IV-C threshold, instead
//!   of waiting for its generated tokens to cross it;
//! * **predicted-footprint placement** — Algorithm 1 ranks instances by
//!   current *plus predicted future* KV blocks;
//! * **remaining-service queries** — the migration controller weighs KV
//!   transfer cost against [`LengthPredictor::predicted_remaining_tokens`],
//!   and the admission controller projects aggregate KV demand from it;
//! * **calibration reporting** — predicted-vs-actual error quantiles in
//!   `pascal-metrics`.
//!
//! Not every predictor estimates absolute lengths: a pairwise ranker only
//! orders requests by predicted remaining work. The interface therefore
//! separates absolute estimates ([`LengthEstimate`], which may be unknown)
//! from the always-available ordering key ([`LengthPredictor::work_score`]).

use pascal_workload::RequestSpec;

/// Predicted output lengths of one request, in tokens. Either component may
/// be unknown (rank-only predictors know neither).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LengthEstimate {
    /// Predicted total reasoning tokens (including the boundary token).
    pub reasoning_tokens: Option<f64>,
    /// Predicted answering tokens.
    pub answering_tokens: Option<f64>,
}

impl LengthEstimate {
    /// The fully-unknown estimate.
    pub const UNKNOWN: LengthEstimate = LengthEstimate {
        reasoning_tokens: None,
        answering_tokens: None,
    };

    /// Predicted total output tokens, if both phases are estimated.
    #[must_use]
    pub fn total_tokens(&self) -> Option<f64> {
        match (self.reasoning_tokens, self.answering_tokens) {
            (Some(r), Some(a)) => Some(r + a),
            _ => None,
        }
    }

    /// Whether any component is known.
    #[must_use]
    pub fn is_known(&self) -> bool {
        self.reasoning_tokens.is_some() || self.answering_tokens.is_some()
    }
}

/// What a predictor's absolute estimate for a request depends on besides
/// its learned state. A consumer that holds estimates for many in-flight
/// requests uses it to re-resolve them after a learning update once per
/// dataset instead of once per request — or not at all.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EstimateScope {
    /// `estimate(req)` depends on `req` only through its dataset tag
    /// ([`RequestSpec::dataset_key`]): every request of one dataset gets the
    /// same estimate, which may move after
    /// [`LengthPredictor::observe`] or
    /// [`LengthPredictor::observe_threshold_crossing`].
    Dataset,
    /// `estimate(req)` depends on `req` alone and never on learned state:
    /// it is fixed for the request's whole lifetime.
    Request,
}

/// An online reasoning/answering length predictor.
///
/// Implementations must be deterministic: the same sequence of `observe`
/// calls must produce identical internal state (and therefore identical
/// predictions) on every run — the engine's byte-identical-replay guarantee
/// extends through the predictor.
pub trait LengthPredictor: std::fmt::Debug {
    /// Display name, used in policy names ("PASCAL(Predictive-Oracle)").
    fn name(&self) -> &'static str;

    /// Absolute length estimate for `req` at its current state of knowledge.
    /// Must not peek at the hidden actual lengths (Oracle excepted — that is
    /// its entire purpose).
    fn estimate(&self, req: &RequestSpec) -> LengthEstimate;

    /// What [`LengthPredictor::estimate`] depends on besides learned state
    /// (see [`EstimateScope`]).
    fn estimate_scope(&self) -> EstimateScope;

    /// Unitless predicted-work score usable *only* for ordering requests
    /// (larger = more predicted remaining work). Every predictor can rank,
    /// even ones that cannot produce absolute estimates.
    fn work_score(&self, req: &RequestSpec) -> f64;

    /// Whether the predictor believes `req`'s total reasoning length will
    /// exceed `threshold_tokens` — the speculative-demotion question. The
    /// default answers from the absolute estimate; rank-only predictors
    /// override it with a quantile-matching rule over observed completions.
    fn predicts_oversized(&self, req: &RequestSpec, threshold_tokens: u32) -> bool {
        self.estimate(req)
            .reasoning_tokens
            .is_some_and(|r| r > f64::from(threshold_tokens))
    }

    /// Predicted output tokens an in-flight request still has to generate,
    /// given that it has produced `generated` tokens so far — the
    /// remaining-service query the migration and admission controllers ask.
    /// `None` when the predictor cannot produce an absolute estimate
    /// (rank-only predictors). Never negative: a request that outlived its
    /// prediction reports zero remaining work.
    fn predicted_remaining_tokens(&self, req: &RequestSpec, generated: u32) -> Option<f64> {
        self.estimate(req)
            .total_tokens()
            .map(|total| (total - f64::from(generated)).max(0.0))
    }

    /// Feeds back a completed request (its spec carries the actual lengths).
    /// Called by the engine exactly once per completion, in completion
    /// order.
    fn observe(&mut self, completed: &RequestSpec);

    /// Early feedback: `req` has just generated its `threshold_tokens`-th
    /// reasoning token and is still running — proof it is oversized, long
    /// before it completes. Under saturation, completion feedback is
    /// survivorship-biased (short requests finish first; the oversized tail
    /// completes last, often after every arrival has already been
    /// scheduled), so label-hungry predictors must learn from crossings.
    /// Default: ignored.
    fn observe_threshold_crossing(&mut self, _req: &RequestSpec, _threshold_tokens: u32) {}
}
