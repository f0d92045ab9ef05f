//! Inference requests and their two-phase structure.
//!
//! A reasoning-LLM request (Fig. 1(b)) consists of a prompt, a *reasoning*
//! phase that decodes hidden chain-of-thought tokens (terminated by the
//! `</think>` boundary token) and an *answering* phase that decodes the
//! user-visible tokens. The paper folds the prefill stage into the reasoning
//! phase (§II-D), and so does this crate.

use pascal_sim::SimTime;

/// Unique identifier of a request within one simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// The two decoding phases of a reasoning-based LLM request.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Phase {
    /// Prefill plus hidden chain-of-thought decoding; latency here is TTFT.
    Reasoning,
    /// User-visible token decoding; throughput here is TPOT/QoE.
    Answering,
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Phase::Reasoning => f.write_str("reasoning"),
            Phase::Answering => f.write_str("answering"),
        }
    }
}

/// Immutable description of one inference request in a trace.
///
/// Token-count conventions:
///
/// * `prompt_tokens` are processed by the prefill pass. The prefill pass
///   itself emits the first output token (vLLM semantics).
/// * `reasoning_tokens` counts all hidden tokens **including** the boundary
///   token (`</think>`); the request is in [`Phase::Reasoning`] until the
///   last of them is produced.
/// * `answering_tokens` counts user-visible tokens. A value of zero models
///   characterization workloads that stop at the phase boundary (Fig. 4).
///
/// # Examples
///
/// ```
/// use pascal_sim::SimTime;
/// use pascal_workload::{RequestId, RequestSpec};
///
/// let req = RequestSpec::new(RequestId(0), SimTime::ZERO, 128, 512, 256);
/// assert_eq!(req.output_tokens(), 768);
/// assert_eq!(req.decode_steps(), 767); // prefill emits the first token
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestSpec {
    /// Trace-unique id.
    pub id: RequestId,
    /// Submission time.
    pub arrival: SimTime,
    /// Prompt length in tokens.
    pub prompt_tokens: u32,
    /// Hidden reasoning tokens, including the phase-boundary token.
    pub reasoning_tokens: u32,
    /// User-visible answering tokens.
    pub answering_tokens: u32,
    /// When `true`, the KV cache of the prompt already exists (no prefill
    /// compute) and the request starts directly in [`Phase::Answering`] —
    /// the setup of the paper's answering-phase characterization (Fig. 5).
    pub warm_start: bool,
    /// Name of the dataset profile the request was drawn from, when known.
    /// Length predictors use it as the conditioning key for per-dataset
    /// statistics; it is metadata only and never influences the engine.
    pub dataset: Option<std::sync::Arc<str>>,
    /// Geographic region the request originated from. Single-region
    /// deployments leave it at `0`; a federated deployment's region router
    /// reads it to prefer serving near the user. Indices beyond the
    /// deployment's region count are clamped by the engine.
    pub origin_region: u32,
}

impl RequestSpec {
    /// Creates a cold request that goes through prefill and both phases.
    ///
    /// # Panics
    ///
    /// Panics if `prompt_tokens` is zero, or if both decode phases are empty.
    #[must_use]
    pub fn new(
        id: RequestId,
        arrival: SimTime,
        prompt_tokens: u32,
        reasoning_tokens: u32,
        answering_tokens: u32,
    ) -> Self {
        assert!(prompt_tokens > 0, "a request needs a non-empty prompt");
        assert!(
            reasoning_tokens + answering_tokens > 0,
            "a request must generate at least one token"
        );
        RequestSpec {
            id,
            arrival,
            prompt_tokens,
            reasoning_tokens,
            answering_tokens,
            warm_start: false,
            dataset: None,
            origin_region: 0,
        }
    }

    /// Tags the request with the dataset profile it was drawn from.
    #[must_use]
    pub fn with_dataset(mut self, name: &str) -> Self {
        self.dataset = Some(std::sync::Arc::from(name));
        self
    }

    /// Tags the request with the region it originated from.
    #[must_use]
    pub fn with_origin_region(mut self, region: u32) -> Self {
        self.origin_region = region;
        self
    }

    /// The dataset tag, or `"?"` for untagged requests — the conditioning
    /// key length predictors bucket their statistics by.
    #[must_use]
    pub fn dataset_key(&self) -> &str {
        self.dataset.as_deref().unwrap_or("?")
    }

    /// Creates a warm request whose prompt/reasoning KV (`context_tokens`)
    /// is materialized on admission without prefill compute, entering the
    /// answering phase immediately — Fig. 5's setup.
    ///
    /// # Panics
    ///
    /// Panics if `context_tokens` or `answering_tokens` is zero.
    #[must_use]
    pub fn warm(
        id: RequestId,
        arrival: SimTime,
        context_tokens: u32,
        answering_tokens: u32,
    ) -> Self {
        assert!(context_tokens > 0, "warm requests need existing context");
        assert!(answering_tokens > 0, "warm requests must answer");
        RequestSpec {
            id,
            arrival,
            prompt_tokens: context_tokens,
            reasoning_tokens: 0,
            answering_tokens,
            warm_start: true,
            dataset: None,
            origin_region: 0,
        }
    }

    /// Phase the request is in when it enters the system.
    #[must_use]
    pub fn initial_phase(&self) -> Phase {
        if self.reasoning_tokens > 0 {
            Phase::Reasoning
        } else {
            Phase::Answering
        }
    }

    /// Total generated (output) tokens: reasoning plus answering.
    #[must_use]
    pub fn output_tokens(&self) -> u32 {
        self.reasoning_tokens + self.answering_tokens
    }

    /// Number of decode iterations the request needs. Cold requests get
    /// their first output token from the prefill pass; warm requests decode
    /// every answering token.
    #[must_use]
    pub fn decode_steps(&self) -> u32 {
        if self.warm_start {
            self.answering_tokens
        } else {
            self.output_tokens().saturating_sub(1)
        }
    }

    /// Final context length (tokens of KV) when the request completes.
    #[must_use]
    pub fn final_context_tokens(&self) -> u64 {
        u64::from(self.prompt_tokens) + u64::from(self.output_tokens())
    }

    /// Phase of the `n`-th output token (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds [`Self::output_tokens`].
    #[must_use]
    pub fn phase_of_output_token(&self, n: u32) -> Phase {
        assert!(
            n >= 1 && n <= self.output_tokens(),
            "token index {n} out of 1..={}",
            self.output_tokens()
        );
        if n <= self.reasoning_tokens {
            Phase::Reasoning
        } else {
            Phase::Answering
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(reason: u32, answer: u32) -> RequestSpec {
        RequestSpec::new(RequestId(1), SimTime::ZERO, 128, reason, answer)
    }

    #[test]
    fn cold_request_counts() {
        let r = spec(512, 256);
        assert_eq!(r.output_tokens(), 768);
        assert_eq!(r.decode_steps(), 767);
        assert_eq!(r.final_context_tokens(), 128 + 768);
        assert_eq!(r.initial_phase(), Phase::Reasoning);
    }

    #[test]
    fn warm_request_counts() {
        let r = RequestSpec::warm(RequestId(2), SimTime::ZERO, 128, 100);
        assert_eq!(r.decode_steps(), 100);
        assert_eq!(r.initial_phase(), Phase::Answering);
        assert_eq!(r.final_context_tokens(), 228);
    }

    #[test]
    fn reasoning_only_request_allowed() {
        let r = spec(128, 0);
        assert_eq!(r.output_tokens(), 128);
        assert_eq!(r.decode_steps(), 127);
    }

    #[test]
    fn phase_boundary_is_last_reasoning_token() {
        let r = spec(3, 2);
        assert_eq!(r.phase_of_output_token(3), Phase::Reasoning);
        assert_eq!(r.phase_of_output_token(4), Phase::Answering);
    }

    #[test]
    #[should_panic(expected = "at least one token")]
    fn empty_request_rejected() {
        let _ = spec(0, 0);
    }

    #[test]
    #[should_panic(expected = "out of 1..=")]
    fn token_index_validated() {
        let _ = spec(2, 2).phase_of_output_token(5);
    }

    #[test]
    fn origin_region_defaults_to_zero_and_tags() {
        let r = spec(10, 10);
        assert_eq!(r.origin_region, 0);
        assert_eq!(r.with_origin_region(3).origin_region, 3);
        let warm = RequestSpec::warm(RequestId(9), SimTime::ZERO, 64, 8);
        assert_eq!(warm.origin_region, 0);
    }

    #[test]
    fn display_impls_nonempty() {
        assert_eq!(RequestId(7).to_string(), "req#7");
        assert_eq!(Phase::Reasoning.to_string(), "reasoning");
        assert_eq!(Phase::Answering.to_string(), "answering");
    }
}
