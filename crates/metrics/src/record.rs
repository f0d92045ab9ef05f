//! Per-request measurement records.
//!
//! The serving engine emits one [`RequestRecord`] per completed request,
//! holding every timestamp the paper's metrics need: the first-token and
//! phase-boundary instants, the answering stream as a [`StallCurve`], the
//! wait-time decomposition (executed / blocked /
//! preempted, as in Fig. 4/5), migration details (§V-C) and the
//! post-transition scheduling gap ("blocking latency", Fig. 13(c)).

use pascal_sim::{SimDuration, SimTime};
use pascal_workload::RequestSpec;

use crate::qoe::StallCurve;

/// One KV-cache migration performed at a phase boundary (§IV-B).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MigrationRecord {
    /// Source instance index.
    pub from_instance: u32,
    /// Destination instance index.
    pub to_instance: u32,
    /// When the transfer entered the fabric queue.
    pub started: SimTime,
    /// When the KV cache finished landing on the destination.
    pub finished: SimTime,
    /// Bytes moved.
    pub bytes: u64,
    /// Gap between the KV landing on the destination and the request's next
    /// execution there — the stall the adaptive/predictive controllers try
    /// to minimize. `None` if the request never ran again.
    pub stall: Option<SimDuration>,
    /// Output tokens the migration controller *predicted* the request still
    /// had to generate at decision time (`None` without a length predictor,
    /// or when it could not produce an absolute estimate).
    pub predicted_remaining_tokens: Option<f64>,
    /// Output tokens the request actually still had to generate at decision
    /// time — paired with the prediction, this measures the calibration of
    /// the migration cost/benefit model.
    pub actual_remaining_tokens: u32,
}

impl MigrationRecord {
    /// End-to-end transfer latency including fabric queueing.
    #[must_use]
    pub fn latency(&self) -> SimDuration {
        self.finished.saturating_since(self.started)
    }

    /// Absolute error of the remaining-service prediction at decision time,
    /// in tokens. `None` when no prediction was recorded.
    #[must_use]
    pub fn remaining_tokens_error(&self) -> Option<f64> {
        self.predicted_remaining_tokens
            .map(|p| (p - f64::from(self.actual_remaining_tokens)).abs())
    }
}

/// Complete measurement record of one served request.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestRecord {
    /// The request as specified in the trace.
    pub spec: RequestSpec,
    /// Output tokens the engine generated (reasoning + answering).
    pub tokens_generated: u32,
    /// Generation time of the first output token.
    pub first_token: SimTime,
    /// Generation time of the phase-boundary token, the last reasoning
    /// token; `None` for requests without reasoning tokens (warm ones
    /// included).
    pub phase_boundary: Option<SimTime>,
    /// Generation times of the answering tokens, kept as the stall curve
    /// the QoE reads (at the engine's target TPOT).
    pub answers: StallCurve,
    /// When the request finished (last token generated, KV freed).
    pub completion: SimTime,
    /// Time spent inside running iterations (prefill or decode).
    pub executed: SimDuration,
    /// Wait time before the request ever ran (admission queueing, §II-B).
    pub blocked: SimDuration,
    /// Wait time after first execution while suspended (offload, reload,
    /// migration stalls, iteration exclusion).
    pub preempted: SimDuration,
    /// Number of preemption events (evictions from GPU memory).
    pub num_preemptions: u32,
    /// First time the request ran inside a batch *after* its phase
    /// transition; `None` if it never transitioned or never resumed.
    pub answer_resume_time: Option<SimTime>,
    /// Migration performed at the phase boundary, if any.
    pub migration: Option<MigrationRecord>,
    /// Instances the request executed on, in visit order.
    pub instances_visited: Vec<u32>,
}

impl RequestRecord {
    /// Validates internal consistency: token counts, and arrival ≤ first
    /// token ≤ phase boundary ≤ first answer ≤ last token ≤ completion
    /// (the answer stream orders itself as it is recorded).
    ///
    /// # Panics
    ///
    /// Panics if the record is malformed; called on every completion, in
    /// release builds too, and by the integration tests.
    pub fn assert_consistent(&self) {
        let id = self.spec.id;
        assert_eq!(
            self.tokens_generated,
            self.spec.output_tokens(),
            "{id}: token count mismatch"
        );
        assert_eq!(
            self.answers.len(),
            self.spec.answering_tokens,
            "{id}: answering token count mismatch"
        );
        assert_eq!(
            self.phase_boundary.is_some(),
            self.spec.reasoning_tokens > 0,
            "{id}: phase boundary mismatch"
        );
        assert!(
            self.first_token >= self.spec.arrival,
            "{id}: token generated before arrival"
        );
        assert!(
            [
                Some(self.first_token),
                self.phase_boundary,
                self.answers.first()
            ]
            .into_iter()
            .flatten()
            .is_sorted(),
            "{id}: token times must be non-decreasing"
        );
        assert!(
            self.last_token_time() <= self.completion,
            "{id}: completion precedes last token"
        );
    }

    /// Generation time of the last output token: the last answering token,
    /// or the phase-boundary token of a request without answers.
    #[must_use]
    pub fn last_token_time(&self) -> SimTime {
        self.answers
            .last()
            .or(self.phase_boundary)
            .unwrap_or(self.first_token)
    }

    /// When the request left the reasoning phase: the generation time of the
    /// boundary token for cold requests, or arrival for warm ones. `None`
    /// while malformed (no boundary token recorded).
    #[must_use]
    pub fn phase_transition_time(&self) -> Option<SimTime> {
        if self.spec.warm_start || self.spec.reasoning_tokens == 0 {
            return Some(self.spec.arrival);
        }
        self.phase_boundary
    }

    /// Generation time of the first user-visible (answering) token.
    #[must_use]
    pub fn first_answer_time(&self) -> Option<SimTime> {
        self.answers.first()
    }

    /// Time-To-First-Token as the paper defines it for reasoning LLMs
    /// (Fig. 1(b)): submission → first *answering* token.
    #[must_use]
    pub fn ttft(&self) -> Option<SimDuration> {
        self.first_answer_time()
            .map(|t| t.saturating_since(self.spec.arrival))
    }

    /// Reasoning-phase latency: submission → boundary token (includes
    /// prefill, queueing and any preemption — Fig. 4's quantity).
    #[must_use]
    pub fn reasoning_latency(&self) -> Option<SimDuration> {
        if self.spec.warm_start || self.spec.reasoning_tokens == 0 {
            return None;
        }
        self.phase_transition_time()
            .map(|t| t.saturating_since(self.spec.arrival))
    }

    /// Answering-phase latency: phase transition → completion (Fig. 5's
    /// quantity).
    #[must_use]
    pub fn answering_latency(&self) -> Option<SimDuration> {
        if self.spec.answering_tokens == 0 {
            return None;
        }
        self.phase_transition_time()
            .map(|t| self.completion.saturating_since(t))
    }

    /// Time-To-First-Answering-Token: phase transition → first answering
    /// token (§III, Fig. 5 caption).
    #[must_use]
    pub fn ttfat(&self) -> Option<SimDuration> {
        match (self.phase_transition_time(), self.first_answer_time()) {
            (Some(t0), Some(t1)) => Some(t1.saturating_since(t0)),
            _ => None,
        }
    }

    /// Blocking latency (Fig. 13(c)): phase transition → first time the
    /// request was scheduled again.
    #[must_use]
    pub fn blocking_latency(&self) -> Option<SimDuration> {
        match (self.phase_transition_time(), self.answer_resume_time) {
            (Some(t0), Some(t1)) => Some(t1.saturating_since(t0)),
            _ => None,
        }
    }

    /// End-to-end latency: submission → completion.
    #[must_use]
    pub fn e2e_latency(&self) -> SimDuration {
        self.completion.saturating_since(self.spec.arrival)
    }

    /// Total time the record accounts for (executed + blocked + preempted);
    /// should equal end-to-end latency up to the engine's bookkeeping
    /// granularity.
    #[must_use]
    pub fn accounted_time(&self) -> SimDuration {
        self.executed + self.blocked + self.preempted
    }
}

#[cfg(test)]
impl RequestRecord {
    /// A fixture record whose output tokens were generated at
    /// `times` (reasoning tokens first), read at a 100 ms TPOT and
    /// completing with its last token; no waits, migration or preemption.
    pub(crate) fn fixture(spec: RequestSpec, times: &[SimTime]) -> Self {
        let reasoning = spec.reasoning_tokens as usize;
        let answers = StallCurve::from_stream(
            times.get(reasoning..).unwrap_or_default(),
            SimDuration::from_millis(100),
        );
        RequestRecord {
            tokens_generated: times.len() as u32,
            first_token: times[0],
            phase_boundary: reasoning.checked_sub(1).map(|b| times[b]),
            answers,
            completion: *times.last().expect("a fixture needs tokens"),
            executed: SimDuration::ZERO,
            blocked: SimDuration::ZERO,
            preempted: SimDuration::ZERO,
            num_preemptions: 0,
            answer_resume_time: None,
            migration: None,
            instances_visited: vec![0],
            spec,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pascal_workload::RequestId;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    /// A hand-built record: 128 prompt, 3 reasoning, 2 answering tokens.
    fn sample() -> RequestRecord {
        let spec = RequestSpec::new(RequestId(0), secs(1.0), 128, 3, 2);
        let times = [secs(2.0), secs(2.1), secs(2.2), secs(3.0), secs(3.1)];
        RequestRecord {
            executed: SimDuration::from_secs_f64(1.0),
            blocked: SimDuration::from_secs_f64(0.8),
            preempted: SimDuration::from_secs_f64(0.3),
            num_preemptions: 1,
            answer_resume_time: Some(secs(2.9)),
            ..RequestRecord::fixture(spec, &times)
        }
    }

    #[test]
    fn derived_latencies() {
        let r = sample();
        r.assert_consistent();
        assert_eq!(r.phase_transition_time(), Some(secs(2.2)));
        assert_eq!(r.first_answer_time(), Some(secs(3.0)));
        assert_eq!(r.ttft().unwrap().as_secs_f64(), 2.0);
        assert!((r.reasoning_latency().unwrap().as_secs_f64() - 1.2).abs() < 1e-9);
        assert!((r.answering_latency().unwrap().as_secs_f64() - 0.9).abs() < 1e-9);
        assert!((r.ttfat().unwrap().as_secs_f64() - 0.8).abs() < 1e-9);
        assert!((r.blocking_latency().unwrap().as_secs_f64() - 0.7).abs() < 1e-9);
        assert!((r.e2e_latency().as_secs_f64() - 2.1).abs() < 1e-9);
    }

    #[test]
    fn reasoning_only_request_has_no_answer_metrics() {
        let spec = RequestSpec::new(RequestId(1), secs(0.0), 128, 2, 0);
        let r = RequestRecord {
            executed: SimDuration::from_secs_f64(2.0),
            ..RequestRecord::fixture(spec, &[secs(1.0), secs(2.0)])
        };
        r.assert_consistent();
        assert_eq!(r.ttft(), None);
        assert_eq!(r.answering_latency(), None);
        assert_eq!(r.reasoning_latency().unwrap().as_secs_f64(), 2.0);
    }

    #[test]
    fn warm_request_transitions_at_arrival() {
        let spec = RequestSpec::warm(RequestId(2), secs(5.0), 128, 2);
        let r = RequestRecord {
            executed: SimDuration::from_secs_f64(0.2),
            blocked: SimDuration::from_secs_f64(0.9),
            answer_resume_time: Some(secs(5.9)),
            instances_visited: vec![3],
            ..RequestRecord::fixture(spec, &[secs(6.0), secs(6.1)])
        };
        r.assert_consistent();
        assert_eq!(r.phase_transition_time(), Some(secs(5.0)));
        assert_eq!(r.ttfat().unwrap().as_secs_f64(), 1.0);
        assert_eq!(r.ttft().unwrap().as_secs_f64(), 1.0);
    }

    #[test]
    fn migration_latency() {
        let m = MigrationRecord {
            from_instance: 0,
            to_instance: 2,
            started: secs(1.0),
            finished: secs(1.25),
            bytes: 512 << 20,
            stall: Some(SimDuration::from_secs_f64(0.05)),
            predicted_remaining_tokens: Some(110.0),
            actual_remaining_tokens: 100,
        };
        assert!((m.latency().as_secs_f64() - 0.25).abs() < 1e-9);
        assert!((m.remaining_tokens_error().unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn remaining_error_absent_without_prediction() {
        let m = MigrationRecord {
            from_instance: 0,
            to_instance: 1,
            started: secs(1.0),
            finished: secs(1.1),
            bytes: 1,
            stall: None,
            predicted_remaining_tokens: None,
            actual_remaining_tokens: 42,
        };
        assert_eq!(m.remaining_tokens_error(), None);
    }

    #[test]
    #[should_panic(expected = "token count mismatch")]
    fn consistency_checks_token_count() {
        let mut r = sample();
        r.tokens_generated -= 1;
        r.assert_consistent();
    }

    #[test]
    #[should_panic(expected = "token times must be non-decreasing")]
    fn consistency_checks_boundary_precedes_answers() {
        let mut r = sample();
        r.phase_boundary = Some(secs(3.05));
        r.assert_consistent();
    }

    #[test]
    fn accounted_time_sums_components() {
        let r = sample();
        assert!((r.accounted_time().as_secs_f64() - 2.1).abs() < 1e-9);
    }
}
