//! Mutable engine-side state of an in-flight request.
//!
//! [`RequestState`] tracks where the request's KV cache lives, its phase and
//! scheduling counters (round-robin quanta, demotion), and accumulates the
//! executed / blocked / preempted wall-time decomposition that Fig. 4 and
//! Fig. 5 report. When the request completes it collapses into a
//! [`pascal_metrics::RequestRecord`].

use pascal_metrics::{MigrationRecord, RequestRecord, StallCurve};
use pascal_sim::{SimDuration, SimTime};
use pascal_workload::{Phase, RequestSpec};

/// Where a request's KV cache currently lives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KvLocation {
    /// No KV anywhere yet (waiting for admission / prefill).
    None,
    /// Resident in GPU HBM — the request can decode.
    Gpu,
    /// Offloaded to CPU memory — must be reloaded before decoding (§II-B).
    Cpu,
    /// In flight over PCIe towards CPU memory (preemption in progress).
    OffloadingToCpu,
    /// In flight over PCIe back to HBM.
    ReloadingToGpu,
    /// In flight over the fabric to another instance (§IV-B migration).
    Migrating,
}

/// Full runtime state of one request inside the serving engine.
///
/// Fields are public because the engine (in `pascal-core`) drives every
/// transition; the struct itself only owns the time-accounting invariants,
/// via [`RequestState::begin_running`] / [`RequestState::end_running`].
#[derive(Clone, Debug, PartialEq)]
pub struct RequestState {
    /// The immutable request description.
    pub spec: RequestSpec,
    /// Current phase (reasoning until the boundary token is produced).
    pub phase: Phase,
    /// Output tokens generated so far (reasoning + answering).
    pub tokens_generated: u32,
    /// Whether the prompt has been prefetched into KV (prefill done or warm).
    pub prefilled: bool,
    /// Where the KV cache lives.
    pub kv_location: KvLocation,
    /// Blocks currently held in the owning instance's GPU pool.
    pub held_gpu_blocks: u64,
    /// Blocks currently held in the owning instance's CPU pool.
    pub held_cpu_blocks: u64,
    /// Completed round-robin quanta (the RR priority key, §II-C).
    pub quanta_used: u32,
    /// Tokens generated inside the current quantum.
    pub tokens_in_quantum: u32,
    /// PASCAL's conditional demotion flag (§IV-C): a reasoning request whose
    /// KV exceeded the threshold is treated as low priority.
    pub demoted: bool,
    /// Owning instance index.
    pub instance: u32,
    /// Generation time of the first output token.
    pub first_token: Option<SimTime>,
    /// Generation time of the phase-boundary (last reasoning) token.
    pub phase_boundary: Option<SimTime>,
    /// The answering tokens' generation times as the QoE's stall curve,
    /// which also answers the token pacer's question (drives `t_i`): see
    /// [`StallCurve::on_pace_until`].
    pub answers: StallCurve,
    /// Accumulated in-iteration time.
    pub executed: SimDuration,
    /// Accumulated wait before first execution.
    pub blocked: SimDuration,
    /// Accumulated wait after first execution.
    pub preempted: SimDuration,
    /// Number of evictions suffered.
    pub num_preemptions: u32,
    /// First running time after the phase transition (Fig. 13(c)).
    pub answer_resume_time: Option<SimTime>,
    /// The phase-boundary migration, if one happened.
    pub migration: Option<MigrationRecord>,
    /// Instances executed on, in visit order.
    pub instances_visited: Vec<u32>,
    /// Whether the request is inside the currently running iteration.
    pub running: bool,
    /// Whether the request has ever run (blocked vs. preempted accounting).
    pub has_run: bool,
    /// Since when the KV cache has been continuously GPU-resident (`None`
    /// while not resident). Waits fully covered by residency are batching
    /// micro-gaps (e.g. another request's prefill iteration), which the
    /// paper's breakdown counts as executed time, not preemption.
    pub resident_since: Option<SimTime>,
    /// Start of the current accounting segment.
    segment_start: SimTime,
}

impl RequestState {
    /// Creates the state for a newly arrived request placed on `instance`.
    #[must_use]
    pub fn new(spec: RequestSpec, instance: u32, target_tpot: SimDuration) -> Self {
        let arrival = spec.arrival;
        let phase = spec.initial_phase();
        RequestState {
            prefilled: false,
            phase,
            tokens_generated: 0,
            kv_location: KvLocation::None,
            held_gpu_blocks: 0,
            held_cpu_blocks: 0,
            quanta_used: 0,
            tokens_in_quantum: 0,
            demoted: false,
            instance,
            first_token: None,
            phase_boundary: None,
            answers: StallCurve::new(target_tpot),
            executed: SimDuration::ZERO,
            blocked: SimDuration::ZERO,
            preempted: SimDuration::ZERO,
            num_preemptions: 0,
            answer_resume_time: None,
            migration: None,
            instances_visited: vec![instance],
            running: false,
            has_run: false,
            resident_since: None,
            segment_start: arrival,
            spec,
        }
    }

    /// KV tokens present once the request is prefilled: prompt plus
    /// generated output.
    #[must_use]
    pub fn context_tokens(&self) -> u64 {
        u64::from(self.spec.prompt_tokens) + u64::from(self.tokens_generated)
    }

    /// KV tokens the request needs resident to run its *next* iteration:
    /// context plus one token of growth headroom.
    #[must_use]
    pub fn tokens_needed_next(&self) -> u64 {
        self.context_tokens() + 1
    }

    /// Counts one output token generated at `now` and records what the
    /// metrics read of it: the first-token instant, the phase-boundary
    /// instant, or — for an answering token — its place on the stall curve.
    ///
    /// # Panics
    ///
    /// Panics if an answering token precedes the previous one.
    pub fn record_token(&mut self, now: SimTime) {
        self.tokens_generated += 1;
        self.first_token.get_or_insert(now);
        match self.tokens_generated.cmp(&self.spec.reasoning_tokens) {
            std::cmp::Ordering::Less => {}
            std::cmp::Ordering::Equal => self.phase_boundary = Some(now),
            std::cmp::Ordering::Greater => self.answers.push(now),
        }
    }

    /// Applies `k` decode iterations the request ran back to back inside
    /// one batch, the last ending at `last`, none of which reached an edge
    /// of its lifecycle (first token, phase boundary, first answering
    /// token, quantum end, completion) or stalled its reader: the closed
    /// form of `k` rounds of [`end_running`](RequestState::end_running),
    /// [`record_token`](RequestState::record_token), one quantum token and
    /// [`begin_running`](RequestState::begin_running). The request stays
    /// running, its segment restarted at `last`.
    ///
    /// # Panics
    ///
    /// Panics if the request is not running (release builds too).
    pub fn replay_steady(&mut self, k: u32, last: SimTime) {
        assert!(self.running, "{} replayed while idle", self.spec.id);
        // The same test as `record_token`'s: the next token is an
        // answering one.
        if self.tokens_generated >= self.spec.reasoning_tokens {
            self.answers.extend_on_pace(k, last);
        }
        self.tokens_generated += k;
        self.tokens_in_quantum += k;
        self.executed += last.saturating_since(self.segment_start);
        self.segment_start = last;
    }

    /// Whether every output token has been generated.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.tokens_generated >= self.spec.output_tokens()
    }

    /// Whether the request still needs a prefill pass (cold requests only).
    #[must_use]
    pub fn needs_prefill(&self) -> bool {
        !self.prefilled && !self.spec.warm_start
    }

    /// Closes the current waiting segment and marks the request as running
    /// inside an iteration starting at `now`.
    ///
    /// The closed wait is classified as *blocked* (never ran), *executed*
    /// (ran before and stayed GPU-resident for the whole gap — a batching
    /// micro-gap, per Fig. 4's definition of executed time) or *preempted*
    /// (ran before but lost residency at some point).
    ///
    /// # Panics
    ///
    /// Panics if already running.
    pub fn begin_running(&mut self, now: SimTime) {
        assert!(!self.running, "{} began running twice", self.spec.id);
        let waited = now.saturating_since(self.segment_start);
        if !self.has_run {
            self.blocked += waited;
        } else if self.resident_since.is_some_and(|t| t <= self.segment_start) {
            self.executed += waited;
        } else {
            self.preempted += waited;
        }
        self.running = true;
        self.has_run = true;
        self.segment_start = now;
        if self.phase == Phase::Answering && self.answer_resume_time.is_none() {
            self.answer_resume_time = Some(now);
        }
    }

    /// Closes the running segment at `now` (iteration finished) and starts a
    /// waiting segment.
    ///
    /// # Panics
    ///
    /// Panics if not running.
    pub fn end_running(&mut self, now: SimTime) {
        assert!(self.running, "{} ended running while idle", self.spec.id);
        self.executed += now.saturating_since(self.segment_start);
        self.running = false;
        self.segment_start = now;
    }

    /// Finalizes accounting and produces the immutable record.
    ///
    /// # Panics
    ///
    /// Panics if the request is not finished or still running.
    #[must_use]
    pub fn into_record(self, completion: SimTime) -> RequestRecord {
        assert!(self.is_done(), "{} not finished", self.spec.id);
        assert!(!self.running, "{} still running", self.spec.id);
        let record = RequestRecord {
            spec: self.spec,
            tokens_generated: self.tokens_generated,
            first_token: self
                .first_token
                .expect("a finished request generated tokens"),
            phase_boundary: self.phase_boundary,
            answers: self.answers,
            completion,
            executed: self.executed,
            blocked: self.blocked,
            preempted: self.preempted,
            num_preemptions: self.num_preemptions,
            answer_resume_time: self.answer_resume_time,
            migration: self.migration,
            instances_visited: self.instances_visited,
        };
        record.assert_consistent();
        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pascal_workload::RequestId;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn state() -> RequestState {
        let spec = RequestSpec::new(RequestId(0), secs(1.0), 128, 2, 2);
        RequestState::new(spec, 0, SimDuration::from_millis(100))
    }

    #[test]
    fn accounting_splits_blocked_and_preempted() {
        let mut st = state();
        // Waits 2 s before first run -> blocked.
        st.begin_running(secs(3.0));
        st.end_running(secs(3.5));
        // Waits 1 s mid-flight -> preempted.
        st.begin_running(secs(4.5));
        st.end_running(secs(5.0));
        assert!((st.blocked.as_secs_f64() - 2.0).abs() < 1e-9);
        assert!((st.preempted.as_secs_f64() - 1.0).abs() < 1e-9);
        assert!((st.executed.as_secs_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn answer_resume_records_first_answering_run() {
        let mut st = state();
        st.begin_running(secs(2.0));
        st.end_running(secs(2.5));
        assert_eq!(st.answer_resume_time, None);
        st.phase = Phase::Answering;
        st.begin_running(secs(3.0));
        st.end_running(secs(3.5));
        assert_eq!(st.answer_resume_time, Some(secs(3.0)));
        // Not overwritten by later runs.
        st.begin_running(secs(4.0));
        st.end_running(secs(4.5));
        assert_eq!(st.answer_resume_time, Some(secs(3.0)));
    }

    #[test]
    fn tokens_needed_includes_growth_headroom() {
        let mut st = state();
        assert_eq!(st.tokens_needed_next(), 129);
        st.tokens_generated = 3;
        assert_eq!(st.tokens_needed_next(), 132);
    }

    #[test]
    fn record_roundtrip() {
        let mut st = state();
        st.begin_running(secs(2.0));
        st.prefilled = true;
        for i in 0..4 {
            st.record_token(secs(2.1 + 0.1 * f64::from(i)));
        }
        st.end_running(secs(2.5));
        let record = st.into_record(secs(2.5));
        assert_eq!(record.tokens_generated, 4);
        assert_eq!(record.first_token, secs(2.1));
        assert_eq!(record.phase_boundary, Some(secs(2.2)));
        assert_eq!(record.answers.first(), Some(secs(2.3)));
        assert_eq!(record.last_token_time(), secs(2.4));
        assert!((record.e2e_latency().as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "began running twice")]
    fn double_begin_rejected() {
        let mut st = state();
        st.begin_running(secs(2.0));
        st.begin_running(secs(3.0));
    }

    #[test]
    #[should_panic(expected = "not finished")]
    fn incomplete_record_rejected() {
        let st = state();
        let _ = st.into_record(secs(9.0));
    }

    #[test]
    fn warm_request_starts_in_answering() {
        let spec = RequestSpec::warm(RequestId(5), secs(0.0), 128, 4);
        let st = RequestState::new(spec, 2, SimDuration::from_millis(100));
        assert_eq!(st.phase, Phase::Answering);
        assert!(!st.needs_prefill());
    }
}
