//! Quality-of-Experience, the Andes-style metric of §II-C / Fig. 3.
//!
//! QoE compares the *digested*-token curve (what the user has consumed,
//! reading at the target TPOT pace from the token pacer's buffer) with the
//! *expected* curve (tokens arriving exactly on schedule). The score is the
//! ratio of the areas under the two step curves; 1.0 means the user never
//! starved.
//!
//! Two variants are used in the paper:
//!
//! * **Characterization** (Fig. 5): the expected curve starts a target-TTFAT
//!   after the phase transition, so a slow transition also costs QoE.
//! * **Evaluation** (§V-A "Metric"): reasoning lengths are too variable for
//!   a fixed TTFT target, so QoE is computed from TPOT only, starting at the
//!   first answering token; TTFT is reported separately.

use pascal_sim::{SimDuration, SimTime};

use crate::record::RequestRecord;

/// Parameters of the QoE computation.
///
/// # Examples
///
/// ```
/// use pascal_metrics::QoeParams;
///
/// let eval = QoeParams::paper_eval();
/// assert_eq!(eval.target_tpot.as_millis_f64(), 100.0);
/// assert!(eval.target_ttfat.is_none());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QoeParams {
    /// Target time-per-output-token (the user's reading pace).
    pub target_tpot: SimDuration,
    /// Target time from phase transition to the first answering token. When
    /// set, the expected curve starts at `transition + target_ttfat`
    /// (characterization mode); when `None`, it starts at the first actual
    /// answering token (evaluation mode).
    pub target_ttfat: Option<SimDuration>,
}

impl QoeParams {
    /// §V-A evaluation settings: TPOT 100 ms, no TTFAT term.
    #[must_use]
    pub fn paper_eval() -> Self {
        QoeParams {
            target_tpot: SimDuration::from_millis(100),
            target_ttfat: None,
        }
    }

    /// §III characterization settings (after DistServe \[54\]): TTFAT 0.25 s,
    /// TPOT 100 ms.
    #[must_use]
    pub fn characterization() -> Self {
        QoeParams {
            target_tpot: SimDuration::from_millis(100),
            target_ttfat: Some(SimDuration::from_millis(250)),
        }
    }
}

/// The answering stream of one request, kept as exactly what its QoE reads.
///
/// The reader consumes one token per `tpot` except where its buffer ran
/// dry, so the stream is stored as its first token plus one
/// `(index, generation time)` entry for each token that arrived after the
/// buffer ran dry: `g_i > d_{i-1} + tpot`, with digest times taken against
/// the stream's own pace (`d_0 = g_0`). For any expected start `E`, the
/// digest time of token `i` is then
/// `d_i = max(E + i·tpot, g_b + (i − b)·tpot)`, where `b` is the last entry
/// at or before `i` (the first token being entry 0). That is the per-token
/// recurrence of [`qoe_of_stream`] solved in closed form, exact in integer
/// nanoseconds (saturating at [`SimTime::MAX`] like the recurrence does).
///
/// A stream generated at or ahead of pace holds no entry; one generated
/// slower than `tpot` throughout holds one entry per token.
///
/// # Examples
///
/// ```
/// use pascal_metrics::StallCurve;
/// use pascal_sim::{SimDuration, SimTime};
///
/// let at = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
/// let mut curve = StallCurve::new(SimDuration::from_millis(100));
/// for ms in [0, 50, 100, 2_000, 2_050] {
///     curve.push(at(ms));
/// }
/// // Only the token at 2 s found the reader's buffer empty.
/// assert_eq!(curve.stalls(), &[(3, at(2_000))]);
/// assert!(curve.qoe(SimTime::ZERO) < 1.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct StallCurve {
    tpot: SimDuration,
    len: u32,
    first: SimTime,
    last: SimTime,
    /// Digest time of the last token against the stream's own pace.
    digest: SimTime,
    stalls: Vec<(u32, SimTime)>,
}

impl StallCurve {
    /// An empty stream read at one token per `tpot`.
    ///
    /// # Panics
    ///
    /// Panics if `tpot` is zero.
    #[must_use]
    pub fn new(tpot: SimDuration) -> Self {
        assert!(tpot > SimDuration::ZERO, "tpot must be positive");
        StallCurve {
            tpot,
            len: 0,
            first: SimTime::ZERO,
            last: SimTime::ZERO,
            digest: SimTime::ZERO,
            stalls: Vec::new(),
        }
    }

    /// The curve of a stream generated at `gen_times`.
    ///
    /// # Panics
    ///
    /// Panics if `gen_times` is not sorted or `tpot` is zero.
    #[must_use]
    pub fn from_stream(gen_times: &[SimTime], tpot: SimDuration) -> Self {
        let mut curve = StallCurve::new(tpot);
        for &g in gen_times {
            curve.push(g);
        }
        curve
    }

    /// Appends a token generated at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the previous token (release builds too).
    pub fn push(&mut self, at: SimTime) {
        if self.len == 0 {
            self.first = at;
            self.digest = at;
        } else {
            assert!(at >= self.last, "token times must be non-decreasing");
            let ready = self.digest + self.tpot;
            if at > ready {
                self.stalls.push((self.len, at));
                self.digest = at;
            } else {
                self.digest = ready;
            }
        }
        self.last = at;
        self.len += 1;
    }

    /// Appends `k` tokens, the last generated at `last`, none of which
    /// found the reader's buffer empty: what `k` calls of
    /// [`push`](StallCurve::push) do when each token arrives within `tpot`
    /// of its predecessor's digest time.
    ///
    /// # Panics
    ///
    /// Panics if the stream is empty or `last` precedes its last token
    /// (release builds too).
    pub fn extend_on_pace(&mut self, k: u32, last: SimTime) {
        assert!(
            self.len > 0 && last >= self.last,
            "on-pace tokens extend a started stream in order"
        );
        self.digest += self.tpot * u64::from(k);
        self.last = last;
        self.len += k;
    }

    /// Whether a token generated at `at` would find the reader's buffer
    /// empty, i.e. become a stall entry. Never for the first token.
    #[must_use]
    pub fn would_stall(&self, at: SimTime) -> bool {
        self.len > 0 && at > self.digest + self.tpot
    }

    /// The instant the stream falls behind its reader if no further token
    /// arrives: `first + len × tpot`, the answering stream's token-pacer
    /// deadline. `None` means on pace at every representable instant: the
    /// stream has not started, or the deadline lies past [`SimTime::MAX`].
    #[must_use]
    pub fn on_pace_until(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        let ahead = u64::from(self.len).checked_mul(self.tpot.as_nanos())?;
        self.first
            .as_nanos()
            .checked_add(ahead)
            .map(SimTime::from_nanos)
    }

    /// Tokens in the stream.
    #[must_use]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the stream has no token.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The reading pace the curve was recorded at.
    #[must_use]
    pub fn tpot(&self) -> SimDuration {
        self.tpot
    }

    /// Generation time of the first token.
    #[must_use]
    pub fn first(&self) -> Option<SimTime> {
        (self.len > 0).then_some(self.first)
    }

    /// Generation time of the last token.
    #[must_use]
    pub fn last(&self) -> Option<SimTime> {
        (self.len > 0).then_some(self.last)
    }

    /// The `(index, generation time)` of every token that found the
    /// reader's buffer empty, in index order. Never includes index 0.
    #[must_use]
    pub fn stalls(&self) -> &[(u32, SimTime)] {
        &self.stalls
    }

    /// Digest time of every token, in index order, against an expected
    /// schedule starting at `expected_start`.
    fn digest_times(&self, expected_start: SimTime) -> impl Iterator<Item = SimTime> + '_ {
        let mut stalls = self.stalls.iter().peekable();
        let mut pace = self.first;
        (0..self.len).map(move |i| {
            if let Some(&(_, g)) = stalls.next_if(|(b, _)| *b == i) {
                pace = g;
            } else if i > 0 {
                pace += self.tpot;
            }
            pace.max(expected_start + self.tpot * u64::from(i))
        })
    }

    /// QoE of the stream against an expected schedule starting at
    /// `expected_start` with one token per [`tpot`](StallCurve::tpot): the
    /// ratio of the areas under the digested and expected cumulative step
    /// curves up to the horizon `max(d_n, e_n)` (Fig. 3). 1.0 for an empty
    /// stream.
    #[must_use]
    pub fn qoe(&self, expected_start: SimTime) -> f64 {
        if self.len == 0 {
            return 1.0;
        }
        let last_expected = expected_start + self.tpot * u64::from(self.len - 1);
        let horizon = self.digest.max(last_expected);
        // Area under a cumulative step curve = Σ (horizon − step time). Both
        // sums run token by token in index order: a closed-form area would
        // round differently in the last bits.
        let digested_area: f64 = self
            .digest_times(expected_start)
            .map(|d| horizon.saturating_since(d).as_secs_f64())
            .sum();
        let expected_area: f64 = (0..self.len)
            .map(|i| {
                let e = expected_start + self.tpot * u64::from(i);
                horizon.saturating_since(e).as_secs_f64()
            })
            .sum();
        if expected_area <= 0.0 {
            // Degenerate single-token case where digestion was exactly on time.
            return 1.0;
        }
        (digested_area / expected_area).clamp(0.0, 1.0)
    }
}

/// QoE of a token stream generated at `gen_times`, against an expected
/// schedule starting at `expected_start` with one token per `tpot`.
///
/// Digestion model (Fig. 3): the pacer buffers bursts; the user consumes at
/// the target pace whenever the buffer is non-empty and starves otherwise.
/// Token `i` is digested at `d_i = max(g_i, d_{i-1} + tpot)` with
/// `d_0 = max(g_0, expected_start)`; it was expected at
/// `e_i = expected_start + i·tpot`. QoE is the ratio of areas under the two
/// cumulative step curves up to the horizon `max(d_n, e_n)`, computed on
/// the stream's [`StallCurve`].
///
/// Returns 1.0 for an empty stream (nothing to starve on).
///
/// # Panics
///
/// Panics if `gen_times` is not sorted or `tpot` is zero.
#[must_use]
pub fn qoe_of_stream(gen_times: &[SimTime], expected_start: SimTime, tpot: SimDuration) -> f64 {
    StallCurve::from_stream(gen_times, tpot).qoe(expected_start)
}

/// QoE of a request's answering phase under `params`.
///
/// Returns `None` for requests with no answering tokens (e.g. the Fig. 4
/// characterization workload) — they have no user-visible stream to score.
///
/// # Panics
///
/// Panics if `params.target_tpot` differs from the TPOT the record's
/// answer stream was recorded at: its stall entries hold only at that pace.
#[must_use]
pub fn answering_qoe(record: &RequestRecord, params: &QoeParams) -> Option<f64> {
    let answers = &record.answers;
    let first = answers.first()?;
    assert_eq!(
        params.target_tpot,
        answers.tpot(),
        "{}: QoE read at a TPOT other than the answer stream's",
        record.spec.id
    );
    let expected_start = match params.target_ttfat {
        Some(ttfat) => record.phase_transition_time()? + ttfat,
        None => first,
    };
    Some(answers.qoe(expected_start))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn stream(start: f64, gap: f64, n: usize) -> Vec<SimTime> {
        (0..n).map(|i| secs(start + gap * i as f64)).collect()
    }

    /// The per-token definition the stall curve replaced: every digest
    /// time materialized, then both areas summed in index order. The
    /// curve must reproduce it to the last bit.
    fn qoe_per_token(gen_times: &[SimTime], expected_start: SimTime, tpot: SimDuration) -> f64 {
        assert!(tpot > SimDuration::ZERO, "tpot must be positive");
        assert!(
            gen_times.windows(2).all(|w| w[0] <= w[1]),
            "token times must be sorted"
        );
        let n = gen_times.len();
        if n == 0 {
            return 1.0;
        }

        let mut digest_times = Vec::with_capacity(n);
        let mut prev: Option<SimTime> = None;
        for &g in gen_times {
            let pace_ready = match prev {
                None => expected_start,
                Some(p) => p + tpot,
            };
            let d = if g > pace_ready { g } else { pace_ready };
            digest_times.push(d);
            prev = Some(d);
        }

        let last_expected = expected_start + tpot * (n as u64 - 1);
        let last_digested = *digest_times.last().expect("n > 0");
        let horizon = last_digested.max(last_expected);

        let digested_area: f64 = digest_times
            .iter()
            .map(|d| horizon.saturating_since(*d).as_secs_f64())
            .sum();
        let expected_area: f64 = (0..n)
            .map(|i| {
                let e = expected_start + tpot * i as u64;
                horizon.saturating_since(e).as_secs_f64()
            })
            .sum();

        if expected_area <= 0.0 {
            return 1.0;
        }
        (digested_area / expected_area).clamp(0.0, 1.0)
    }

    #[test]
    fn curve_holds_one_entry_per_stall() {
        let tpot = SimDuration::from_millis(100);
        // On pace, and bursts the pacer buffers: no entry at all.
        assert!(StallCurve::from_stream(&stream(0.0, 0.1, 50), tpot)
            .stalls()
            .is_empty());
        assert!(StallCurve::from_stream(&stream(0.0, 0.01, 50), tpot)
            .stalls()
            .is_empty());
        // k bursts of 10 tokens, each starting long after the reader
        // finished the previous one: exactly k entries, at the bursts.
        for k in 0..6u32 {
            let mut tokens = stream(0.0, 0.01, 10);
            for b in 1..=k {
                tokens.extend(stream(5.0 * f64::from(b), 0.01, 10));
            }
            let curve = StallCurve::from_stream(&tokens, tpot);
            let at: Vec<u32> = curve.stalls().iter().map(|&(i, _)| i).collect();
            assert_eq!(at, (1..=k).map(|b| 10 * b).collect::<Vec<_>>());
            assert_eq!(curve.len(), 10 * (k + 1));
        }
    }

    #[test]
    #[should_panic(expected = "token times must be non-decreasing")]
    fn curve_rejects_out_of_order_tokens() {
        let mut curve = StallCurve::new(SimDuration::from_millis(100));
        curve.push(secs(2.0));
        curve.push(secs(1.0));
    }

    #[test]
    fn curve_saturates_like_the_recurrence() {
        // A stream that reaches the end of time must still score exactly
        // as the per-token recurrence does.
        let tpot = SimDuration::from_millis(100);
        let tokens = [
            SimTime::from_nanos(u64::MAX - 150_000_000),
            SimTime::MAX,
            SimTime::MAX,
        ];
        for start in [tokens[0], SimTime::MAX] {
            assert_eq!(
                qoe_of_stream(&tokens, start, tpot).to_bits(),
                qoe_per_token(&tokens, start, tpot).to_bits()
            );
        }
    }

    #[test]
    fn on_pace_generation_scores_one() {
        let tokens = stream(0.0, 0.1, 50);
        let qoe = qoe_of_stream(&tokens, secs(0.0), SimDuration::from_millis(100));
        assert!((qoe - 1.0).abs() < 1e-9, "qoe {qoe}");
    }

    #[test]
    fn faster_than_pace_is_still_one() {
        // Burst generation: the pacer buffers, the user reads on schedule.
        let tokens = stream(0.0, 0.01, 50);
        let qoe = qoe_of_stream(&tokens, secs(0.0), SimDuration::from_millis(100));
        assert!((qoe - 1.0).abs() < 1e-9, "qoe {qoe}");
    }

    #[test]
    fn stall_mid_stream_costs_qoe() {
        // 10 on-pace tokens, then a 2 s stall, then 10 more (Fig. 3(iii)).
        let mut tokens = stream(0.0, 0.1, 10);
        tokens.extend(stream(3.0, 0.1, 10));
        let qoe = qoe_of_stream(&tokens, secs(0.0), SimDuration::from_millis(100));
        assert!(qoe < 0.95, "stalled stream should violate: {qoe}");
        assert!(qoe > 0.2, "but not collapse to zero: {qoe}");
    }

    #[test]
    fn slower_pace_generation_degrades_gradually() {
        let on_pace = qoe_of_stream(
            &stream(0.0, 0.1, 50),
            secs(0.0),
            SimDuration::from_millis(100),
        );
        let slow_10 = qoe_of_stream(
            &stream(0.0, 0.11, 50),
            secs(0.0),
            SimDuration::from_millis(100),
        );
        let slow_50 = qoe_of_stream(
            &stream(0.0, 0.15, 50),
            secs(0.0),
            SimDuration::from_millis(100),
        );
        assert!(on_pace > slow_10 && slow_10 > slow_50);
    }

    #[test]
    fn empty_stream_is_perfect() {
        assert_eq!(
            qoe_of_stream(&[], secs(0.0), SimDuration::from_millis(100)),
            1.0
        );
    }

    #[test]
    fn single_on_time_token_is_perfect() {
        let qoe = qoe_of_stream(&[secs(1.0)], secs(1.0), SimDuration::from_millis(100));
        assert_eq!(qoe, 1.0);
    }

    #[test]
    fn ttfat_target_mode_charges_late_transition() {
        use pascal_workload::{RequestId, RequestSpec};
        // Transition at t=1.0; first answer only at t=2.0 (late by 0.75 s
        // against the 0.25 s TTFAT target), then on pace.
        let spec = RequestSpec::new(RequestId(0), secs(0.0), 128, 1, 10);
        let mut times = vec![secs(1.0)];
        times.extend(stream(2.0, 0.1, 10));
        let record = RequestRecord {
            executed: SimDuration::from_secs_f64(2.9),
            answer_resume_time: Some(secs(2.0)),
            ..RequestRecord::fixture(spec, &times)
        };
        let eval = answering_qoe(&record, &QoeParams::paper_eval()).unwrap();
        let charac = answering_qoe(&record, &QoeParams::characterization()).unwrap();
        assert!(
            (eval - 1.0).abs() < 1e-9,
            "TPOT-only mode ignores TTFAT: {eval}"
        );
        assert!(charac < 0.9, "characterization mode charges it: {charac}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The stall curve reproduces the per-token QoE bit for bit: gaps
        /// of zero, around the pace and multi-second stalls; expected
        /// starts before, at and after the first token; TPOTs 1 ms–1 s.
        #[test]
        fn prop_curve_matches_per_token_reference(
            steps in proptest::collection::vec((0u32..4, any::<u64>()), 1..300),
            (tpot_ns, (start_kind, start_off)) in (1_000_000u64..1_000_000_001, (0u32..3, any::<u64>())),
        ) {
            let tpot = SimDuration::from_nanos(tpot_ns);
            let mut t = SimTime::ZERO + SimDuration::from_secs_f64(10.0);
            let mut tokens = Vec::with_capacity(steps.len());
            for (i, &(kind, r)) in steps.iter().enumerate() {
                let gap = match kind {
                    0 => 0,
                    1 => r % (2 * tpot_ns),
                    2 => 1_000_000_000 + r % 9_000_000_000,
                    _ => tpot_ns,
                };
                if i > 0 {
                    t += SimDuration::from_nanos(gap);
                }
                tokens.push(t);
            }
            let off = SimDuration::from_nanos(start_off % 5_000_000_000);
            let start = match start_kind {
                0 => SimTime::from_nanos(tokens[0].as_nanos() - off.as_nanos()),
                1 => tokens[0],
                _ => tokens[0] + off,
            };
            let curve = qoe_of_stream(&tokens, start, tpot);
            let reference = qoe_per_token(&tokens, start, tpot);
            prop_assert_eq!(curve.to_bits(), reference.to_bits());
        }
    }

    proptest! {
        /// `would_stall` predicts exactly which pushes add a stall entry,
        /// and `extend_on_pace` equals pushing a run of tokens that each
        /// arrive within `tpot` of their predecessor — also at the end of
        /// time, where the digest saturates.
        #[test]
        fn prop_on_pace_extension_matches_pushes(
            head in proptest::collection::vec(0u64..3_000_000_000, 1..40),
            run in proptest::collection::vec(0u64..1_001, 0..40),
            tpot_ms in 1u64..1_000,
            near_end in any::<bool>(),
        ) {
            let tpot = SimDuration::from_millis(tpot_ms);
            let mut t = if near_end {
                SimTime::from_nanos(u64::MAX - 200_000_000_000)
            } else {
                SimTime::ZERO
            };
            let mut curve = StallCurve::new(tpot);
            for gap in head {
                t += SimDuration::from_nanos(gap);
                let stalls = curve.stalls().len();
                let predicted = curve.would_stall(t);
                curve.push(t);
                prop_assert_eq!(predicted, curve.stalls().len() > stalls);
            }
            let mut extended = curve.clone();
            for &per_mille in &run {
                // A gap of at most `tpot` after the previous token.
                t += tpot.mul_f64(per_mille as f64 / 1_000.0);
                prop_assert!(!curve.would_stall(t));
                curve.push(t);
            }
            extended.extend_on_pace(run.len() as u32, curve.last().expect("started"));
            prop_assert_eq!(extended, curve);
        }

        /// QoE is always within [0, 1].
        #[test]
        fn prop_qoe_bounded(gaps in proptest::collection::vec(0.0f64..1.0, 1..100)) {
            let mut t = 0.0;
            let tokens: Vec<SimTime> = gaps.iter().map(|g| { t += g; secs(t) }).collect();
            let qoe = qoe_of_stream(&tokens, tokens[0], SimDuration::from_millis(100));
            prop_assert!((0.0..=1.0).contains(&qoe));
        }

        /// Delaying every token after the first can never raise QoE.
        #[test]
        fn prop_delay_never_helps(
            n in 2usize..50,
            delay_ms in 1u64..5000,
        ) {
            let base = stream(0.0, 0.1, n);
            let mut delayed = base.clone();
            let extra = SimDuration::from_millis(delay_ms);
            for t in delayed.iter_mut().skip(1) {
                *t += extra;
            }
            let q_base = qoe_of_stream(&base, base[0], SimDuration::from_millis(100));
            let q_delayed = qoe_of_stream(&delayed, delayed[0], SimDuration::from_millis(100));
            prop_assert!(q_delayed <= q_base + 1e-12);
        }
    }
}
