//! The token pacer (§II-C, Fig. 3), as a test reference.
//!
//! The pacer sits between generation and the user: bursts are buffered and
//! released at the target TPOT so preemption gaps are invisible as long as
//! the buffer holds out. Its online state answers the question PASCAL's
//! instance-level scheduler asks (Algorithm 1/2, `t_i`): *is every answering
//! request on this instance still generating fast enough to keep the user's
//! reading pace fed?* The engine answers it from each request's stall curve
//! ([`pascal_metrics::StallCurve::on_pace_until`]); this counting pacer is
//! the straightforward model that curve is checked against.

use pascal_sim::{SimDuration, SimTime};

/// Online pacing state of one request's answering stream.
#[derive(Clone, Debug)]
pub struct TokenPacer {
    target_tpot: SimDuration,
    stream_start: Option<SimTime>,
    generated: u64,
}

impl TokenPacer {
    /// A pacer releasing one token per `target_tpot`.
    ///
    /// # Panics
    ///
    /// Panics if `target_tpot` is zero.
    #[must_use]
    pub fn new(target_tpot: SimDuration) -> Self {
        assert!(
            target_tpot > SimDuration::ZERO,
            "target TPOT must be positive"
        );
        TokenPacer {
            target_tpot,
            stream_start: None,
            generated: 0,
        }
    }

    /// Records a generated answering token. The first token starts the
    /// release schedule.
    ///
    /// # Panics
    ///
    /// Panics if tokens arrive out of order relative to the stream start.
    pub fn on_token(&mut self, now: SimTime) {
        match self.stream_start {
            None => self.stream_start = Some(now),
            Some(start) => assert!(now >= start, "pacer saw time move backwards"),
        }
        self.generated += 1;
    }

    /// Tokens the user expects to have consumed by `now` (one immediately at
    /// stream start, then one per TPOT). Zero before the stream starts.
    #[must_use]
    pub fn expected_by(&self, now: SimTime) -> u64 {
        match self.stream_start {
            None => 0,
            Some(start) => {
                if now < start {
                    0
                } else {
                    let elapsed = now.saturating_since(start).as_nanos();
                    1 + elapsed / self.target_tpot.as_nanos()
                }
            }
        }
    }

    /// Buffered surplus (positive) or starvation deficit (negative) in
    /// tokens at `now`.
    #[must_use]
    pub fn buffer_balance(&self, now: SimTime) -> i64 {
        let expected = self.expected_by(now).min(i64::MAX as u64) as i64;
        let generated = self.generated.min(i64::MAX as u64) as i64;
        generated - expected
    }

    /// Whether generation is keeping up with the user's expected pace —
    /// the per-request component of `t_i` in Algorithms 1 and 2.
    ///
    /// A stream that has not started yet (or has already generated every
    /// token it will need) is on pace by definition.
    #[must_use]
    pub fn is_on_pace(&self, now: SimTime) -> bool {
        self.buffer_balance(now) >= 0
    }

    /// The instant this stream falls behind if no further token arrives:
    /// `start + generated × TPOT`. For a started stream,
    /// [`is_on_pace`](TokenPacer::is_on_pace)`(now)` is exactly
    /// `now < on_pace_until()` — at any `now`, past or future. `None`
    /// means on pace at every representable instant: the stream has not
    /// started, or its deadline lies beyond [`SimTime::MAX`] (a stream
    /// started near the end of time). This is what lets an instance's SLO
    /// health be kept as one earliest deadline instead of being recomputed
    /// from every stream per query.
    #[must_use]
    pub fn on_pace_until(&self) -> Option<SimTime> {
        let start = self.stream_start?.as_nanos();
        let ahead = self.generated.checked_mul(self.target_tpot.as_nanos())?;
        start.checked_add(ahead).map(SimTime::from_nanos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn pacer_100ms() -> TokenPacer {
        TokenPacer::new(SimDuration::from_millis(100))
    }

    #[test]
    fn idle_pacer_is_on_pace() {
        let pacer = pacer_100ms();
        assert_eq!(pacer.expected_by(secs(100.0)), 0);
        assert!(pacer.is_on_pace(secs(100.0)));
    }

    #[test]
    fn expected_counts_from_stream_start() {
        let mut pacer = pacer_100ms();
        pacer.on_token(secs(2.0));
        assert_eq!(pacer.expected_by(secs(2.0)), 1);
        assert_eq!(pacer.expected_by(secs(2.05)), 1);
        assert_eq!(pacer.expected_by(secs(2.1)), 2);
        assert_eq!(pacer.expected_by(secs(2.95)), 10);
    }

    #[test]
    fn burst_builds_buffer_then_drains() {
        let mut pacer = pacer_100ms();
        for i in 0..10 {
            pacer.on_token(secs(1.0 + 0.01 * f64::from(i)));
        }
        // At t=1.1 user consumed 2, generated 10 => buffer 8.
        assert_eq!(pacer.buffer_balance(secs(1.1)), 8);
        assert!(pacer.is_on_pace(secs(1.85)));
        // At t=1.0 + 10*0.1 = 2.0 the user wants the 11th token: starved.
        assert!(!pacer.is_on_pace(secs(2.0)));
        assert_eq!(pacer.buffer_balance(secs(2.0)), -1);
    }

    #[test]
    fn exact_pace_stays_on_pace() {
        let mut pacer = pacer_100ms();
        for i in 0..50 {
            let t = secs(0.1 * f64::from(i));
            pacer.on_token(t);
            assert!(pacer.is_on_pace(t), "fell behind at token {i}");
        }
    }

    #[test]
    fn deadline_past_the_end_of_time_is_never_reached() {
        // A stream started at the last representable instant stays on pace
        // there; a saturated deadline of MAX would claim it fell behind.
        let mut pacer = pacer_100ms();
        pacer.on_token(SimTime::MAX);
        assert!(pacer.is_on_pace(SimTime::MAX));
        assert_eq!(pacer.on_pace_until(), None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_tpot_rejected() {
        let _ = TokenPacer::new(SimDuration::ZERO);
    }

    proptest! {
        /// Generating faster never makes the pacer fall off pace earlier.
        #[test]
        fn prop_more_tokens_never_hurt(
            gaps in proptest::collection::vec(0.0f64..0.5, 1..50),
            probe in 0.0f64..30.0,
        ) {
            let mut slow = pacer_100ms();
            let mut fast = pacer_100ms();
            let mut t = 1.0;
            for g in &gaps {
                t += g;
                slow.on_token(secs(t));
                fast.on_token(secs(t));
            }
            // `fast` gets one bonus token at the same final time.
            fast.on_token(secs(t));
            let at = secs(t + probe);
            prop_assert!(fast.buffer_balance(at) == slow.buffer_balance(at) + 1);
        }

        /// `on_pace_until` exactly characterizes `is_on_pace` at every
        /// probe time — the contract the engine's per-instance earliest
        /// pacer deadline rests on.
        #[test]
        fn prop_on_pace_until_matches_is_on_pace(
            gaps in proptest::collection::vec(0.0f64..0.5, 0..50),
            probe in 0.0f64..30.0,
        ) {
            let mut pacer = pacer_100ms();
            let mut t = 1.0;
            for g in &gaps {
                t += g;
                pacer.on_token(secs(t));
            }
            let at = secs(probe);
            let expected = match pacer.on_pace_until() {
                None => true,
                Some(flip) => at < flip,
            };
            prop_assert_eq!(pacer.is_on_pace(at), expected);
        }

        /// The engine keeps no pacer: it reads each answering stream's
        /// deadline off the stream's stall curve. Both must agree on every
        /// stream — on pace, stalled, and started so close to the end of
        /// time that the deadline lies past `SimTime::MAX`.
        #[test]
        fn prop_curve_deadline_matches_the_pacer(
            gaps in proptest::collection::vec(0u64..400_000_000, 0..60),
            tpot_ms in 1u64..1_000,
            near_end in any::<bool>(),
            offset in 0u64..20_000_000_000,
        ) {
            let tpot = SimDuration::from_millis(tpot_ms);
            let mut pacer = TokenPacer::new(tpot);
            let mut curve = pascal_metrics::StallCurve::new(tpot);
            prop_assert_eq!(curve.on_pace_until(), pacer.on_pace_until());
            let mut t = if near_end {
                SimTime::from_nanos(u64::MAX - offset)
            } else {
                SimTime::from_nanos(offset)
            };
            for gap in gaps {
                t += SimDuration::from_nanos(gap);
                pacer.on_token(t);
                curve.push(t);
                prop_assert_eq!(curve.on_pace_until(), pacer.on_pace_until());
            }
        }
    }
}
