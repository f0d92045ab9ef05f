//! Trace synthesis: turning dataset profiles and arrival processes into
//! concrete request sequences, including the paper's characterization
//! workloads (§III-A).

use pascal_sim::{SimRng, SimTime};

use crate::arrivals::ArrivalProcess;
use crate::dataset::DatasetMix;
use crate::request::{RequestId, RequestSpec};

/// A fully materialized workload: requests sorted by arrival time.
///
/// # Examples
///
/// ```
/// use pascal_workload::{ArrivalProcess, DatasetMix, DatasetProfile, TraceBuilder};
///
/// let trace = TraceBuilder::new(DatasetMix::single(DatasetProfile::alpaca_eval2()))
///     .arrivals(ArrivalProcess::poisson(4.0))
///     .count(100)
///     .seed(7)
///     .build();
/// assert_eq!(trace.requests().len(), 100);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    requests: Vec<RequestSpec>,
}

impl Trace {
    /// Wraps a pre-built request list.
    ///
    /// # Panics
    ///
    /// Panics if the requests are not sorted by arrival time or ids are not
    /// unique.
    #[must_use]
    pub fn from_requests(requests: Vec<RequestSpec>) -> Self {
        assert!(
            requests.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "trace requests must be sorted by arrival"
        );
        let mut ids: Vec<u64> = requests.iter().map(|r| r.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(
            ids.len(),
            requests.len(),
            "trace request ids must be unique"
        );
        Trace { requests }
    }

    /// The requests in arrival order.
    #[must_use]
    pub fn requests(&self) -> &[RequestSpec] {
        &self.requests
    }

    /// Total output tokens across the trace.
    #[must_use]
    pub fn total_output_tokens(&self) -> u64 {
        self.requests
            .iter()
            .map(|r| u64::from(r.output_tokens()))
            .sum()
    }

    /// The time of the last arrival (zero for an empty trace).
    #[must_use]
    pub fn last_arrival(&self) -> SimTime {
        self.requests.last().map_or(SimTime::ZERO, |r| r.arrival)
    }

    /// Checks that a trace of `count` requests fits in memory by reserving
    /// the buffers [`TraceBuilder::try_build`] fills, then releasing them.
    /// For a caller that builds its traces later, or elsewhere.
    ///
    /// # Errors
    ///
    /// [`TraceTooLarge`] when either reservation fails.
    pub fn check_capacity(count: usize) -> Result<(), TraceTooLarge> {
        reserve_buffers(count).map(drop)
    }
}

/// A trace's request and arrival-time buffers for `count` requests,
/// reserved fallibly: a count whose buffers overflow the address space, or
/// that the allocator refuses, is an error rather than a panic or an abort.
fn reserve_buffers(count: usize) -> Result<(Vec<RequestSpec>, Vec<SimTime>), TraceTooLarge> {
    let mut requests = Vec::new();
    let mut times = Vec::new();
    requests
        .try_reserve_exact(count)
        .and_then(|()| times.try_reserve_exact(count))
        .map_err(|_| TraceTooLarge { count })?;
    Ok((requests, times))
}

/// A trace too large to hold in memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceTooLarge {
    /// The requested number of requests.
    pub count: usize,
}

impl std::fmt::Display for TraceTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "a trace of {} requests does not fit in memory",
            self.count
        )
    }
}

impl std::error::Error for TraceTooLarge {}

impl IntoIterator for Trace {
    type Item = RequestSpec;
    type IntoIter = std::vec::IntoIter<RequestSpec>;
    fn into_iter(self) -> Self::IntoIter {
        self.requests.into_iter()
    }
}

/// Builder for stochastic traces.
#[derive(Clone, Debug)]
pub struct TraceBuilder {
    mix: DatasetMix,
    arrivals: ArrivalProcess,
    count: usize,
    seed: u64,
    region_weights: Vec<f64>,
}

impl TraceBuilder {
    /// Starts a builder over a dataset mixture with defaults of 300 requests
    /// (the paper's characterization count), 1 req/s Poisson arrivals and
    /// seed 0.
    #[must_use]
    pub fn new(mix: DatasetMix) -> Self {
        TraceBuilder {
            mix,
            arrivals: ArrivalProcess::poisson(1.0),
            count: 300,
            seed: 0,
            region_weights: Vec::new(),
        }
    }

    /// Sets the arrival process.
    #[must_use]
    pub fn arrivals(mut self, arrivals: ArrivalProcess) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// Sets the number of requests.
    #[must_use]
    pub fn count(mut self, count: usize) -> Self {
        self.count = count;
        self
    }

    /// Sets the RNG seed (lengths and arrivals derive from it).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Tags every request with an origin region drawn from a *harmonic*
    /// popularity skew over `regions` regions (region `i` gets weight
    /// `1/(i+1)`): real geo-distributed traffic is never uniform, and the
    /// skew is what makes region-aware routing a non-trivial decision.
    /// Origins come from an RNG stream separate from arrivals and lengths,
    /// so the request bodies are byte-identical at every region count —
    /// federated comparisons stay paired. `regions <= 1` clears the tags.
    #[must_use]
    pub fn regions(mut self, regions: usize) -> Self {
        self.region_weights = if regions <= 1 {
            Vec::new()
        } else {
            (0..regions).map(|i| 1.0 / (i as f64 + 1.0)).collect()
        };
        self
    }

    /// Tags origins from an explicit per-region weight vector (one entry
    /// per region; weights need not be normalized). Overrides
    /// [`TraceBuilder::regions`]' harmonic default.
    ///
    /// # Panics
    ///
    /// Panics if any weight is negative, non-finite, or the sum is zero.
    #[must_use]
    pub fn region_weights(mut self, weights: Vec<f64>) -> Self {
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "region weights must be non-negative finite numbers"
        );
        assert!(
            weights.iter().sum::<f64>() > 0.0,
            "region weights must not sum to zero"
        );
        self.region_weights = if weights.len() <= 1 {
            Vec::new()
        } else {
            weights
        };
        self
    }

    /// Materializes the trace.
    ///
    /// # Panics
    ///
    /// Panics if the trace does not fit in memory (see
    /// [`TraceBuilder::try_build`]).
    #[must_use]
    pub fn build(&self) -> Trace {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Materializes the trace, reserving its buffers fallibly first.
    ///
    /// # Errors
    ///
    /// [`TraceTooLarge`] when the requested count's buffers overflow the
    /// address space or the allocator refuses them.
    pub fn try_build(&self) -> Result<Trace, TraceTooLarge> {
        let (mut requests, mut times) = reserve_buffers(self.count)?;
        let mut root = SimRng::seed_from(self.seed);
        let mut arrival_rng = root.split(0xA11);
        let mut length_rng = root.split(0x1E9);
        self.arrivals
            .generate_into(&mut times, self.count, &mut arrival_rng);
        requests.extend(times.into_iter().enumerate().map(|(i, arrival)| {
            let profile = self.mix.sample_profile(&mut length_rng);
            let prompt = profile.prompt.sample(&mut length_rng).max(1);
            let reasoning = profile.reasoning.sample(&mut length_rng).max(1);
            let answering = profile.answering.sample(&mut length_rng);
            RequestSpec::new(RequestId(i as u64), arrival, prompt, reasoning, answering)
                .with_dataset(&profile.name)
        }));
        // Origin tagging is a second pass over a third RNG stream: the
        // arrival and length streams above never see it, so the same seed
        // yields the same request bodies at every region count.
        if !self.region_weights.is_empty() {
            let mut origin_rng = root.split(0x0121);
            let total: f64 = self.region_weights.iter().sum();
            // Rounding fallback: if `draw` survives every subtraction
            // (possible when `uniform * total` rounds up to `total`), the
            // draw belongs to the *last positive-weight* region — never to
            // an explicitly zero-weight one.
            let last_positive = self
                .region_weights
                .iter()
                .rposition(|w| *w > 0.0)
                .expect("weights sum to a positive total") as u32;
            for req in &mut requests {
                let mut draw = origin_rng.uniform_f64() * total;
                let mut origin = last_positive;
                for (i, w) in self.region_weights.iter().enumerate() {
                    draw -= w;
                    if draw < 0.0 {
                        origin = i as u32;
                        break;
                    }
                }
                req.origin_region = origin;
            }
        }
        Ok(Trace::from_requests(requests))
    }
}

/// The reasoning-phase characterization workload of Fig. 4: 300 requests,
/// 128-token prompts, reasoning length drawn uniformly from
/// `{128, 256, 512, 1024, 2048}`, no answering tokens (the experiment stops
/// at the phase boundary), Poisson arrivals at `rate` req/s.
#[must_use]
pub fn fig04_reasoning_trace(count: usize, rate: f64, seed: u64) -> Trace {
    let mut root = SimRng::seed_from(seed);
    let mut arrival_rng = root.split(0xA11);
    let mut length_rng = root.split(0x1E9);
    let times = ArrivalProcess::poisson(rate).generate(count, &mut arrival_rng);
    let lengths = [128u32, 256, 512, 1024, 2048];
    let requests = times
        .into_iter()
        .enumerate()
        .map(|(i, arrival)| {
            let reasoning = *length_rng.choose(&lengths);
            RequestSpec::new(RequestId(i as u64), arrival, 128, reasoning, 0)
        })
        .collect();
    Trace::from_requests(requests)
}

/// The answering-phase characterization workload of Fig. 5: 300 *warm*
/// requests whose 128 tokens of prefill+reasoning KV already exist; each
/// generates an answering length drawn uniformly from
/// `{128, 256, 512, 1024, 2048}`.
#[must_use]
pub fn fig05_answering_trace(count: usize, rate: f64, seed: u64) -> Trace {
    let mut root = SimRng::seed_from(seed);
    let mut arrival_rng = root.split(0xA11);
    let mut length_rng = root.split(0x1E9);
    let times = ArrivalProcess::poisson(rate).generate(count, &mut arrival_rng);
    let lengths = [128u32, 256, 512, 1024, 2048];
    let requests = times
        .into_iter()
        .enumerate()
        .map(|(i, arrival)| {
            let answering = *length_rng.choose(&lengths);
            RequestSpec::warm(RequestId(i as u64), arrival, 128, answering)
        })
        .collect();
    Trace::from_requests(requests)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetProfile;
    use crate::request::Phase;

    #[test]
    fn counts_that_cannot_be_held_are_refused_not_allocated() {
        assert_eq!(Trace::check_capacity(1_000), Ok(()));
        let too_many = TraceTooLarge { count: usize::MAX };
        assert_eq!(Trace::check_capacity(usize::MAX), Err(too_many));
        let builder = TraceBuilder::new(DatasetMix::single(DatasetProfile::gpqa()));
        assert_eq!(builder.clone().count(usize::MAX).try_build(), Err(too_many));
        assert_eq!(
            builder.count(40).try_build().map(|t| t.requests().len()),
            Ok(40)
        );
    }

    #[test]
    fn builder_produces_requested_count_sorted() {
        let trace = TraceBuilder::new(DatasetMix::single(DatasetProfile::arena_hard()))
            .count(50)
            .seed(3)
            .build();
        assert_eq!(trace.requests().len(), 50);
        assert!(trace
            .requests()
            .windows(2)
            .all(|w| w[0].arrival <= w[1].arrival));
    }

    #[test]
    fn builder_is_deterministic_per_seed() {
        let mk = |seed| {
            TraceBuilder::new(DatasetMix::single(DatasetProfile::alpaca_eval2()))
                .count(40)
                .seed(seed)
                .build()
        };
        assert_eq!(mk(5), mk(5));
        assert_ne!(mk(5), mk(6));
    }

    #[test]
    fn fig04_trace_shape() {
        let trace = fig04_reasoning_trace(300, 2.0, 1);
        assert_eq!(trace.requests().len(), 300);
        let allowed = [128, 256, 512, 1024, 2048];
        for r in trace.requests() {
            assert_eq!(r.prompt_tokens, 128);
            assert_eq!(r.answering_tokens, 0);
            assert!(allowed.contains(&r.reasoning_tokens));
            assert_eq!(r.initial_phase(), Phase::Reasoning);
        }
    }

    #[test]
    fn fig05_trace_shape() {
        let trace = fig05_answering_trace(300, 2.0, 1);
        assert_eq!(trace.requests().len(), 300);
        let allowed = [128, 256, 512, 1024, 2048];
        for r in trace.requests() {
            assert!(r.warm_start);
            assert_eq!(r.prompt_tokens, 128);
            assert_eq!(r.reasoning_tokens, 0);
            assert!(allowed.contains(&r.answering_tokens));
            assert_eq!(r.initial_phase(), Phase::Answering);
        }
    }

    #[test]
    fn region_tagging_is_skewed_and_leaves_bodies_identical() {
        let base = TraceBuilder::new(DatasetMix::single(DatasetProfile::arena_hard()))
            .count(400)
            .seed(11);
        let untagged = base.clone().build();
        let tagged = base.clone().regions(4).build();
        // Same bodies (arrivals, lengths) — only the origin tags differ.
        for (a, b) in untagged.requests().iter().zip(tagged.requests()) {
            assert_eq!(a.arrival, b.arrival);
            assert_eq!(a.prompt_tokens, b.prompt_tokens);
            assert_eq!(a.reasoning_tokens, b.reasoning_tokens);
            assert_eq!(a.answering_tokens, b.answering_tokens);
            assert_eq!(a.origin_region, 0);
            assert!(b.origin_region < 4);
        }
        // The harmonic skew: region 0 is the hottest, every region nonempty.
        let count =
            |t: &Trace, r: u32| t.requests().iter().filter(|q| q.origin_region == r).count();
        let counts: Vec<usize> = (0..4).map(|r| count(&tagged, r)).collect();
        assert!(counts.iter().all(|&c| c > 0), "all regions hit: {counts:?}");
        assert!(
            counts[0] > counts[3],
            "region 0 must be hotter than region 3: {counts:?}"
        );
        // Deterministic per seed; regions(1) clears the tags again.
        assert_eq!(tagged, base.clone().regions(4).build());
        assert_eq!(untagged, base.clone().regions(4).regions(1).build());
    }

    #[test]
    fn explicit_region_weights_override_the_harmonic_default() {
        let trace = TraceBuilder::new(DatasetMix::single(DatasetProfile::alpaca_eval2()))
            .count(300)
            .seed(3)
            .region_weights(vec![0.0, 1.0, 0.0])
            .build();
        assert!(trace.requests().iter().all(|r| r.origin_region == 1));
    }

    #[test]
    #[should_panic(expected = "must not sum to zero")]
    fn zero_region_weights_rejected() {
        let _ = TraceBuilder::new(DatasetMix::single(DatasetProfile::alpaca_eval2()))
            .region_weights(vec![0.0, 0.0]);
    }

    #[test]
    fn total_output_tokens_sums() {
        let trace = fig04_reasoning_trace(10, 1.0, 2);
        let expected: u64 = trace
            .requests()
            .iter()
            .map(|r| u64::from(r.reasoning_tokens))
            .sum();
        assert_eq!(trace.total_output_tokens(), expected);
    }

    #[test]
    #[should_panic(expected = "sorted by arrival")]
    fn unsorted_trace_rejected() {
        let a = RequestSpec::new(RequestId(0), SimTime::from_secs_f64(5.0), 10, 10, 10);
        let b = RequestSpec::new(RequestId(1), SimTime::from_secs_f64(1.0), 10, 10, 10);
        let _ = Trace::from_requests(vec![a, b]);
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn duplicate_ids_rejected() {
        let a = RequestSpec::new(RequestId(0), SimTime::ZERO, 10, 10, 10);
        let b = RequestSpec::new(RequestId(0), SimTime::from_secs_f64(1.0), 10, 10, 10);
        let _ = Trace::from_requests(vec![a, b]);
    }
}
