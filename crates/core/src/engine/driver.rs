//! The run's single clock and the event loop both engines share.
//!
//! A run keeps **one future-event list** for all of its shards. Each
//! shard schedules through a [`ShardQueue`] handle that stamps the
//! shard's global (region-major) id on every event, and the queue pops in
//! `(time, shard, sequence)` order — exactly the engine's tie-break:
//! lowest shard id first, then schedule order within the shard. Trace
//! arrivals stay off the queue: the [`Clock`] reads them straight from the
//! trace, in index order, and lets them win every timestamp tie.
//!
//! The single-region [`Engine`](super::cluster::Engine) and the
//! [`FederationEngine`](super::federation::FederationEngine) run the same
//! loop ([`EventDriver::step`]): take the next arrival or event, emit the
//! series gauge samples due strictly before it (the engine state is
//! piecewise-constant between events, so a row at time `s` reflects every
//! event with timestamp `<= s`), then hand it to the engine, timed by the
//! hot-path profiler. The engines supply only what differs: how an
//! arrival is routed, how an event reaches its shard, and how a sample is
//! taken.

use std::cell::RefCell;
use std::rc::Rc;

use pascal_sim::{EventQueue, SimDuration, SimTime};
use pascal_telemetry::{ProfiledEvent, TelemetryHandle, WorkCounters};
use pascal_workload::Trace;

use super::cluster::total_work;
use super::{Event, Shard};

/// A shard's handle on the run's future-event list: every event it
/// schedules carries the shard's global id. Clones share the one queue
/// (the event loop is single-threaded, hence `Rc<RefCell<..>>`).
#[derive(Clone)]
pub(crate) struct ShardQueue {
    queue: Rc<RefCell<EventQueue<Event>>>,
    shard: u32,
}

impl ShardQueue {
    /// Schedules `ev` to fire at `time` on this shard.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the last event the run fired.
    #[inline]
    pub(super) fn schedule(&self, time: SimTime, ev: Event) {
        self.queue.borrow_mut().schedule(time, self.shard, ev);
    }
}

/// What fires next.
pub(super) enum Next {
    /// Trace request `idx` arrives at `at`.
    Arrival { idx: usize, at: SimTime },
    /// `ev`, scheduled by global shard `shard`, fires at `now`.
    Event { now: SimTime, shard: u32, ev: Event },
}

impl Next {
    fn time(&self) -> SimTime {
        match self {
            Next::Arrival { at, .. } => *at,
            Next::Event { now, .. } => *now,
        }
    }
}

/// The run's single clock: the trace's arrival cursor, the future-event
/// list every shard schedules on, the series sampler's cursor and the
/// telemetry handle the loop is profiled through.
pub(crate) struct Clock<'a> {
    trace: &'a Trace,
    /// The next trace request to arrive. The trace is in arrival order
    /// ([`Trace::from_requests`] asserts it), so index order is the
    /// `(arrival, index)` order arrivals fire in.
    next_arrival: usize,
    queue: Rc<RefCell<EventQueue<Event>>>,
    /// `(next sample time, interval)` while series telemetry is on.
    sampler: Option<(SimTime, SimDuration)>,
    telemetry: TelemetryHandle,
}

impl<'a> Clock<'a> {
    pub(super) fn new(trace: &'a Trace, telemetry: TelemetryHandle) -> Self {
        Clock {
            trace,
            next_arrival: 0,
            queue: Rc::new(RefCell::new(EventQueue::new())),
            sampler: telemetry
                .series_interval()
                .map(|interval| (SimTime::ZERO + interval, interval)),
            telemetry,
        }
    }

    /// The trace the run replays.
    pub(super) fn trace(&self) -> &'a Trace {
        self.trace
    }

    /// The run-wide telemetry handle.
    pub(super) fn telemetry(&self) -> &TelemetryHandle {
        &self.telemetry
    }

    /// A scheduling handle for global shard `shard`.
    pub(super) fn shard_queue(&self, shard: u32) -> ShardQueue {
        ShardQueue {
            queue: Rc::clone(&self.queue),
            shard,
        }
    }

    /// The most events that were ever pending at once.
    fn peak_pending(&self) -> u64 {
        self.queue.borrow().peak_len() as u64
    }

    /// Hands the run's deterministic work counts — summed over `shards`,
    /// plus the queue's peak population — to the profiler (a no-op
    /// unless profiling is on).
    pub(super) fn profile_work(&self, shards: &[Shard<'_>]) {
        self.telemetry.profile_work(&WorkCounters {
            peak_pending_events: self.peak_pending(),
            ..total_work(shards)
        });
    }

    /// Takes the globally next arrival or event: arrivals win ties, then
    /// the queue's `(time, shard, sequence)` order applies. `None` once
    /// the trace and the queue are both exhausted.
    fn next(&mut self) -> Option<Next> {
        let arrival = self
            .trace
            .requests()
            .get(self.next_arrival)
            .map(|r| r.arrival);
        let mut queue = self.queue.borrow_mut();
        match (arrival, queue.peek_time()) {
            (Some(at), head) if head.is_none_or(|t| at <= t) => {
                let idx = self.next_arrival;
                self.next_arrival += 1;
                Some(Next::Arrival { idx, at })
            }
            _ => queue
                .pop()
                .map(|(now, shard, ev)| Next::Event { now, shard, ev }),
        }
    }

    /// The next series sample due strictly before `horizon`, advancing
    /// the sampler past it.
    fn sample_due(&mut self, horizon: SimTime) -> Option<SimTime> {
        let (next, interval) = self.sampler.as_mut()?;
        (*next < horizon).then(|| {
            let at = *next;
            *next += *interval;
            at
        })
    }
}

/// The engine operations the shared loop drives. Implemented by both the
/// cluster and federation engines.
pub(super) trait EventDriver<'a> {
    /// The run's clock.
    fn clock(&mut self) -> &mut Clock<'a>;

    /// Delivers trace request `idx`, arriving at `at`.
    fn arrive(&mut self, idx: usize, at: SimTime);

    /// Hands `ev`, scheduled by global shard `shard`, to its shard.
    fn fire(&mut self, shard: u32, ev: Event, now: SimTime);

    /// Emits one series gauge sample at `at`. Read-only with respect to
    /// simulation state: sampling must not perturb the run.
    fn sample(&mut self, at: SimTime);

    /// Fires the globally next arrival or event, after the series samples
    /// due before it. Returns `false` once everything has drained.
    fn step(&mut self) -> bool {
        let Some(next) = self.clock().next() else {
            return false;
        };
        while let Some(at) = self.clock().sample_due(next.time()) {
            self.sample(at);
        }
        let t0 = self.clock().telemetry.profile_timer();
        let kind = match next {
            Next::Arrival { idx, at } => {
                self.arrive(idx, at);
                ProfiledEvent::Arrival
            }
            Next::Event { now, shard, ev } => {
                let kind = ev.profiled();
                self.fire(shard, ev, now);
                kind
            }
        };
        self.clock().telemetry.profile_record(kind, t0);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pascal_workload::{RequestId, RequestSpec};

    #[test]
    fn arrivals_win_ties_then_the_lowest_shard_whatever_the_schedule_order() {
        // Shard 70,000 schedules first; shard 0 still fires before it at
        // the same instant, and both after the arrival.
        let at = SimTime::from_secs_f64(1.0);
        let trace = Trace::from_requests(vec![RequestSpec::new(RequestId(0), at, 64, 10, 0)]);
        let mut clock = Clock::new(&trace, TelemetryHandle::off());
        let (high, low) = (clock.shard_queue(70_000), clock.shard_queue(0));
        high.schedule(at, Event::IterationDone { instance: 1 });
        low.schedule(at, Event::IterationDone { instance: 2 });
        high.schedule(at, Event::IterationDone { instance: 3 });
        let order: Vec<(Option<u32>, u32)> = std::iter::from_fn(|| clock.next())
            .map(|next| match next {
                Next::Arrival { idx, .. } => (None, idx as u32),
                Next::Event {
                    shard,
                    ev: Event::IterationDone { instance },
                    ..
                } => (Some(shard), instance),
                Next::Event { .. } => unreachable!("only iteration ends were scheduled"),
            })
            .collect();
        assert_eq!(
            order,
            vec![
                (None, 0),
                (Some(0), 2),
                (Some(70_000), 1),
                (Some(70_000), 3)
            ]
        );
        assert_eq!(clock.peak_pending(), 3);
    }
}
