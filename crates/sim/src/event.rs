//! A deterministic future-event list.
//!
//! [`EventQueue`] is a priority queue of `(time, shard, payload)` entries.
//! The *shard* names the scheduling domain that owns an event; a
//! simulation with one domain passes `0` everywhere.
//!
//! # Ordering contract
//!
//! Every schedule is stamped with a monotonically increasing **sequence
//! number**, and pops follow the strict total order **`(time, shard,
//! sequence)` ascending**. Consequences callers may rely on:
//!
//! * at one timestamp, the lowest shard's events pop first, whatever
//!   order they were scheduled in;
//! * one shard's events at one timestamp pop in schedule order (FIFO),
//!   even when scheduling interleaves with popping;
//! * the order is a *total* order: two distinct events never compare
//!   equal, so a simulation's event trace is a pure function of its
//!   schedule calls.
//!
//! The sharded engine keeps one queue per run and stamps each event with
//! its global shard id, so this order *is* the engine's cross-shard
//! tie-break: lowest shard id, then schedule order within the shard. The
//! shard is a full `u32` in the key, so no two shards can ever share a
//! tie-break slot.
//!
//! # Implementation
//!
//! A [`BinaryHeap`] keyed on `(time, shard, sequence)`. The engine keeps
//! few events pending — one iteration end per busy instance plus the
//! transfers in flight — and at those depths a heap over one contiguous
//! array costs a handful of comparisons per operation, with no buckets
//! to allocate, walk or resize. Events are never withdrawn once
//! scheduled: one that turns out to be moot is a no-op when it fires.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A pending event; `(time, shard, seq)` is its position in the total
/// order.
struct Entry<E> {
    time: SimTime,
    shard: u32,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (SimTime, u32, u64) {
        (self.time, self.shard, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    /// Reversed, so the max-heap's top is the earliest key.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// The future-event list of a discrete-event simulation.
///
/// # Examples
///
/// ```
/// use pascal_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_nanos(20), 0, "late");
/// q.schedule(SimTime::from_nanos(10), 1, "early, shard 1");
/// q.schedule(SimTime::from_nanos(10), 0, "early, shard 0");
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), 0, "early, shard 0")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), 1, "early, shard 1")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(20), 0, "late")));
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
    /// The largest number of events ever pending at once.
    peak: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len())
            .field("peak", &self.peak)
            .finish()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            peak: 0,
        }
    }

    /// The current virtual time: the timestamp of the most recently popped
    /// event (or zero before any pop).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload`, owned by `shard`, to fire at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than [`Self::now`]: scheduling in the
    /// past is a logic error.
    pub fn schedule(&mut self, time: SimTime, shard: u32, payload: E) {
        assert!(
            time >= self.now,
            "cannot schedule an event at {time:?} before current time {:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time,
            shard,
            seq,
            payload,
        });
        self.peak = self.peak.max(self.heap.len());
    }

    /// Pops the earliest pending event as `(time, shard, payload)`,
    /// advancing the clock to its timestamp. Returns `None` when the queue
    /// is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, u32, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.time >= self.now, "event queue went back in time");
        self.now = entry.time;
        Some((entry.time, entry.shard, entry.payload))
    }

    /// The timestamp of the next pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The largest number of events that were ever pending at once.
    #[must_use]
    pub fn peak_len(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Drains `q` into `(time ns, shard, payload)` triples.
    fn drain<E>(q: &mut EventQueue<E>) -> Vec<(u64, u32, E)> {
        std::iter::from_fn(|| q.pop().map(|(t, s, e)| (t.as_nanos(), s, e))).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), 0, 3u32);
        q.schedule(SimTime::from_nanos(10), 0, 1);
        q.schedule(SimTime::from_nanos(20), 0, 2);
        let order: Vec<u32> = drain(&mut q).into_iter().map(|(_, _, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100u32 {
            q.schedule(t, 0, i);
        }
        let order: Vec<u32> = drain(&mut q).into_iter().map(|(_, _, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn ties_pop_lowest_shard_first_then_in_schedule_order() {
        // Shard ids above 16 bits must keep their own slot in the key: a
        // narrower shard field would fold 65,536 onto 0 and 65,537 onto 1.
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(7);
        for (shard, tag) in [
            (65_537, "b1"),
            (1, "a1"),
            (0, "first"),
            (65_536, "b0"),
            (1, "a2"),
            (u32::MAX, "last"),
            (0, "second"),
        ] {
            q.schedule(t, shard, tag);
        }
        let got: Vec<(u32, &str)> = drain(&mut q).into_iter().map(|(_, s, e)| (s, e)).collect();
        assert_eq!(
            got,
            vec![
                (0, "first"),
                (0, "second"),
                (1, "a1"),
                (1, "a2"),
                (65_536, "b0"),
                (65_537, "b1"),
                (u32::MAX, "last"),
            ]
        );
    }

    #[test]
    fn time_sequence_order_holds_when_scheduling_interleaves_with_popping() {
        // The (time, sequence) contract is not just about batch inserts:
        // an event scheduled *between* pops at an already-populated
        // timestamp still sorts after everything previously scheduled
        // there — its sequence number is larger — and before anything
        // scheduled later. This is the exact property the engine's
        // same-timestamp handler chains (offload completes → reload
        // scheduled at the same instant) rely on.
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(10);
        q.schedule(t, 0, "first");
        q.schedule(t, 0, "second");
        assert_eq!(q.pop().map(|(_, _, e)| e), Some("first"));
        // Scheduled mid-drain at the same (current) timestamp: runs after
        // "second", because its sequence number is higher.
        q.schedule(t, 0, "third");
        q.schedule(SimTime::from_nanos(11), 0, "later-time");
        assert_eq!(q.pop().map(|(_, _, e)| e), Some("second"));
        assert_eq!(q.pop().map(|(_, _, e)| e), Some("third"));
        assert_eq!(q.pop().map(|(_, _, e)| e), Some("later-time"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(7), 0, ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(7));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), 0, ());
        q.pop();
        q.schedule(SimTime::from_nanos(5), 0, ());
    }

    #[test]
    fn event_at_max_time_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::MAX, 0, "end");
        assert_eq!(q.peek_time(), Some(SimTime::MAX));
        assert_eq!(q.pop(), Some((SimTime::MAX, 0, "end")));
        assert!(q.pop().is_none());

        // Saturated arrivals pile up at MAX behind earlier events: they
        // pop after them, in insertion order, and scheduling more at MAX
        // once the clock is there still works.
        let mut q = EventQueue::new();
        q.schedule(SimTime::MAX, 0, 1u32);
        q.schedule(SimTime::from_nanos(5), 0, 0);
        q.schedule(SimTime::MAX, 0, 2);
        let order: Vec<u32> = drain(&mut q).into_iter().map(|(_, _, e)| e).collect();
        assert_eq!(order, vec![0, 1, 2]);
        q.schedule(SimTime::MAX, 0, 3);
        assert_eq!(q.pop(), Some((SimTime::MAX, 0, 3)));
    }

    #[test]
    fn spread_far_beyond_initial_calendar_pops_in_order() {
        // Times spanning tens of seconds, scheduled out of order.
        let mut q = EventQueue::new();
        let times: Vec<u64> = (0..500u64)
            .map(|i| (i * 7_919_998_483) % 30_000_000_000)
            .collect();
        for (i, t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(*t), 0, i);
        }
        let mut expected: Vec<(u64, u32, usize)> =
            times.iter().enumerate().map(|(i, t)| (*t, 0, i)).collect();
        expected.sort();
        assert_eq!(drain(&mut q), expected);
    }

    #[test]
    fn peak_len_is_the_high_water_mark() {
        let mut q = EventQueue::new();
        assert_eq!(q.peak_len(), 0);
        for i in 0..3u64 {
            q.schedule(SimTime::from_nanos(i), 0, ());
        }
        q.pop();
        q.pop();
        q.schedule(SimTime::from_nanos(9), 0, ());
        assert_eq!((q.len(), q.peak_len()), (2, 3));
    }

    proptest! {
        /// Whatever the insertion order, pops are sorted by time and FIFO
        /// within equal timestamps.
        #[test]
        fn prop_pop_order_is_stable_sort(times in proptest::collection::vec(0u64..50, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(SimTime::from_nanos(*t), 0, i);
            }
            let mut expected: Vec<(u64, u32, usize)> =
                times.iter().enumerate().map(|(i, t)| (*t, 0, i)).collect();
            expected.sort(); // stable by (time, insertion index)
            prop_assert_eq!(drain(&mut q), expected);
        }

        /// The queue against its executable specification: a `Vec` kept
        /// sorted by `(time, shard, insertion index)`, driven through
        /// arbitrary interleavings of schedule, pop and peek. Pop results,
        /// peek times, clocks, lengths and the peak must all agree.
        ///
        /// Each op is an `(opcode, (delay, shard))` pair: opcodes below 50
        /// schedule at `now + delay` (scaled to seconds for 40..=49; opcode
        /// 0 at [`SimTime::MAX`] instead, where saturated times land),
        /// 50..=84 pop, the rest peek. Small delays and few shards make
        /// exact ties common; shard ids run past 65,536 so a field
        /// narrower than 32 bits would be caught.
        #[test]
        fn prop_queue_matches_sorted_model(
            ops in proptest::collection::vec((0u32..100, (0u64..4, 0u32..6)), 1..400)
        ) {
            let mut q = EventQueue::new();
            let mut model: Vec<(SimTime, u32, usize)> = Vec::new();
            let mut now = SimTime::ZERO;
            let mut peak = 0usize;
            for (n, (opcode, (delay, shard_pick))) in ops.into_iter().enumerate() {
                let shard = [0, 1, 2, 65_535, 65_536, u32::MAX][shard_pick as usize];
                match opcode {
                    0..=49 => {
                        let delay_ns = if opcode >= 40 { delay * 1_000_000_007 } else { delay };
                        let t = if opcode == 0 {
                            SimTime::MAX
                        } else {
                            now + crate::time::SimDuration::from_nanos(delay_ns)
                        };
                        q.schedule(t, shard, n);
                        // Insertion index n is larger than every pending
                        // one, so the upper bound keeps equal keys FIFO.
                        let at = model.partition_point(|&(mt, ms, _)| (mt, ms) <= (t, shard));
                        model.insert(at, (t, shard, n));
                        peak = peak.max(model.len());
                    }
                    50..=84 => {
                        let expected = (!model.is_empty()).then(|| model.remove(0));
                        if let Some((t, _, _)) = expected {
                            now = t;
                        }
                        prop_assert_eq!(q.pop(), expected);
                        prop_assert_eq!(q.now(), now);
                    }
                    _ => prop_assert_eq!(q.peek_time(), model.first().map(|e| e.0)),
                }
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.peak_len(), peak);
            }
            // Drain both to the end: full pop orders must coincide.
            prop_assert_eq!(
                std::iter::from_fn(|| q.pop()).collect::<Vec<_>>(),
                model
            );
        }
    }
}
