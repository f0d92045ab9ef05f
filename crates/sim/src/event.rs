//! A deterministic future-event list.
//!
//! [`EventQueue`] is a priority queue of `(time, payload)` pairs. Scheduled
//! events can be cancelled by the [`EventId`] returned at insertion time.
//!
//! # Ordering contract
//!
//! Every schedule is stamped with a monotonically increasing **sequence
//! number**, and pops follow the strict total order **`(time, sequence)`
//! ascending** — never the queue's internal layout. Consequences callers may
//! rely on:
//!
//! * events that share a timestamp pop in insertion order (FIFO), even
//!   when scheduling interleaves with popping;
//! * the order is a *total* order: two distinct events never compare equal,
//!   so a simulation's event trace is a pure function of its schedule
//!   calls.
//!
//! This contract is what the sharded engine's interleaving discipline rests
//! on: each shard's queue replays identically in isolation, and the
//! cluster's cross-shard tie-break (arrivals first, then lowest shard id)
//! composes with `(time, sequence)` into a total order over the whole
//! cluster — which is why a one-shard cluster is byte-identical to the
//! pre-sharding engine and an N-shard run is reproducible.
//!
//! # Implementation
//!
//! The queue is a **calendar queue** (Brown 1988) rather than a binary
//! heap. Time is divided into width-`2^shift`-nanosecond *days* (buckets);
//! `nbuckets` days make a *year*. An event is filed into bucket
//! `(t >> shift) & (nbuckets - 1)` — its day, whatever its year — so
//! scheduling is a shift-and-mask plus a `Vec::push`.
//!
//! Popping walks the calendar: the cursor bucket's entries that fall inside
//! the current day are extracted, sorted once, and drained from the back as
//! a *ready run* — so bursts of same-timestamp events are batch-sorted and
//! then popped at `Vec::pop` cost, and new events scheduled inside the
//! already-open day merge into the run by binary insertion. The calendar
//! re-sizes around the surviving population (bucket count tracks the
//! number of pending events, day width tracks their span) on two
//! triggers: when a whole year passes without an eligible event (the
//! queue thinned out or its times jumped ahead), and — Brown's occupancy
//! rule — when the live population outgrows the bucket count 2:1, so a
//! dense queue cannot degenerate into a few giant buckets.
//!
//! Cancellation is O(1) without hashing: every pending event owns a slot in
//! a generation-stamped slot table and [`EventId`] packs `(slot, generation)`.
//! Cancelled entries become tombstones that are *compacted*, not carried for
//! the run's lifetime: they are purged when their bucket is opened, when
//! they surface at the back of the ready run, and wholesale whenever
//! tombstones outnumber live events — so memory tracks the live population,
//! not the cancellation history.
//!
//! Times saturate at [`SimTime::MAX`], so the last day of the `u64` range
//! has no representable end: it runs through `u64::MAX` inclusive, and an
//! event scheduled there pops like any other.

use crate::time::SimTime;

pub mod reference;

/// Identifier of a scheduled event, used for cancellation.
///
/// Packs the event's slot index and the slot's generation at allocation
/// time, so a handle to an event that has fired (or been cancelled and
/// reaped) can never alias a later event that reuses the slot.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(u64);

impl EventId {
    fn new(slot: u32, generation: u32) -> Self {
        EventId((u64::from(generation) << 32) | u64::from(slot))
    }

    fn slot(self) -> u32 {
        self.0 as u32
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// A pending event: the `(time, seq)` pair is its position in the total
/// order, `slot` points at its cancellation slot.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    slot: u32,
    payload: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Free,
    Live,
    Cancelled,
}

/// Cancellation slot: `generation` advances every time the slot is reaped,
/// invalidating any [`EventId`] minted for a prior occupant.
#[derive(Clone, Copy)]
struct Slot {
    generation: u32,
    state: SlotState,
}

/// Initial day width: `2^20` ns ≈ 1 ms.
const INITIAL_SHIFT: u32 = 20;
/// Initial calendar size; re-sized to track the live population.
const INITIAL_BUCKETS: usize = 16;
/// Calendar size ceiling — beyond this, wider days are used instead.
const MAX_BUCKETS: usize = 1 << 16;
/// Compaction slack: a wholesale tombstone sweep runs only once tombstones
/// exceed `live + COMPACT_SLACK`, so small queues never churn.
const COMPACT_SLACK: usize = 32;

/// The future-event list of a discrete-event simulation.
///
/// # Examples
///
/// ```
/// use pascal_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_nanos(20), "late");
/// q.schedule(SimTime::from_nanos(10), "early");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t.as_nanos(), e), (10, "early"));
/// ```
pub struct EventQueue<E> {
    /// The open day's batch: entries with `time < day_start`, sorted
    /// **descending** by `(time, seq)` and popped from the back.
    ready: Vec<Entry<E>>,
    /// The calendar: bucket `(t >> shift) & (buckets.len() - 1)` holds every
    /// pending entry whose day is congruent to it, whatever the year.
    buckets: Vec<Vec<Entry<E>>>,
    /// log2 of the day width in nanoseconds.
    shift: u32,
    /// Exclusive upper bound of the open day, a multiple of the day width
    /// (`u64::MAX` once the last day of the range is open). No pending
    /// bucket entry is earlier; entries below it live in `ready`.
    day_start: u64,
    /// Cancellation slots, indexed by `EventId::slot`.
    slots: Vec<Slot>,
    free_slots: Vec<u32>,
    /// Entries still physically present whose slot has been cancelled.
    tombstones: usize,
    /// Pending (scheduled, not fired, not cancelled) events.
    live: usize,
    next_seq: u64,
    now: SimTime,
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
            .finish()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            ready: Vec::new(),
            buckets: (0..INITIAL_BUCKETS).map(|_| Vec::new()).collect(),
            shift: INITIAL_SHIFT,
            day_start: 0,
            slots: Vec::new(),
            free_slots: Vec::new(),
            tombstones: 0,
            live: 0,
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current virtual time: the timestamp of the most recently popped
    /// event (or zero before any pop).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    fn width(&self) -> u64 {
        1u64 << self.shift
    }

    fn alloc_slot(&mut self) -> (u32, u32) {
        if let Some(slot) = self.free_slots.pop() {
            let s = &mut self.slots[slot as usize];
            s.state = SlotState::Live;
            (slot, s.generation)
        } else {
            let slot = self.slots.len() as u32;
            self.slots.push(Slot {
                generation: 0,
                state: SlotState::Live,
            });
            (slot, 0)
        }
    }

    /// Reaps a slot after its entry is physically gone (fired or purged),
    /// bumping the generation so stale [`EventId`]s cannot alias the next
    /// occupant.
    fn reap_slot(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.state = SlotState::Free;
        s.generation = s.generation.wrapping_add(1);
        self.free_slots.push(slot);
    }

    fn slot_cancelled(&self, slot: u32) -> bool {
        self.slots[slot as usize].state == SlotState::Cancelled
    }

    /// Schedules `payload` to fire at `time` and returns a cancellation handle.
    ///
    /// Scheduling in the past is a logic error.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than [`Self::now`].
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventId {
        assert!(
            time >= self.now,
            "cannot schedule an event at {time:?} before current time {:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let (slot, generation) = self.alloc_slot();
        self.live += 1;
        let entry = Entry {
            time,
            seq,
            slot,
            payload,
        };
        let t = time.as_nanos();
        if t < self.day_start {
            // Inside the already-open day: merge into the sorted ready run.
            // `seq` is larger than every pending event's, so among equal
            // timestamps the new entry lands closest to the front (fires
            // last) — FIFO holds.
            let key = (time, seq);
            let at = self.ready.partition_point(|e| e.key() > key);
            self.ready.insert(at, entry);
        } else {
            let mask = self.buckets.len() - 1;
            let idx = ((t >> self.shift) as usize) & mask;
            self.buckets[idx].push(entry);
            self.maybe_grow();
        }
        EventId::new(slot, generation)
    }

    /// Brown-style occupancy trigger: grows the calendar once the live
    /// population outnumbers the buckets 2:1. The empty-year rebuild in
    /// `refill_ready` only fires when the queue *thins out*; a dense queue
    /// that keeps every day occupied would otherwise stay on its current
    /// calendar forever, degenerate into a few giant buckets, and pay an
    /// O(population) ready-run insert on every same-day schedule. Runs only
    /// while the ready run is drained — the state `rebuild` expects — and
    /// amortizes to O(1) per schedule by the usual doubling argument.
    fn maybe_grow(&mut self) {
        if self.ready.is_empty()
            && self.live > 2 * self.buckets.len()
            && self.buckets.len() < MAX_BUCKETS
        {
            self.rebuild();
        }
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event had not yet fired or been cancelled.
    /// Cancelling an already-fired event is a no-op that returns `false`.
    /// The entry becomes a tombstone that is compacted away — by bucket
    /// drain, ready-run skip, or a wholesale sweep once tombstones
    /// outnumber live events — instead of living until its timestamp.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let slot = id.slot() as usize;
        match self.slots.get_mut(slot) {
            Some(s) if s.generation == id.generation() && s.state == SlotState::Live => {
                s.state = SlotState::Cancelled;
                self.live -= 1;
                self.tombstones += 1;
                if self.tombstones > self.live + COMPACT_SLACK {
                    self.compact();
                }
                true
            }
            _ => false,
        }
    }

    /// Purges every tombstone from every structure, reaping their slots.
    /// Runs only when tombstones outnumber live events, so its cost
    /// amortizes to O(1) per cancellation.
    fn compact(&mut self) {
        let mut reaped: Vec<u32> = Vec::with_capacity(self.tombstones);
        let slots = &self.slots;
        let keep = |e: &Entry<E>, reaped: &mut Vec<u32>| {
            if slots[e.slot as usize].state == SlotState::Cancelled {
                reaped.push(e.slot);
                false
            } else {
                true
            }
        };
        self.ready.retain(|e| keep(e, &mut reaped));
        for bucket in &mut self.buckets {
            bucket.retain(|e| keep(e, &mut reaped));
        }
        self.tombstones -= reaped.len();
        for slot in reaped {
            self.reap_slot(slot);
        }
        debug_assert_eq!(self.tombstones, 0, "compaction must purge every tombstone");
    }

    /// Drops tombstones from the back of the ready run so its last entry,
    /// if any, is live.
    fn skim_ready(&mut self) {
        while let Some(e) = self.ready.last() {
            if self.slot_cancelled(e.slot) {
                let slot = e.slot;
                self.ready.pop();
                self.tombstones -= 1;
                self.reap_slot(slot);
            } else {
                return;
            }
        }
    }

    /// Refills the ready run by walking the calendar (re-sizing it and
    /// jumping to the earliest event's day if a whole year passes without
    /// an eligible event). Returns `false` iff no live event remains.
    /// On return `true`, the back of `ready` is a live entry.
    fn refill_ready(&mut self) -> bool {
        loop {
            self.skim_ready();
            if !self.ready.is_empty() {
                return true;
            }
            if self.live == 0 {
                return false;
            }
            let mask = self.buckets.len() - 1;
            let mut days = 0;
            let year = self.buckets.len();
            while days < year {
                let idx = ((self.day_start >> self.shift) as usize) & mask;
                // `None` on the last day of the `u64` range, which runs
                // through `u64::MAX` inclusive (see the module docs).
                let day_end = self.day_start.checked_add(self.width());
                if !self.buckets[idx].is_empty() {
                    // Open the day: extract entries inside it (residents of
                    // later years with the same day index stay behind) and
                    // purge tombstones while the bucket is hot.
                    let mut batch = std::mem::take(&mut self.buckets[idx]);
                    let mut kept = Vec::new();
                    for entry in batch.drain(..) {
                        if self.slots[entry.slot as usize].state == SlotState::Cancelled {
                            self.tombstones -= 1;
                            self.reap_slot(entry.slot);
                        } else if day_end.is_none_or(|end| entry.time.as_nanos() < end) {
                            self.ready.push(entry);
                        } else {
                            kept.push(entry);
                        }
                    }
                    self.buckets[idx] = kept;
                }
                self.day_start = day_end.unwrap_or(u64::MAX);
                days += 1;
                if !self.ready.is_empty() {
                    // One sort per day, then the whole batch drains at
                    // Vec::pop cost — same-timestamp bursts pop
                    // back-to-back without touching the calendar again.
                    self.ready
                        .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
                    return true;
                }
            }
            // A whole year without an eligible event: re-size the calendar
            // around the survivors and jump to the earliest day.
            self.rebuild();
        }
    }

    /// Re-sizes the calendar around the pending population: bucket count
    /// tracks the number of events, day width their span, and the cursor
    /// jumps to the earliest event's day. Also purges every tombstone.
    fn rebuild(&mut self) {
        let mut all: Vec<Entry<E>> = Vec::with_capacity(self.live);
        let mut reaped: Vec<u32> = Vec::new();
        for bucket in &mut self.buckets {
            for entry in bucket.drain(..) {
                if self.slots[entry.slot as usize].state == SlotState::Cancelled {
                    reaped.push(entry.slot);
                } else {
                    all.push(entry);
                }
            }
        }
        self.tombstones -= reaped.len();
        for slot in reaped {
            self.reap_slot(slot);
        }
        debug_assert_eq!(all.len(), self.live, "ready is empty during rebuild");
        if all.is_empty() {
            return;
        }
        let mut min_t = u64::MAX;
        let mut max_t = 0u64;
        for e in &all {
            let t = e.time.as_nanos();
            min_t = min_t.min(t);
            max_t = max_t.max(t);
        }
        let target = all
            .len()
            .clamp(INITIAL_BUCKETS, MAX_BUCKETS)
            .next_power_of_two();
        // Smallest day width such that the whole span fits inside one year,
        // so the very next walk is guaranteed to open a non-empty day.
        let span = max_t - min_t;
        let mut shift = 0u32;
        while shift < 63 && (span >> shift) >= target as u64 {
            shift += 1;
        }
        self.shift = shift;
        self.day_start = min_t & !(self.width() - 1);
        if self.buckets.len() != target {
            self.buckets = (0..target).map(|_| Vec::new()).collect();
        }
        let mask = target - 1;
        for entry in all {
            let idx = ((entry.time.as_nanos() >> self.shift) as usize) & mask;
            self.buckets[idx].push(entry);
        }
    }

    /// Pops the earliest pending event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when the queue is exhausted. Cancelled events are
    /// silently discarded.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if !self.refill_ready() {
            return None;
        }
        let entry = self.ready.pop().expect("refill_ready guarantees an entry");
        self.reap_slot(entry.slot);
        self.live -= 1;
        debug_assert!(entry.time >= self.now, "event queue went back in time");
        self.now = entry.time;
        Some((entry.time, entry.payload))
    }

    /// The timestamp of the next pending (non-cancelled) event, if any.
    ///
    /// This peeks past cancelled entries without firing anything.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if !self.refill_ready() {
            return None;
        }
        self.ready.last().map(|e| e.time)
    }

    /// Number of pending events; cancelled entries are not counted.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live events remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Physically stored entries (live + not-yet-compacted tombstones).
    /// Exposed so tests can assert tombstone compaction actually bounds
    /// memory; not part of the scheduling contract.
    #[doc(hidden)]
    #[must_use]
    pub fn physical_len(&self) -> usize {
        self.live + self.tombstones
    }
}

#[cfg(test)]
mod tests {
    use super::reference::HeapEventQueue;
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), 3u32);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100u32 {
            q.schedule(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
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
        q.schedule(t, "first");
        q.schedule(t, "second");
        assert_eq!(q.pop().map(|(_, e)| e), Some("first"));
        // Scheduled mid-drain at the same (current) timestamp: runs after
        // "second", because its sequence number is higher.
        q.schedule(t, "third");
        q.schedule(SimTime::from_nanos(11), "later-time");
        assert_eq!(q.pop().map(|(_, e)| e), Some("second"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("third"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("later-time"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(7));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), ());
        q.pop();
        q.schedule(SimTime::from_nanos(5), ());
    }

    #[test]
    fn cancellation_skips_events() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(1), "a");
        q.schedule(SimTime::from_nanos(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double-cancel reports false");
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(1), "a");
        q.pop();
        assert!(!q.cancel(a));
    }

    #[test]
    fn cancel_handle_does_not_alias_slot_reuse() {
        // After an event fires, its slot is recycled for later schedules;
        // the stale handle's generation no longer matches, so cancelling it
        // must not touch the slot's new occupant.
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(1), "a");
        q.pop();
        let _b = q.schedule(SimTime::from_nanos(2), "b");
        assert!(!q.cancel(a), "stale handle must not cancel the new event");
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(1), "a");
        q.schedule(SimTime::from_nanos(9), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(9)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(1), ());
        q.schedule(SimTime::from_nanos(2), ());
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn tombstones_are_compacted_not_accumulated() {
        // Cancel far more events than stay live; physical storage must
        // track the live population instead of the cancellation history.
        let mut q = EventQueue::new();
        let mut live = 0usize;
        for i in 0..10_000u64 {
            let id = q.schedule(SimTime::from_nanos(1_000_000 + i), i);
            if i % 100 == 0 {
                live += 1;
            } else {
                q.cancel(id);
            }
        }
        assert_eq!(q.len(), live);
        // The wholesale sweep fires as soon as tombstones exceed
        // live + COMPACT_SLACK, so that is the invariant bound: storage
        // tracks the ~100 live events, not the ~9900 cancellations.
        assert!(
            q.physical_len() <= 2 * live + COMPACT_SLACK,
            "physical {} must stay near live {}",
            q.physical_len(),
            live
        );
        let mut popped = 0;
        while q.pop().is_some() {
            popped += 1;
        }
        assert_eq!(popped, live);
    }

    #[test]
    fn event_at_max_time_pops() {
        // The last day of the u64 range has no representable end; an event
        // there must still open its day instead of spinning the calendar.
        let mut q = EventQueue::new();
        q.schedule(SimTime::MAX, "end");
        assert_eq!(q.peek_time(), Some(SimTime::MAX));
        assert_eq!(q.pop(), Some((SimTime::MAX, "end")));
        assert!(q.pop().is_none());

        // Saturated arrivals pile up at MAX behind earlier events: they
        // pop after them, in insertion order, and scheduling more at MAX
        // once the clock is there still works.
        let mut q = EventQueue::new();
        q.schedule(SimTime::MAX, 1u32);
        q.schedule(SimTime::from_nanos(5), 0);
        q.schedule(SimTime::MAX, 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2]);
        q.schedule(SimTime::MAX, 3);
        assert_eq!(q.pop(), Some((SimTime::MAX, 3)));
    }

    #[test]
    fn spread_far_beyond_initial_calendar_pops_in_order() {
        // Times spanning tens of seconds force calendar re-sizing (the
        // initial year covers ~16 ms); order must still hold exactly.
        let mut q = EventQueue::new();
        let times: Vec<u64> = (0..500u64)
            .map(|i| (i * 7_919_998_483) % 30_000_000_000)
            .collect();
        for (i, t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(*t), i);
        }
        let mut expected: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, t)| (*t, i)).collect();
        expected.sort();
        let got: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop().map(|(t, i)| (t.as_nanos(), i))).collect();
        assert_eq!(got, expected);
    }

    proptest! {
        /// Whatever the insertion order, pops are sorted by time and FIFO
        /// within equal timestamps.
        #[test]
        fn prop_pop_order_is_stable_sort(times in proptest::collection::vec(0u64..50, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(SimTime::from_nanos(*t), i);
            }
            let mut expected: Vec<(u64, usize)> =
                times.iter().enumerate().map(|(i, t)| (*t, i)).collect();
            expected.sort(); // stable by (time, insertion index)
            let got: Vec<(u64, usize)> =
                std::iter::from_fn(|| q.pop().map(|(t, i)| (t.as_nanos(), i))).collect();
            prop_assert_eq!(got, expected);
        }

        /// Cancelled events never fire.
        #[test]
        fn prop_cancelled_never_fire(
            times in proptest::collection::vec(0u64..50, 1..100),
            cancel_mask in proptest::collection::vec(any::<bool>(), 1..100),
        ) {
            let mut q = EventQueue::new();
            let ids: Vec<_> = times
                .iter()
                .enumerate()
                .map(|(i, t)| q.schedule(SimTime::from_nanos(*t), i))
                .collect();
            let mut cancelled = std::collections::HashSet::new();
            for (i, id) in ids.iter().enumerate() {
                if *cancel_mask.get(i).unwrap_or(&false) {
                    q.cancel(*id);
                    cancelled.insert(i);
                }
            }
            while let Some((_, i)) = q.pop() {
                prop_assert!(!cancelled.contains(&i));
            }
        }

        /// The calendar queue and the reference binary-heap implementation
        /// produce identical observable behaviour — pop results, cancel
        /// return values, peek times, clocks and lengths — on arbitrary
        /// interleavings of schedule/cancel/pop/peek. The reference is the
        /// executable spec of the (time, sequence) contract; this is the
        /// equivalence proof for the calendar queue.
        ///
        /// Each op is an `(opcode, operand)` pair: opcodes below 50
        /// schedule at `now + operand` (operands span sub-day to
        /// beyond-year deltas so ready-run inserts, calendar inserts and
        /// re-sizing jumps all get hit; opcode 0 schedules at
        /// [`SimTime::MAX`] instead, where saturated times land), 50..=69
        /// cancel the `operand % issued`-th handle, 70..=94 pop, the rest
        /// peek.
        #[test]
        fn prop_calendar_queue_matches_reference_heap(
            ops in proptest::collection::vec((0u32..100, 0u64..200_000_000), 1..400)
        ) {
            let mut cal = EventQueue::new();
            let mut heap = HeapEventQueue::new();
            let mut ids = Vec::new();
            for (n, (opcode, operand)) in ops.into_iter().enumerate() {
                match opcode {
                    0..=49 => {
                        let t = if opcode == 0 {
                            SimTime::MAX
                        } else {
                            cal.now() + crate::time::SimDuration::from_nanos(operand)
                        };
                        ids.push((cal.schedule(t, n), heap.schedule(t, n)));
                    }
                    50..=69 => {
                        if !ids.is_empty() {
                            let (a, b) = ids[(operand % ids.len() as u64) as usize];
                            prop_assert_eq!(cal.cancel(a), heap.cancel(b));
                        }
                    }
                    70..=94 => {
                        prop_assert_eq!(cal.pop(), heap.pop());
                        prop_assert_eq!(cal.now(), heap.now());
                    }
                    _ => prop_assert_eq!(cal.peek_time(), heap.peek_time()),
                }
                prop_assert_eq!(cal.len(), heap.len());
            }
            // Drain both to the end: full pop orders must coincide.
            loop {
                let (a, b) = (cal.pop(), heap.pop());
                prop_assert_eq!(&a, &b);
                if b.is_none() {
                    break;
                }
            }
        }
    }
}
