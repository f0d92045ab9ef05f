//! The reference `BinaryHeap` future-event list.
//!
//! [`HeapEventQueue`] is the pre-calendar-queue implementation of the
//! [`EventQueue`](super::EventQueue) contract, kept as the **executable
//! specification** of the `(time, sequence)` total order and the
//! cancellation semantics. It exists for two consumers:
//!
//! * the property test proving the calendar queue pops in exactly the same
//!   order on arbitrary interleaved schedule/cancel/pop sequences, and
//! * the queue-op microbenchmarks comparing old-vs-new cost at matched
//!   pending-event populations.
//!
//! It is intentionally the simple, obviously-correct version: a max-heap on
//! reversed `(time, seq)` plus live/cancelled id sets. Do not optimise it —
//! its value is being trivially auditable.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

use crate::time::SimTime;

/// Identifier of an event scheduled on a [`HeapEventQueue`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct HeapEventId(u64);

/// Heap entry: ordered by `(time, seq)` ascending.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse to get earliest-first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// The reference future-event list: `BinaryHeap` + id `HashSet`s.
///
/// Same observable API and semantics as
/// [`EventQueue`](super::EventQueue); see the module docs for why it is
/// kept around.
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<Entry<(HeapEventId, E)>>,
    /// Ids scheduled but neither fired nor cancelled yet.
    live: HashSet<HeapEventId>,
    cancelled: HashSet<HeapEventId>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for HeapEventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapEventQueue")
            .field("now", &self.now)
            .field("pending", &self.len())
            .finish()
    }
}

impl<E> HeapEventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            live: HashSet::new(),
            cancelled: HashSet::new(),
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

    /// Schedules `payload` to fire at `time` and returns a cancellation handle.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than [`Self::now`].
    pub fn schedule(&mut self, time: SimTime, payload: E) -> HeapEventId {
        assert!(
            time >= self.now,
            "cannot schedule an event at {time:?} before current time {:?}",
            self.now
        );
        let id = HeapEventId(self.next_seq);
        self.heap.push(Entry {
            time,
            seq: self.next_seq,
            payload: (id, payload),
        });
        self.live.insert(id);
        self.next_seq += 1;
        id
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event had not yet fired or been cancelled.
    pub fn cancel(&mut self, id: HeapEventId) -> bool {
        if self.live.remove(&id) {
            self.cancelled.insert(id);
            true
        } else {
            false
        }
    }

    /// Pops the earliest pending event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            let (id, payload) = entry.payload;
            if self.cancelled.remove(&id) {
                continue;
            }
            self.live.remove(&id);
            debug_assert!(entry.time >= self.now, "event queue went back in time");
            self.now = entry.time;
            return Some((entry.time, payload));
        }
        None
    }

    /// The timestamp of the next pending (non-cancelled) event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(entry) = self.heap.peek() {
            let (id, _) = entry.payload;
            if self.cancelled.contains(&id) {
                let entry = self.heap.pop().expect("peeked entry exists");
                self.cancelled.remove(&entry.payload.0);
                continue;
            }
            return Some(entry.time);
        }
        None
    }

    /// Number of pending events; cancelled entries are not counted.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len() - self.cancelled.len()
    }

    /// Whether no live events remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
