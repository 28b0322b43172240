//! Generic discrete-event queue.
//!
//! [`EventQueue`] is a monotonic priority queue of `(time, payload)` pairs.
//! Every event gets a sequence number when it is scheduled, and events pop
//! in `(time, seq)` order: ties on time are broken by insertion order
//! (FIFO), so simulations that schedule the same events in the same order
//! always execute them in the same order — a hard requirement for
//! reproducibility. A caller merging several sources stamps the seq itself
//! ([`EventQueue::schedule_keyed`]) and still gets this `(time, seq)` order.
//!
//! Besides the binary heap, the queue has FIFO *lanes* (the rustasim
//! idea of one ring per source, with a heap that keeps only what is out
//! of order). A caller with a stream whose times never go backwards —
//! packets leaving one link, ACKs on a fixed-delay channel — schedules it
//! with [`EventQueue::schedule_on`], and the event is appended to that
//! lane in O(1) instead of sifting through the heap. An event earlier
//! than its lane's tail falls back to the heap, so any schedule at or
//! after the clock is accepted. `pop` compares the heap top with the
//! cached `(time, seq)` of every lane head, so the pop order is exactly
//! the one a single heap would give: lanes change the cost, never the
//! order.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// An event that has been scheduled on an [`EventQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Monotonic sequence number used for FIFO tie-breaking.
    pub seq: u64,
    /// The caller-defined payload.
    pub payload: E,
}

/// The pop-order key of an event.
type Key = (SimTime, u64);

/// Key of an empty lane or heap: later than any scheduled event, whose
/// `seq` is always below `u64::MAX`.
const NONE: Key = (SimTime::MAX, u64::MAX);

/// Internal heap and lane entry; `BinaryHeap` is a max-heap so ordering
/// is reversed.
struct HeapEntry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> HeapEntry<E> {
    fn key(&self) -> Key {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: the heap's "largest" element is the earliest event.
        other.key().cmp(&self.key())
    }
}

/// A deterministic discrete-event queue.
///
/// The queue tracks the current virtual time: popping an event advances the
/// clock to that event's timestamp. Scheduling an event in the past is a
/// logic error and panics.
pub struct EventQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    lanes: Vec<VecDeque<HeapEntry<E>>>,
    /// Key of each lane's front entry, [`NONE`] when the lane is empty;
    /// `pop` scans this array rather than the lanes themselves.
    heads: Vec<Key>,
    now: SimTime,
    next_seq: u64,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at zero and no lanes.
    pub fn new() -> Self {
        Self::with_lanes(0)
    }

    /// Creates an empty queue with `lanes` FIFO lanes, numbered
    /// `0..lanes`, for [`EventQueue::schedule_on`].
    pub fn with_lanes(lanes: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lanes: (0..lanes).map(|_| VecDeque::new()).collect(),
            heads: vec![NONE; lanes],
            now: SimTime::ZERO,
            next_seq: 0,
            popped: 0,
        }
    }

    /// Current virtual time (timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting in the queue.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events executed (popped) so far.
    pub fn executed(&self) -> u64 {
        self.popped
    }

    /// Total number of events scheduled so far (executed or pending).
    pub fn scheduled(&self) -> u64 {
        self.popped + self.len() as u64
    }

    /// Panics if `at` is before the clock.
    fn check(&self, at: SimTime) {
        assert!(
            at >= self.now,
            "scheduling into the past: {at} < now {}",
            self.now
        );
    }

    /// Checks `at` against the clock and assigns the next sequence number.
    fn stamp(&mut self, at: SimTime) -> u64 {
        self.check(at);
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// Returns the sequence number assigned to the event.
    ///
    /// # Panics
    ///
    /// If `at` is before [`EventQueue::now`].
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> u64 {
        let seq = self.stamp(at);
        self.heap.push(HeapEntry { at, seq, payload });
        seq
    }

    /// Schedules `payload` at absolute time `at` under a `seq` stamped by
    /// the caller, below `u64::MAX` and clear of the seqs the queue
    /// stamps (the shard engine keys `origin << 40 | local seq`).
    ///
    /// # Panics
    ///
    /// If `at` is before [`EventQueue::now`] or `seq` is `u64::MAX`.
    pub fn schedule_keyed(&mut self, at: SimTime, seq: u64, payload: E) {
        assert!(seq < u64::MAX, "u64::MAX is the empty-queue key");
        self.check(at);
        self.heap.push(HeapEntry { at, seq, payload });
    }

    /// Schedules `payload` at absolute time `at` on FIFO lane `lane`.
    ///
    /// The event is appended to the lane when `at` is at or after the
    /// lane's last event, and goes to the heap otherwise; either way it
    /// pops in the same `(time, seq)` order as with
    /// [`EventQueue::schedule_at`]. Returns the sequence number assigned
    /// to the event.
    ///
    /// # Panics
    ///
    /// If `at` is before [`EventQueue::now`], or `lane` is not below the
    /// count given to [`EventQueue::with_lanes`].
    pub fn schedule_on(&mut self, lane: usize, at: SimTime, payload: E) -> u64 {
        let seq = self.stamp(at);
        let entry = HeapEntry { at, seq, payload };
        let fifo = &mut self.lanes[lane];
        match fifo.back() {
            Some(tail) if at < tail.at => self.heap.push(entry),
            Some(_) => fifo.push_back(entry),
            None => {
                self.heads[lane] = (at, seq);
                fifo.push_back(entry);
            }
        }
        seq
    }

    /// The earliest pending event's key and where it waits: `None` for
    /// the heap, `Some(lane)` for a lane.
    fn next_source(&self) -> Option<(Key, Option<usize>)> {
        let mut best = self.heap.peek().map_or(NONE, HeapEntry::key);
        let mut source = None;
        for (lane, &key) in self.heads.iter().enumerate() {
            if key < best {
                best = key;
                source = Some(lane);
            }
        }
        (best != NONE).then_some((best, source))
    }

    /// Removes the front event of `source` and advances the clock to it.
    fn take(&mut self, source: Option<usize>) -> Option<ScheduledEvent<E>> {
        let entry = match source {
            None => self.heap.pop()?,
            Some(lane) => {
                let fifo = &mut self.lanes[lane];
                let entry = fifo.pop_front()?;
                self.heads[lane] = fifo.front().map_or(NONE, HeapEntry::key);
                entry
            }
        };
        assert!(entry.at >= self.now, "event queue time went backwards");
        self.now = entry.at;
        self.popped += 1;
        Some(ScheduledEvent {
            at: entry.at,
            seq: entry.seq,
            payload: entry.payload,
        })
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.next_source().map(|((at, _), _)| at)
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let (_, source) = self.next_source()?;
        self.take(source)
    }

    /// Pops the earliest event only if it fires at or before `deadline`.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<ScheduledEvent<E>> {
        match self.next_source()? {
            ((at, _), source) if at <= deadline => self.take(source),
            _ => None,
        }
    }

    /// Forces the clock forward to `at` (no-op if `at` is in the past).
    /// Useful for draining idle periods.
    pub fn advance_to(&mut self, at: SimTime) {
        if at > self.now {
            self.now = at;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(30), "c");
        q.schedule_at(SimTime::from_millis(10), "a");
        q.schedule_at(SimTime::from_millis(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime::from_millis(30));
        assert_eq!(q.executed(), 3);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        let expect: Vec<_> = (0..100).collect();
        assert_eq!(order, expect);
    }

    #[test]
    fn lanes_and_heap_interleave_in_time_then_seq_order() {
        let mut q = EventQueue::with_lanes(2);
        let ms = SimTime::from_millis;
        q.schedule_on(0, ms(10), "lane0@10");
        q.schedule_at(ms(10), "heap@10");
        q.schedule_on(1, ms(5), "lane1@5");
        q.schedule_on(0, ms(20), "lane0@20");
        // Earlier than lane 0's tail: falls back to the heap.
        q.schedule_on(0, ms(15), "lane0@15");
        q.schedule_on(1, ms(10), "lane1@10");
        assert_eq!(q.len(), 6);
        assert_eq!(q.peek_time(), Some(ms(5)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(
            order,
            ["lane1@5", "lane0@10", "heap@10", "lane1@10", "lane0@15", "lane0@20"]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(10), 1);
        q.schedule_at(SimTime::from_millis(20), 2);
        assert_eq!(q.pop_until(SimTime::from_millis(15)).unwrap().payload, 1);
        assert!(q.pop_until(SimTime::from_millis(15)).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn advance_to_never_goes_backwards() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.advance_to(SimTime::from_millis(50));
        q.advance_to(SimTime::from_millis(10));
        assert_eq!(q.now(), SimTime::from_millis(50));
    }

    /// A one-lane queue whose clock stands at 10 ms.
    fn at_ten_ms() -> EventQueue<u32> {
        let mut q = EventQueue::with_lanes(1);
        q.schedule_at(SimTime::from_millis(10), 0);
        q.pop();
        q
    }

    #[test]
    #[should_panic(expected = "scheduling into the past: 0.003000s < now 0.010000s")]
    fn schedule_at_in_the_past_panics() {
        at_ten_ms().schedule_at(SimTime::from_millis(3), 1);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn schedule_on_in_the_past_panics() {
        at_ten_ms().schedule_on(0, SimTime::from_millis(4), 2);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn schedule_keyed_in_the_past_panics() {
        at_ten_ms().schedule_keyed(SimTime::from_millis(5), 1 << 40, 3);
    }
}
