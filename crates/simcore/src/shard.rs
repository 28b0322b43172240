//! Conservative parallel discrete-event sharding (PDES).
//!
//! A simulation is partitioned into **shards** — in the fleet runner,
//! UE clusters plus one wireline router — that advance concurrently
//! under *conservative* synchronization. Any shard may send to any
//! other, and every message takes the engine's one **lookahead** `L`
//! (the one-way latency between shards). A shard may only execute
//! events inside the current **safe window** `[h, h + L - 1 ns]`,
//! where `h` is the earliest pending event. A message sent at time
//! `t ≥ h` arrives at `t + L ≥ h + L`, past the window, so every
//! message is delivered at a barrier *before* any shard enters the
//! window that could observe it — no shard ever receives an event in
//! its past, and no rollback machinery is needed.
//!
//! ## Determinism
//!
//! Every event carries the key `(time, origin shard, origin seq)`,
//! where each shard stamps its local schedules *and* its cross-shard
//! sends from one monotone sequence counter. Each shard waits on an
//! [`EventQueue`], the packet simulator's queue, keyed
//! `origin << 40 | seq` ([`EventQueue::schedule_keyed`]), so it pops
//! in `(time, origin, seq)` order — never arrival order; a key that
//! would overflow fails with [`ShardError::KeySpace`].
//! [`ShardEngine::run`] executes one barrier-windowed loop for every
//! thread count (one thread runs it inline), so a run, its windows
//! and the error or panic it fails with are bit-identical for any
//! thread count.
//! The property tests at the bottom of this module pin every shard's
//! sequence to a reference loop over one std heap of
//! `(time, origin, seq)` tuples.
//!
//! ## Deadlock freedom
//!
//! Conservative synchronization deadlocks iff a window can have zero
//! width, which is why [`ShardEngine::new`] rejects a zero lookahead
//! up front with [`ShardError::ZeroLookahead`]. Each round the shard
//! holding the globally earliest event always executes at least one
//! event, so virtual time strictly advances.
//!
//! ## Observability
//!
//! On completion the engine flushes two deterministic counters into
//! the ambient `fiveg-obs` scope: `shard.events` (events executed,
//! summed over shards) and `shard.msgs` (cross-shard messages
//! delivered). Both are integer sums of per-shard totals — merging is
//! commutative — and are byte-identical for any thread count. Window
//! round counts are too, but they measure the synchronizer rather than
//! the model, so they are reported only in [`ShardStats`], never as
//! ambient counters.

use crate::event::{EventQueue, ScheduledEvent};
use crate::time::{SimDuration, SimTime};
use std::any::Any;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
#[expect(clippy::disallowed_types, reason = "ShardEngine::run's barrier loop")]
use std::sync::{
    atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering as MemOrder},
    Barrier, Mutex, MutexGuard, PoisonError,
};

/// Index of a shard within a [`ShardEngine`] (`0..shards`).
pub type ShardId = usize;

/// Width of an event key's local-sequence field: shard `origin`'s
/// `local`-th stamp is keyed `origin << ORIGIN_SHIFT | local`.
const ORIGIN_SHIFT: u32 = 40;

/// Most shards an engine may hold, so that no key reaches `u64::MAX`
/// (the queue's empty-slot key).
const MAX_SHARDS: usize = (1 << (64 - ORIGIN_SHIFT)) - 1;

/// Construction- or run-time failure of the shard engine.
///
/// Every variant is deterministic: a failing configuration fails
/// identically for any thread count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// The engine was given zero lookahead, which would make the safe
    /// window empty and deadlock conservative synchronization.
    ZeroLookahead,
    /// A seed named a shard outside `0..shards`, or a send named one
    /// or its own shard (a shard's own events go through
    /// [`ShardCtx::schedule_in`]).
    BadTarget {
        /// The sending shard; `None` for a seed.
        src: Option<ShardId>,
        /// The shard the event was aimed at.
        dst: ShardId,
        /// Number of shards in the engine.
        shards: usize,
    },
    /// The `(origin, local seq)` event key overflowed: an engine of
    /// `2^24` shards or more, or a shard's `2^40`-th stamp.
    KeySpace {
        /// The highest shard of the engine, or the stamping shard.
        shard: ShardId,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::ZeroLookahead => write!(
                f,
                "zero lookahead: shards could never release a safe window and conservative \
                 synchronization would deadlock; give the one-way latency between shards"
            ),
            ShardError::BadTarget {
                src: None,
                dst,
                shards,
            } => write!(f, "seed on shard {dst}, outside shards 0..{shards}"),
            ShardError::BadTarget {
                src: Some(src),
                dst,
                shards,
            } => write!(
                f,
                "shard {src} sent to shard {dst}: a send needs another shard of 0..{shards} \
                 (local events go through schedule_in)"
            ),
            ShardError::KeySpace { shard } => write!(
                f,
                "shard {shard} overflows the event key: at most {MAX_SHARDS} shards of \
                 2^{ORIGIN_SHIFT} events each"
            ),
        }
    }
}

impl std::error::Error for ShardError {}

/// Packs `shard`'s next event key, or fails once its local counter
/// would spill into the next origin's range.
fn next_key(shard: ShardId, counter: &mut u64) -> Result<u64, ShardError> {
    if *counter == 1 << ORIGIN_SHIFT {
        return Err(ShardError::KeySpace { shard });
    }
    let key = (shard as u64) << ORIGIN_SHIFT | *counter;
    *counter += 1;
    Ok(key)
}

/// The behavior of one shard.
///
/// `handle` is invoked for every event delivered to the shard — local
/// schedules and cross-shard arrivals alike — in deterministic
/// `(time, origin, seq)` order. All scheduling and sending goes
/// through the [`ShardCtx`].
pub trait ShardLogic: Send {
    /// The event/message payload type.
    type Event: Send;

    /// Handles one event delivered at virtual time `at`.
    fn handle(&mut self, ctx: &mut ShardCtx<'_, Self::Event>, at: SimTime, event: Self::Event);
}

/// Scheduling context handed to [`ShardLogic::handle`].
pub struct ShardCtx<'a, E> {
    shard: ShardId,
    shards: usize,
    lookahead: SimDuration,
    seq: &'a mut u64,
    queue: &'a mut EventQueue<E>,
    /// Messages sent in the current window, with their destinations.
    outbox: &'a mut Vec<(ShardId, ScheduledEvent<E>)>,
    error: &'a mut Option<ShardError>,
}

impl<E> ShardCtx<'_, E> {
    /// Current virtual time (the timestamp of the event in flight).
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    fn next_key(&mut self) -> Option<u64> {
        next_key(self.shard, self.seq)
            .map_err(|e| self.fail(e))
            .ok()
    }

    /// Schedules a local event `delay` after now.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        if let Some(key) = self.next_key() {
            let at = self.now() + delay;
            self.queue.schedule_keyed(at, key, event);
        }
    }

    /// Sends `event` to shard `dst`, arriving one lookahead after now.
    ///
    /// `dst` must be another shard of the engine; a bad target records
    /// a [`ShardError::BadTarget`] that deterministically aborts the
    /// run.
    pub fn send(&mut self, dst: ShardId, event: E) {
        if dst >= self.shards || dst == self.shard {
            self.fail(ShardError::BadTarget {
                src: Some(self.shard),
                dst,
                shards: self.shards,
            });
            return;
        }
        let Some(key) = self.next_key() else { return };
        let msg = ScheduledEvent {
            at: self.now() + self.lookahead,
            seq: key,
            payload: event,
        };
        self.outbox.push((dst, msg));
    }

    fn fail(&mut self, e: ShardError) {
        if self.error.is_none() {
            *self.error = Some(e);
        }
    }
}

/// Per-shard runtime state.
struct Cell<L: ShardLogic> {
    id: ShardId,
    logic: L,
    queue: EventQueue<L::Event>,
    /// Local sequence counter behind the shard's event keys.
    seq: u64,
    /// Messages sent in the current window, delivered at its barrier.
    outbox: Vec<(ShardId, ScheduledEvent<L::Event>)>,
    /// The first error this shard's handlers raised; it ends the run
    /// at the next barrier.
    error: Option<ShardError>,
    /// The payload of a handler panic; it ends the run at the next
    /// barrier, as `error` does.
    panic: Option<Box<dyn Any + Send>>,
}

impl<L: ShardLogic> Cell<L> {
    /// Executes this shard's events up to `end`, stopping at the first
    /// failure. A handler panic is caught and kept, so the worker still
    /// reaches the barrier its peers wait at.
    fn run_window(&mut self, shards: usize, lookahead: SimDuration, end: SimTime) {
        let run = panic::catch_unwind(AssertUnwindSafe(|| {
            while let Some(ev) = self.queue.pop_until(end) {
                let mut ctx = ShardCtx {
                    shard: self.id,
                    shards,
                    lookahead,
                    seq: &mut self.seq,
                    queue: &mut self.queue,
                    outbox: &mut self.outbox,
                    error: &mut self.error,
                };
                self.logic.handle(&mut ctx, ev.at, ev.payload);
                if self.error.is_some() {
                    break;
                }
            }
        }));
        if let Err(payload) = run {
            self.panic = Some(payload);
        }
    }
}

/// Leader only, at a barrier: moves every shard's outbox into the
/// destination queues and returns how many messages moved.
fn deliver<L: ShardLogic>(shards: &mut [MutexGuard<'_, Cell<L>>]) -> u64 {
    let mut moved = 0;
    for src in 0..shards.len() {
        let mut outbox = std::mem::take(&mut shards[src].outbox);
        moved += outbox.len() as u64;
        for (dst, ScheduledEvent { at, seq, payload }) in outbox.drain(..) {
            shards[dst].queue.schedule_keyed(at, seq, payload);
        }
        shards[src].outbox = outbox;
    }
    moved
}

/// Deterministic run totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Events executed, summed over shards. Thread-count invariant.
    pub events: u64,
    /// Cross-shard messages delivered. Thread-count invariant.
    pub msgs: u64,
    /// Safe windows released. Thread-count invariant, but a measure of
    /// the synchronizer rather than the model — informational only,
    /// never an obs counter.
    pub rounds: u64,
}

/// The result of a completed run: the shard logics (in shard order)
/// plus run totals.
pub struct ShardRun<L> {
    /// Final logic state of every shard, indexed by shard id.
    pub logics: Vec<L>,
    /// Run totals.
    pub stats: ShardStats,
}

impl<L> fmt::Debug for ShardRun<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardRun")
            .field("shards", &self.logics.len())
            .field("stats", &self.stats)
            .finish()
    }
}

/// A conservative parallel discrete-event engine in which every
/// message takes one lookahead.
pub struct ShardEngine<L: ShardLogic> {
    lookahead: SimDuration,
    cells: Vec<Cell<L>>,
}

impl<L: ShardLogic> ShardEngine<L> {
    /// Creates an engine of one shard per logic (`logics[i]` drives
    /// shard `i`) whose messages all arrive `lookahead` after their
    /// send.
    ///
    /// Rejects a zero lookahead ([`ShardError::ZeroLookahead`]) — the
    /// deadlock-freedom precondition — and more shards than the event
    /// key holds ([`ShardError::KeySpace`]).
    pub fn new(lookahead: SimDuration, logics: Vec<L>) -> Result<Self, ShardError> {
        if lookahead.is_zero() {
            return Err(ShardError::ZeroLookahead);
        }
        if logics.len() > MAX_SHARDS {
            return Err(ShardError::KeySpace {
                shard: logics.len() - 1,
            });
        }
        let cells = logics
            .into_iter()
            .enumerate()
            .map(|(id, logic)| Cell {
                id,
                logic,
                queue: EventQueue::new(),
                seq: 0,
                outbox: Vec::new(),
                error: None,
                panic: None,
            })
            .collect();
        Ok(ShardEngine { lookahead, cells })
    }

    /// Seeds an initial event on `shard` at absolute time `at`.
    pub fn seed(&mut self, shard: ShardId, at: SimTime, event: L::Event) -> Result<(), ShardError> {
        let shards = self.cells.len();
        let Some(cell) = self.cells.get_mut(shard) else {
            return Err(ShardError::BadTarget {
                src: None,
                dst: shard,
                shards,
            });
        };
        let key = next_key(shard, &mut cell.seq)?;
        cell.queue.schedule_keyed(at, key, event);
        Ok(())
    }

    /// Runs the simulation to completion and returns the final shard
    /// logics plus deterministic totals.
    ///
    /// Every thread count runs the same loop: each round a leader
    /// delivers the last window's messages and releases the safe window
    /// `[h, h + L - 1 ns]` from the earliest pending time `h`, and
    /// `threads` workers (clamped to `1..=shards`; one runs inline on
    /// the calling thread) execute every shard's events inside it.
    /// Observable behavior is bit-identical for any `threads`; on
    /// completion the `shard.events` / `shard.msgs` counters are flushed
    /// into the ambient `fiveg-obs` scope.
    ///
    /// The first window in which a handler fails ends the run with the
    /// error of the lowest failing shard.
    ///
    /// # Panics
    ///
    /// A handler panic ends the run at the same barrier, and `run`
    /// re-raises the lowest failing shard's panic on the calling thread
    /// (a failing shard below it returns its error instead).
    #[expect(
        clippy::disallowed_types,
        reason = "the barrier loop: only the leader touches shared state, between barriers, and it walks shards in index order"
    )]
    pub fn run(self, threads: usize) -> Result<ShardRun<L>, ShardError> {
        let ShardEngine { lookahead, cells } = self;
        let n = cells.len();
        let threads = threads.clamp(1, n.max(1));
        // Inclusive window reach `L - 1 ns` (zero lookahead never
        // builds): a send at `s >= h` lands at `>= h + L`, outside the
        // window, and a horizon at `SimTime::MAX` still executes.
        let reach = lookahead - SimDuration::from_nanos(1);

        let cells: Vec<Mutex<Cell<L>>> = cells.into_iter().map(Mutex::new).collect();
        let barrier = Barrier::new(threads);
        let next_shard = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let window_end = AtomicU64::new(0);
        let rounds = AtomicU64::new(0);
        let msgs = AtomicU64::new(0);

        fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
            m.lock().unwrap_or_else(PoisonError::into_inner)
        }

        let worker = || {
            loop {
                if barrier.wait().is_leader() {
                    let mut shards: Vec<_> = cells.iter().map(lock).collect();
                    // A handler failure ends the run before delivery.
                    let failed = shards
                        .iter()
                        .any(|c| c.error.is_some() || c.panic.is_some());
                    if !failed {
                        msgs.fetch_add(deliver(&mut shards), MemOrder::Relaxed);
                    }
                    let horizon = shards.iter().filter_map(|c| c.queue.peek_time()).min();
                    match horizon {
                        Some(h) if !failed => {
                            window_end.store((h + reach).as_nanos(), MemOrder::Relaxed);
                            rounds.fetch_add(1, MemOrder::Relaxed);
                        }
                        _ => stop.store(true, MemOrder::Relaxed),
                    }
                    next_shard.store(0, MemOrder::Relaxed);
                }
                barrier.wait();
                if stop.load(MemOrder::Relaxed) {
                    break;
                }
                let end = SimTime::from_nanos(window_end.load(MemOrder::Relaxed));
                loop {
                    let s = next_shard.fetch_add(1, MemOrder::Relaxed);
                    if s >= n {
                        break;
                    }
                    lock(&cells[s]).run_window(n, lookahead, end);
                }
            }
        };

        if threads == 1 {
            // No spawn: the caller's ambient obs and trace scopes are
            // already installed (the par_map_with pattern).
            worker();
        } else {
            // Re-install the caller's ambient metrics scope inside
            // every worker so logic handlers record into the same
            // registry; counter merges are commutative adds, hence
            // thread-count invariant.
            let handle = fiveg_obs::current();
            let trace_handle = fiveg_trace::current();
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| {
                        let run = || match &handle {
                            Some(h) => fiveg_obs::scoped(h, worker),
                            None => worker(),
                        };
                        // Logic handlers emit UE-side trace events into
                        // one shared, per-origin sequenced sink, so
                        // re-installing the same handle in every worker
                        // stays thread-count invariant.
                        match &trace_handle {
                            Some(t) => fiveg_trace::scoped(t, run),
                            None => run(),
                        }
                    });
                }
            });
        }

        let mut events = 0u64;
        let mut logics = Vec::with_capacity(n);
        for cell in cells {
            let cell = cell.into_inner().unwrap_or_else(PoisonError::into_inner);
            if let Some(payload) = cell.panic {
                panic::resume_unwind(payload);
            }
            if let Some(e) = cell.error {
                return Err(e);
            }
            events += cell.queue.executed();
            logics.push(cell.logic);
        }
        let stats = ShardStats {
            events,
            msgs: msgs.into_inner(),
            rounds: rounds.into_inner(),
        };
        fiveg_obs::counter_add("shard.events", stats.events);
        fiveg_obs::counter_add("shard.msgs", stats.msgs);
        Ok(ShardRun { logics, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use std::time::Duration;

    /// A deterministic pseudo-random logic: every event fans out into
    /// local schedules and sends to other shards derived from a stable
    /// hash of (shard, time, payload), and logs its delivery order.
    /// The fan-out exceeds one event, so each shard runs until its
    /// budget is spent. Every delay and the lookahead are whole
    /// microseconds, and every send lands one lookahead ahead — on the
    /// edge of the window it was sent in — so messages often tie with
    /// events already there.
    struct Chaos {
        id: ShardId,
        shards: usize,
        budget: u64,
        log: Vec<(u64, u64)>,
    }

    impl ShardLogic for Chaos {
        type Event = u64;

        fn handle(&mut self, ctx: &mut ShardCtx<'_, u64>, at: SimTime, event: u64) {
            self.log.push((at.as_nanos(), event));
            if self.budget == 0 {
                return;
            }
            self.budget -= 1;
            let h =
                crate::hash::fnv1a64(format!("{}:{}:{event}", self.id, at.as_nanos()).as_bytes());
            if !h.is_multiple_of(3) {
                ctx.schedule_in(SimDuration::from_micros(1 + h % 50), h ^ 1);
            }
            if h.is_multiple_of(2) && self.shards > 1 {
                // Any shard but this one.
                let hop = 1 + (h as usize >> 8) % (self.shards - 1);
                ctx.send((self.id + hop) % self.shards, h ^ 2);
            }
        }
    }

    /// A random lookahead plus one Chaos logic per shard.
    fn random_setup(shards: usize, seed: u64) -> (SimDuration, Vec<Chaos>) {
        let lookahead = SimDuration::from_micros(SimRng::new(seed).range_u64(1, 20));
        let logics = (0..shards)
            .map(|id| Chaos {
                id,
                shards,
                budget: 400,
                log: Vec::new(),
            })
            .collect();
        (lookahead, logics)
    }

    /// The reference the windowed loop is checked against: every
    /// pending event of every shard in one std heap ordered by the
    /// tuple `(at, origin, key)`, executed one at a time, with the
    /// payloads and their destinations waiting in a slab. For one
    /// origin the engine's keys grow with its local counter, so the
    /// tuple order is `(time, origin, local seq)` whatever the key's bit
    /// layout: the oracle checks the packing rather than sharing it. No
    /// window or failure handling.
    fn run_merged<L: ShardLogic>(engine: ShardEngine<L>) -> ShardRun<L> {
        struct Merged<E> {
            heap: BinaryHeap<Reverse<(SimTime, ShardId, u64, usize)>>,
            slab: Vec<Option<(ShardId, E)>>,
        }
        impl<E> Merged<E> {
            fn push(&mut self, at: SimTime, origin: ShardId, key: u64, dst: ShardId, event: E) {
                self.heap.push(Reverse((at, origin, key, self.slab.len())));
                self.slab.push(Some((dst, event)));
            }
        }
        let ShardEngine {
            lookahead,
            mut cells,
        } = engine;
        let shards = cells.len();
        let mut merged = Merged {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
        };
        for cell in &mut cells {
            while let Some(ev) = cell.queue.pop() {
                merged.push(ev.at, cell.id, ev.seq, cell.id, ev.payload);
            }
        }
        let (mut events, mut msgs) = (0u64, 0u64);
        while let Some(Reverse((at, origin, _, slot))) = merged.heap.pop() {
            let (dst, event) = merged.slab[slot].take().expect("each slot pops once");
            events += 1;
            msgs += u64::from(origin != dst);
            let cell = &mut cells[dst];
            let mut scratch = EventQueue::new();
            scratch.advance_to(at);
            let mut ctx = ShardCtx {
                shard: dst,
                shards,
                lookahead,
                seq: &mut cell.seq,
                queue: &mut scratch,
                outbox: &mut cell.outbox,
                error: &mut cell.error,
            };
            cell.logic.handle(&mut ctx, at, event);
            assert_eq!(cell.error, None, "the reference loop handles no failures");
            while let Some(ev) = scratch.pop() {
                merged.push(ev.at, dst, ev.seq, dst, ev.payload);
            }
            for (to, msg) in cell.outbox.drain(..) {
                merged.push(msg.at, dst, msg.seq, to, msg.payload);
            }
        }
        ShardRun {
            logics: cells.into_iter().map(|c| c.logic).collect(),
            stats: ShardStats {
                events,
                msgs,
                rounds: 0,
            },
        }
    }

    /// Runs a seeded random setup on `threads` workers, or on the
    /// reference merged-heap loop when `threads` is `None`.
    fn run_setup(
        shards: usize,
        seed: u64,
        threads: Option<usize>,
    ) -> (Vec<Vec<(u64, u64)>>, ShardStats) {
        let (lookahead, logics) = random_setup(shards, seed);
        let mut engine = ShardEngine::new(lookahead, logics).expect("engine builds");
        for s in 0..shards {
            engine
                .seed(s, SimTime::from_micros(s as u64), s as u64)
                .expect("seed in range");
        }
        let run = match threads {
            Some(t) => engine.run(t).expect("run completes"),
            None => run_merged(engine),
        };
        (run.logics.into_iter().map(|l| l.log).collect(), run.stats)
    }

    #[test]
    fn sharded_equals_serial_for_random_topologies() {
        // The determinism property: for random lookaheads and message
        // patterns, every shard delivers the same events in the same
        // order as the merged-heap reference, for any thread count,
        // and the windows released do not depend on it.
        for shards in [1, 2, 3, 8] {
            for seed in 0..6u64 {
                let (ref_logs, ref_stats) = run_setup(shards, seed, None);
                let mut rounds = None;
                for threads in [1, 2, 3, 8] {
                    let (logs, stats) = run_setup(shards, seed, Some(threads));
                    let what = format!("shards={shards} seed={seed} threads={threads}");
                    assert_eq!(ref_logs, logs, "{what}");
                    assert_eq!(ref_stats.events, stats.events, "{what}");
                    assert_eq!(ref_stats.msgs, stats.msgs, "{what}");
                    assert_eq!(*rounds.get_or_insert(stats.rounds), stats.rounds, "{what}");
                }
            }
        }
    }

    #[test]
    fn shard_counters_are_thread_count_invariant() {
        let (_, reference) = run_setup(4, 7, None);
        for threads in [1, 2, 8] {
            let m = fiveg_obs::MetricsHandle::new();
            fiveg_obs::scoped(&m, || run_setup(4, 7, Some(threads)));
            let c = m.snapshot().counters;
            assert_eq!(
                (c["shard.events"], c["shard.msgs"]),
                (reference.events, reference.msgs),
                "threads={threads}"
            );
            // The shard queues flush no `sim.events.*` of their own.
            assert_eq!(c.len(), 2, "threads={threads}: {c:?}");
        }
    }

    #[test]
    fn zero_lookahead_adjacent_shards_are_rejected_at_construction() {
        let Err(err) = ShardEngine::new(SimDuration::ZERO, vec![Counter(0), Counter(0)]) else {
            panic!("zero lookahead must not build");
        };
        assert_eq!(err, ShardError::ZeroLookahead);
        let msg = err.to_string();
        assert!(msg.contains("zero lookahead"), "unclear error: {msg}");
        assert!(msg.contains("deadlock"), "unclear error: {msg}");
    }

    /// Never schedules or sends.
    #[derive(Clone)]
    struct Idle;

    impl ShardLogic for Idle {
        type Event = u64;
        fn handle(&mut self, _ctx: &mut ShardCtx<'_, u64>, _at: SimTime, _ev: u64) {}
    }

    #[test]
    fn new_and_seed_reject_out_of_range_shards() {
        let la = SimDuration::from_micros(1);
        // Rejected before any shard state is allocated (`Idle` is
        // zero-sized, so the logics themselves take no memory).
        let Err(err) = ShardEngine::new(la, vec![Idle; MAX_SHARDS + 1]) else {
            panic!("origin field overflow must not build");
        };
        assert_eq!(err, ShardError::KeySpace { shard: MAX_SHARDS });
        let mut engine = ShardEngine::new(la, vec![Idle, Idle]).expect("builds");
        let err = ShardError::BadTarget {
            src: None,
            dst: 2,
            shards: 2,
        };
        assert_eq!(engine.seed(2, SimTime::ZERO, 0), Err(err.clone()));
        assert_eq!(err.to_string(), "seed on shard 2, outside shards 0..2");
        // An engine of no shards has nothing to run.
        let run = ShardEngine::new(la, Vec::<Idle>::new())
            .expect("builds")
            .run(4)
            .expect("completes");
        assert!(run.logics.is_empty());
        assert_eq!(
            run.stats,
            ShardStats {
                events: 0,
                msgs: 0,
                rounds: 0
            }
        );
    }

    #[test]
    fn a_spent_sequence_counter_fails_instead_of_spilling() {
        // Shard 0's counter is one stamp from the end of its key range:
        // the seed takes the last key and the handler's schedule fails
        // the run rather than take a key in origin 1's range.
        let counters = (0..2).map(|_| Counter(0)).collect();
        let mut engine =
            ShardEngine::new(SimDuration::from_micros(1), counters).expect("engine builds");
        engine.cells[0].seq = (1 << ORIGIN_SHIFT) - 1;
        engine
            .seed(0, SimTime::ZERO, 3)
            .expect("the last key seeds");
        assert_eq!(
            engine.seed(0, SimTime::ZERO, 3),
            Err(ShardError::KeySpace { shard: 0 })
        );
        engine
            .seed(1, SimTime::ZERO, 3)
            .expect("shard 1 is untouched");
        assert_eq!(
            engine.run(1).expect_err("the counter is spent"),
            ShardError::KeySpace { shard: 0 }
        );
    }

    /// Stalls its worker for `.1`, then sends to shard `.0`.
    struct Sender(ShardId, Duration);

    impl ShardLogic for Sender {
        type Event = u64;
        fn handle(&mut self, ctx: &mut ShardCtx<'_, u64>, _at: SimTime, _ev: u64) {
            std::thread::sleep(self.1);
            ctx.send(self.0, 0);
        }
    }

    /// Seeds `senders[s]` at time zero for every `s` in `seeded` and
    /// returns the error the run ends with.
    fn sender_error(senders: Vec<Sender>, seeded: &[ShardId], threads: usize) -> ShardError {
        let mut engine =
            ShardEngine::new(SimDuration::from_micros(1), senders).expect("engine builds");
        for &s in seeded {
            engine.seed(s, SimTime::ZERO, 0).expect("seeds");
        }
        engine.run(threads).expect_err("the send fails")
    }

    #[test]
    fn sends_to_self_or_outside_the_engine_abort() {
        let senders = || vec![Sender(0, Duration::ZERO), Sender(2, Duration::ZERO)];
        for threads in [1, 2] {
            // Shard 0 sends to itself.
            let err = sender_error(senders(), &[0], threads);
            assert_eq!(
                err,
                ShardError::BadTarget {
                    src: Some(0),
                    dst: 0,
                    shards: 2
                }
            );
            assert!(err.to_string().contains("schedule_in"), "{err}");
            // Shard 1 sends past the last shard.
            assert_eq!(
                sender_error(senders(), &[1], threads),
                ShardError::BadTarget {
                    src: Some(1),
                    dst: 2,
                    shards: 2
                }
            );
        }
    }

    #[test]
    fn same_window_failures_resolve_to_the_lowest_shard() {
        // Shards 1 and 2 both send past the last shard in the first
        // window. Shard 1 stalls before it sends, so with several
        // threads shard 2 fails first in wall time; the run must still
        // report shard 1's error.
        for threads in [1, 2, 3] {
            for attempt in 0..5 {
                let senders = [0, 5, 0]
                    .map(|ms| Sender(3, Duration::from_millis(ms)))
                    .into();
                assert_eq!(
                    sender_error(senders, &[1, 2], threads),
                    ShardError::BadTarget {
                        src: Some(1),
                        dst: 3,
                        shards: 3
                    },
                    "threads={threads} attempt={attempt}"
                );
            }
        }
    }

    /// When armed with its shard id and a stall, stalls its worker and
    /// then panics on its first event.
    struct Fuse(Option<(ShardId, Duration)>);

    impl ShardLogic for Fuse {
        type Event = u64;
        fn handle(&mut self, _ctx: &mut ShardCtx<'_, u64>, _at: SimTime, _ev: u64) {
            if let Some((id, stall)) = self.0 {
                std::thread::sleep(stall);
                panic!("shard {id} blew up");
            }
        }
    }

    /// Runs eight shards seeded at time zero, of which those in
    /// `fuses` panic (`(shard, stall)`), on `threads` workers, and
    /// returns the panic message `run` raises. The run goes on a
    /// spawned thread so a hang fails the test instead of the suite.
    fn panic_of(fuses: &[(ShardId, Duration)], threads: usize) -> Option<String> {
        let logics = (0..8)
            .map(|id| Fuse(fuses.iter().find(|f| f.0 == id).copied()))
            .collect();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut engine =
                ShardEngine::new(SimDuration::from_micros(1), logics).expect("engine builds");
            for s in 0..8 {
                engine.seed(s, SimTime::ZERO, 0).expect("seeds");
            }
            let caught = panic::catch_unwind(AssertUnwindSafe(|| engine.run(threads)));
            let _ = tx.send(caught.err().map(|p| match p.downcast::<String>() {
                Ok(msg) => *msg,
                Err(_) => "a non-string payload".to_string(),
            }));
        });
        rx.recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("threads={threads}: run hung after a handler panic"))
    }

    #[test]
    fn a_handler_panic_is_re_raised_on_the_calling_thread() {
        for threads in [1, 2, 8] {
            // One shard panics while its peers wait at the barrier.
            assert_eq!(
                panic_of(&[(5, Duration::ZERO)], threads).as_deref(),
                Some("shard 5 blew up"),
                "threads={threads}"
            );
            // Shards 3 and 5 panic in the same window; shard 3 stalls
            // first, so with several threads shard 5 panics first in
            // wall time. The run still re-raises shard 3's panic.
            let both = [(3, Duration::from_millis(5)), (5, Duration::ZERO)];
            assert_eq!(
                panic_of(&both, threads).as_deref(),
                Some("shard 3 blew up"),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn events_at_time_zero_and_max_both_execute() {
        // A horizon at SimTime::MAX still releases a window that
        // executes it. The run goes on a spawned thread so a livelock
        // fails the test instead of hanging the suite.
        for threads in [1, 2] {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let idle = |id| Chaos {
                    id,
                    shards: 2,
                    budget: 0,
                    log: Vec::new(),
                };
                let mut engine =
                    ShardEngine::new(SimDuration::from_micros(5), vec![idle(0), idle(1)])
                        .expect("engine builds");
                engine.seed(0, SimTime::ZERO, 0).expect("seeds");
                engine.seed(1, SimTime::MAX, 1).expect("seeds");
                let _ = tx.send(engine.run(threads));
            });
            let run = rx
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("threads={threads}: run did not finish in 30 s"))
                .expect("run completes");
            let logs: Vec<_> = run.logics.into_iter().map(|c| c.log).collect();
            assert_eq!(
                logs,
                [vec![(0, 0)], vec![(u64::MAX, 1)]],
                "threads={threads}"
            );
        }
    }

    /// Counts its events; event `n > 0` schedules `n - 1` a microsecond
    /// later.
    struct Counter(u64);

    impl ShardLogic for Counter {
        type Event = u64;
        fn handle(&mut self, ctx: &mut ShardCtx<'_, u64>, _at: SimTime, ev: u64) {
            self.0 += 1;
            if ev > 0 {
                ctx.schedule_in(SimDuration::from_micros(1), ev - 1);
            }
        }
    }

    #[test]
    fn shards_that_never_send_run_independently() {
        for threads in [1, 4] {
            let mut engine = ShardEngine::new(
                SimDuration::from_micros(1),
                (0..4).map(|_| Counter(0)).collect(),
            )
            .expect("engine builds");
            for s in 0..4 {
                engine.seed(s, SimTime::ZERO, 9).expect("seeds");
            }
            let run = engine.run(threads).expect("completes");
            assert!(run.logics.iter().all(|c| c.0 == 10), "threads={threads}");
            assert_eq!(run.stats.events, 40);
            assert_eq!(run.stats.msgs, 0);
        }
    }

    #[test]
    fn ring_of_shards_makes_progress() {
        // Deadlock-freedom smoke: a message circulating a ring of
        // shards terminates.
        struct Ring {
            hops_left: u64,
            next: ShardId,
        }
        impl ShardLogic for Ring {
            type Event = u64;
            fn handle(&mut self, ctx: &mut ShardCtx<'_, u64>, _at: SimTime, ev: u64) {
                if ev > 0 {
                    self.hops_left = ev;
                    ctx.send(self.next, ev - 1);
                }
            }
        }
        for threads in [1, 3] {
            let n = 5;
            let logics = (0..n)
                .map(|s| Ring {
                    hops_left: 0,
                    next: (s + 1) % n,
                })
                .collect();
            let mut engine =
                ShardEngine::new(SimDuration::from_micros(7), logics).expect("engine builds");
            engine.seed(0, SimTime::ZERO, 100).expect("seeds");
            let run = engine.run(threads).expect("completes");
            assert_eq!(run.stats.events, 101, "threads={threads}");
            assert_eq!(run.stats.msgs, 100);
        }
    }

    #[test]
    fn same_time_cross_shard_ties_break_by_origin_then_seq() {
        // Two senders target the same shard at the same instant; the
        // receiver must log origin 0's burst before origin 1's, each
        // in its origin's send order — regardless of thread count and
        // regardless of seeding (arrival) order. The receiver's own
        // event for that instant, scheduled before any burst is
        // delivered, still logs after them all: origin 2 sorts after
        // every lower origin (the rule the fleet's Aggregate relies on).
        struct Node {
            burst: Vec<u64>,
            log: Vec<u64>,
        }
        impl ShardLogic for Node {
            type Event = u64;
            fn handle(&mut self, ctx: &mut ShardCtx<'_, u64>, _at: SimTime, ev: u64) {
                if ev == u64::MAX {
                    for &p in &self.burst {
                        ctx.send(2, p);
                    }
                } else if ev == u64::MAX - 1 {
                    ctx.schedule_in(SimDuration::from_micros(10), 99);
                } else {
                    self.log.push(ev);
                }
            }
        }
        for threads in [1, 2, 3] {
            let node = |burst: Vec<u64>| Node {
                burst,
                log: Vec::new(),
            };
            let mut engine = ShardEngine::new(
                SimDuration::from_micros(10),
                vec![node(vec![10, 11, 12]), node(vec![20, 21]), node(vec![])],
            )
            .expect("engine builds");
            // Seed order deliberately puts shard 1 first: arrival
            // order must not matter.
            engine.seed(2, SimTime::ZERO, u64::MAX - 1).expect("seeds");
            engine.seed(1, SimTime::ZERO, u64::MAX).expect("seeds");
            engine.seed(0, SimTime::ZERO, u64::MAX).expect("seeds");
            let run = engine.run(threads).expect("completes");
            assert_eq!(
                run.logics[2].log,
                vec![10, 11, 12, 20, 21, 99],
                "threads={threads}"
            );
            assert_eq!(run.stats.msgs, 5, "threads={threads}");
        }
    }
}
