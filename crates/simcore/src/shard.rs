//! Conservative parallel discrete-event sharding (PDES).
//!
//! A simulation is partitioned into **shards** — e.g. a gNB cell plus
//! its attached UEs, or a wireline router — that advance concurrently
//! under *conservative* synchronization: a shard may only execute
//! events inside the current **safe window** `[h, h + W - 1 ns]`,
//! where `h` is the earliest pending event and `W` the minimum
//! **lookahead** (one-way link latency) declared by any cross-shard
//! link. A message sent at time `t ≥ h` over a link with lookahead
//! `L ≥ W` arrives no earlier than `t + L ≥ h + W`, past the window, so
//! every message is delivered at a barrier *before* any shard enters
//! the window that could observe it — no shard ever receives an event
//! in its past, and no rollback machinery is needed.
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
//! and the error it fails with are bit-identical for any thread count.
//! The property tests at the bottom of this module pin every shard's
//! sequence to a reference loop over one std heap of
//! `(time, origin, seq)` tuples.
//!
//! ## Deadlock freedom
//!
//! Conservative synchronization deadlocks iff a window can have zero
//! width, which is why [`TopologyBuilder::build`] rejects any link
//! with zero lookahead up front with [`ShardError::ZeroLookahead`].
//! Each round the shard holding the globally earliest event always
//! executes at least one event, so virtual time strictly advances.
//!
//! ## Observability
//!
//! On completion the engine flushes two deterministic counters into
//! the ambient `fiveg-obs` scope: `shard.events` (events executed,
//! summed over shards) and `shard.msgs` (cross-shard messages
//! delivered), plus `sim.events.clamped` when a release build clamped
//! a past schedule. All are integer sums of per-shard totals — merging
//! is commutative — and are byte-identical for any thread count. Window
//! round counts are too, but depend on the topology, so they are
//! reported only in [`ShardStats`], never as ambient counters.

use crate::event::{EventQueue, ScheduledEvent};
use crate::time::{SimDuration, SimTime};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering as MemOrder};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};

/// Index of a shard within a [`Topology`] (`0..shards`).
pub type ShardId = usize;

/// Default bound on undelivered messages per directed link.
pub const DEFAULT_LINK_CAPACITY: usize = 1 << 16;

/// Width of an event key's local-sequence field: shard `origin`'s
/// `local`-th stamp is keyed `origin << ORIGIN_SHIFT | local`.
const ORIGIN_SHIFT: u32 = 40;

/// Most shards a topology may hold, so that no key reaches `u64::MAX`
/// (the queue's empty-slot key).
const MAX_SHARDS: usize = (1 << (64 - ORIGIN_SHIFT)) - 1;

/// Construction- or run-time failure of the shard engine.
///
/// Every variant is deterministic: a failing configuration fails
/// identically for any thread count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// A topology needs at least one shard.
    NoShards,
    /// A link endpoint names a shard outside `0..shards`.
    BadEndpoint {
        /// Link source shard.
        src: ShardId,
        /// Link destination shard.
        dst: ShardId,
        /// Number of shards in the topology.
        shards: usize,
    },
    /// A shard cannot link to itself (local events need no link).
    SelfLink {
        /// The offending shard.
        shard: ShardId,
    },
    /// The same directed link was declared twice.
    DuplicateLink {
        /// Link source shard.
        src: ShardId,
        /// Link destination shard.
        dst: ShardId,
    },
    /// A link declared zero lookahead, which would make the safe
    /// window empty and deadlock conservative synchronization.
    ZeroLookahead {
        /// Link source shard.
        src: ShardId,
        /// Link destination shard.
        dst: ShardId,
    },
    /// A link declared a zero message capacity.
    ZeroCapacity {
        /// Link source shard.
        src: ShardId,
        /// Link destination shard.
        dst: ShardId,
    },
    /// The logic count handed to [`ShardEngine::new`] does not match
    /// the topology's shard count.
    LogicCount {
        /// Shards in the topology.
        expected: usize,
        /// Logics provided.
        got: usize,
    },
    /// An event was seeded on (or sent to) a shard outside the
    /// topology.
    UnknownShard {
        /// The offending shard index.
        shard: ShardId,
        /// Number of shards in the topology.
        shards: usize,
    },
    /// [`ShardCtx::send`] targeted a pair with no declared link.
    UnknownLink {
        /// Sending shard.
        src: ShardId,
        /// Destination shard.
        dst: ShardId,
    },
    /// [`ShardCtx::send`] used a delay below the link's lookahead,
    /// which would let a message land inside an already-released safe
    /// window.
    LookaheadViolated {
        /// Sending shard.
        src: ShardId,
        /// Destination shard.
        dst: ShardId,
        /// The delay the sender asked for.
        delay: SimDuration,
        /// The lookahead the link declared.
        lookahead: SimDuration,
    },
    /// More undelivered messages accumulated on a link than its
    /// declared capacity (the bounded-channel guarantee).
    MailboxOverflow {
        /// Sending shard.
        src: ShardId,
        /// Destination shard.
        dst: ShardId,
        /// The link's capacity.
        capacity: usize,
    },
    /// The `(origin, local seq)` event key overflowed: a topology of
    /// `2^24` shards or more, or a shard's `2^40`-th stamp.
    KeySpace {
        /// The highest shard of the topology, or the stamping shard.
        shard: ShardId,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::NoShards => write!(f, "a shard topology needs at least one shard"),
            ShardError::BadEndpoint { src, dst, shards } => write!(
                f,
                "link {src}->{dst} names a shard outside the topology (shards 0..{shards})"
            ),
            ShardError::SelfLink { shard } => write!(
                f,
                "shard {shard} links to itself; local events need no link"
            ),
            ShardError::DuplicateLink { src, dst } => {
                write!(f, "link {src}->{dst} declared twice")
            }
            ShardError::ZeroLookahead { src, dst } => write!(
                f,
                "link {src}->{dst} declares zero lookahead: adjacent shards could never \
                 release a safe window and conservative synchronization would deadlock; \
                 declare the link's one-way latency"
            ),
            ShardError::ZeroCapacity { src, dst } => {
                write!(f, "link {src}->{dst} declares zero message capacity")
            }
            ShardError::LogicCount { expected, got } => write!(
                f,
                "topology has {expected} shards but {got} shard logics were provided"
            ),
            ShardError::UnknownShard { shard, shards } => {
                write!(
                    f,
                    "shard {shard} is outside the topology (shards 0..{shards})"
                )
            }
            ShardError::UnknownLink { src, dst } => {
                write!(f, "shard {src} sent to shard {dst} without a declared link")
            }
            ShardError::LookaheadViolated {
                src,
                dst,
                delay,
                lookahead,
            } => write!(
                f,
                "shard {src} sent to shard {dst} with delay {delay} below the link's \
                 lookahead {lookahead}"
            ),
            ShardError::MailboxOverflow { src, dst, capacity } => write!(
                f,
                "link {src}->{dst} exceeded its capacity of {capacity} undelivered messages"
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

/// One directed cross-shard link.
#[derive(Debug, Clone, Copy)]
struct Link {
    lookahead: SimDuration,
    capacity: usize,
}

/// A validated shard graph: shard count plus directed links, each
/// carrying a positive lookahead (its one-way latency) and a bound on
/// undelivered messages.
#[derive(Debug, Clone)]
pub struct Topology {
    shards: usize,
    /// Dense `src * shards + dst` adjacency.
    links: Vec<Option<Link>>,
    /// Minimum lookahead over all links; [`SimDuration::MAX`] when the
    /// topology has no links (one unbounded window).
    min_lookahead: SimDuration,
}

impl Topology {
    /// Starts building a topology over `shards` shards.
    pub fn builder(shards: usize) -> TopologyBuilder {
        TopologyBuilder {
            shards,
            links: Vec::new(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The declared lookahead of `src -> dst`, if linked.
    pub fn lookahead(&self, src: ShardId, dst: ShardId) -> Option<SimDuration> {
        self.link(src, dst).map(|l| l.lookahead)
    }

    /// The safe-window width: minimum lookahead over all links, or
    /// [`SimDuration::MAX`] for a link-free topology.
    pub fn min_lookahead(&self) -> SimDuration {
        self.min_lookahead
    }

    fn link(&self, src: ShardId, dst: ShardId) -> Option<Link> {
        if src < self.shards && dst < self.shards {
            self.links[src * self.shards + dst]
        } else {
            None
        }
    }
}

/// Builder for [`Topology`]; all validation happens in [`build`].
///
/// [`build`]: TopologyBuilder::build
#[derive(Debug)]
pub struct TopologyBuilder {
    shards: usize,
    links: Vec<(ShardId, ShardId, SimDuration, usize)>,
}

impl TopologyBuilder {
    /// Declares a directed link `src -> dst` whose one-way latency is
    /// `lookahead`, with the default message capacity.
    #[must_use]
    pub fn link(self, src: ShardId, dst: ShardId, lookahead: SimDuration) -> Self {
        self.link_with_capacity(src, dst, lookahead, DEFAULT_LINK_CAPACITY)
    }

    /// Declares a directed link with an explicit bound on undelivered
    /// messages.
    #[must_use]
    pub fn link_with_capacity(
        mut self,
        src: ShardId,
        dst: ShardId,
        lookahead: SimDuration,
        capacity: usize,
    ) -> Self {
        self.links.push((src, dst, lookahead, capacity));
        self
    }

    /// Validates and freezes the topology.
    ///
    /// Rejects zero-lookahead links ([`ShardError::ZeroLookahead`]) —
    /// the deadlock-freedom precondition — as well as out-of-range
    /// endpoints, self links, duplicates, zero capacities and more
    /// shards than the event key holds.
    pub fn build(self) -> Result<Topology, ShardError> {
        if self.shards == 0 {
            return Err(ShardError::NoShards);
        }
        if self.shards > MAX_SHARDS {
            return Err(ShardError::KeySpace {
                shard: self.shards - 1,
            });
        }
        let mut links: Vec<Option<Link>> = vec![None; self.shards * self.shards];
        let mut min_lookahead = SimDuration::MAX;
        for (src, dst, lookahead, capacity) in self.links {
            if src >= self.shards || dst >= self.shards {
                return Err(ShardError::BadEndpoint {
                    src,
                    dst,
                    shards: self.shards,
                });
            }
            if src == dst {
                return Err(ShardError::SelfLink { shard: src });
            }
            if lookahead.is_zero() {
                return Err(ShardError::ZeroLookahead { src, dst });
            }
            if capacity == 0 {
                return Err(ShardError::ZeroCapacity { src, dst });
            }
            let slot = &mut links[src * self.shards + dst];
            if slot.is_some() {
                return Err(ShardError::DuplicateLink { src, dst });
            }
            *slot = Some(Link {
                lookahead,
                capacity,
            });
            min_lookahead = min_lookahead.min(lookahead);
        }
        Ok(Topology {
            shards: self.shards,
            links,
            min_lookahead,
        })
    }
}

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

/// A cross-shard message in flight, stamped with its send time.
struct Outgoing<E> {
    dst: ShardId,
    /// Virtual time of the send, kept for the arrival-time invariant
    /// `msg.at >= sent_at + lookahead` (checked in debug builds).
    sent_at: SimTime,
    msg: ScheduledEvent<E>,
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
    topo: &'a Topology,
    seq: &'a mut u64,
    queue: &'a mut EventQueue<E>,
    outbox: &'a mut Vec<Outgoing<E>>,
    error: &'a mut Option<ShardError>,
}

impl<E> ShardCtx<'_, E> {
    /// The shard this context belongs to.
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// Current virtual time (the timestamp of the event in flight).
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    fn next_key(&mut self) -> Option<u64> {
        next_key(self.shard, self.seq)
            .map_err(|e| self.fail(e))
            .ok()
    }

    /// Schedules a local event at absolute time `at` (clamped to now
    /// and counted as `sim.events.clamped`; scheduling into the past is
    /// a logic error caught in debug builds, as in [`EventQueue`]).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        if let Some(key) = self.next_key() {
            self.queue.schedule_keyed(at, key, event);
        }
    }

    /// Schedules a local event `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now() + delay, event);
    }

    /// Sends `event` to shard `dst`, arriving `delay` after now.
    ///
    /// The pair must be linked and `delay` must be at least the link's
    /// declared lookahead; a violation records a [`ShardError`] that
    /// deterministically aborts the run.
    pub fn send(&mut self, dst: ShardId, delay: SimDuration, event: E) {
        let Some(link) = self.topo.link(self.shard, dst) else {
            self.fail(ShardError::UnknownLink {
                src: self.shard,
                dst,
            });
            return;
        };
        if delay < link.lookahead {
            self.fail(ShardError::LookaheadViolated {
                src: self.shard,
                dst,
                delay,
                lookahead: link.lookahead,
            });
            return;
        }
        let Some(key) = self.next_key() else { return };
        let now = self.now();
        let msg = ScheduledEvent {
            at: now + delay,
            seq: key,
            payload: event,
        };
        self.outbox.push(Outgoing {
            dst,
            sent_at: now,
            msg,
        });
        // `shard` trace category: physical ids, opt-in only (the
        // event stream varies with the shard count by construction).
        fiveg_trace::emit(
            self.shard as u32,
            &fiveg_trace::TraceEvent::ShardMsgSend {
                t_ns: now.as_nanos(),
                src: self.shard as u32,
                dst: dst as u32,
            },
        );
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
    outbox: Vec<Outgoing<L::Event>>,
    /// The first error this shard's handlers raised, or the overflow
    /// of one of its links; it ends the run at the next barrier.
    error: Option<ShardError>,
}

/// Leader only, at a barrier: moves every shard's outbox into the
/// destination queues and returns how many messages moved. A link
/// whose backlog in the window exceeds its capacity fails its source
/// shard with [`ShardError::MailboxOverflow`], lowest `dst` first.
fn deliver<L: ShardLogic>(topo: &Topology, shards: &mut [MutexGuard<'_, Cell<L>>]) -> u64 {
    let mut moved = 0;
    let mut per_dst: Vec<usize> = vec![0; shards.len()];
    for src in 0..shards.len() {
        let mut outbox = std::mem::take(&mut shards[src].outbox);
        moved += outbox.len() as u64;
        per_dst.fill(0);
        for o in outbox.drain(..) {
            per_dst[o.dst] += 1;
            debug_assert!(topo
                .link(src, o.dst)
                .is_some_and(|l| o.msg.at >= o.sent_at + l.lookahead));
            let ScheduledEvent { at, seq, payload } = o.msg;
            shards[o.dst].queue.schedule_keyed(at, seq, payload);
        }
        // `send` queues only on declared links.
        shards[src].error = per_dst.iter().enumerate().find_map(|(dst, &sent)| {
            let capacity = topo.link(src, dst)?.capacity;
            (sent > capacity).then_some(ShardError::MailboxOverflow { src, dst, capacity })
        });
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
    /// Safe windows released. Thread-count invariant, but a function
    /// of the topology (and so of a fleet's shard count) — informational
    /// only, never an obs counter.
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

/// A conservative parallel discrete-event engine over a [`Topology`].
pub struct ShardEngine<L: ShardLogic> {
    topo: Topology,
    cells: Vec<Cell<L>>,
}

impl<L: ShardLogic> ShardEngine<L> {
    /// Creates an engine from a topology and one logic per shard
    /// (`logics[i]` drives shard `i`).
    pub fn new(topo: Topology, logics: Vec<L>) -> Result<Self, ShardError> {
        if logics.len() != topo.shards() {
            return Err(ShardError::LogicCount {
                expected: topo.shards(),
                got: logics.len(),
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
            })
            .collect();
        Ok(ShardEngine { topo, cells })
    }

    /// Seeds an initial event on `shard` at absolute time `at`.
    pub fn seed(&mut self, shard: ShardId, at: SimTime, event: L::Event) -> Result<(), ShardError> {
        let shards = self.topo.shards();
        let Some(cell) = self.cells.get_mut(shard) else {
            return Err(ShardError::UnknownShard { shard, shards });
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
    /// `[h, h + W - 1 ns]` from the earliest pending time `h`, and
    /// `threads` workers (clamped to `1..=shards`; one runs inline on
    /// the calling thread) execute every shard's events inside it.
    /// Observable behavior is bit-identical for any `threads`; on
    /// completion the `shard.events` / `shard.msgs` counters (and a
    /// non-zero `sim.events.clamped`) are flushed into the ambient
    /// `fiveg-obs` scope.
    ///
    /// The first window in which a handler fails ends the run with the
    /// error of the lowest failing shard. Only when no handler failed
    /// is a link whose backlog in the window exceeded its capacity
    /// reported, as [`ShardError::MailboxOverflow`] of the lowest
    /// `(src, dst)` link.
    pub fn run(self, threads: usize) -> Result<ShardRun<L>, ShardError> {
        let ShardEngine { topo, cells } = self;
        let n = topo.shards();
        let threads = threads.clamp(1, n);
        // Inclusive window reach `W - 1 ns` (zero lookahead never
        // builds): a send at `s >= h` lands at `>= h + W`, outside the
        // window, and a horizon at `SimTime::MAX` still executes.
        let reach = topo.min_lookahead() - SimDuration::from_nanos(1);

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
                    // A handler failure ends the run before delivery,
                    // so an overflow is reported only without one.
                    let mut failed = shards.iter().any(|c| c.error.is_some());
                    if !failed {
                        msgs.fetch_add(deliver(&topo, &mut shards), MemOrder::Relaxed);
                        failed = shards.iter().any(|c| c.error.is_some());
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
                    let mut cell = lock(&cells[s]);
                    let cell = &mut *cell;
                    while let Some(ev) = cell.queue.pop_until(end) {
                        let origin = (ev.seq >> ORIGIN_SHIFT) as ShardId;
                        if origin != cell.id {
                            // Recv is traced at *execution* time,
                            // in the queue's deterministic key order.
                            fiveg_trace::emit(
                                cell.id as u32,
                                &fiveg_trace::TraceEvent::ShardMsgRecv {
                                    t_ns: ev.at.as_nanos(),
                                    src: origin as u32,
                                    dst: cell.id as u32,
                                },
                            );
                        }
                        let mut ctx = ShardCtx {
                            shard: cell.id,
                            topo: &topo,
                            seq: &mut cell.seq,
                            queue: &mut cell.queue,
                            outbox: &mut cell.outbox,
                            error: &mut cell.error,
                        };
                        cell.logic.handle(&mut ctx, ev.at, ev.payload);
                        if cell.error.is_some() {
                            break;
                        }
                    }
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
                        // Trace emission is shared-sink + per-origin
                        // sequenced, so re-installing the same handle
                        // in every worker stays thread-count invariant.
                        match &trace_handle {
                            Some(t) => fiveg_trace::scoped(t, run),
                            None => run(),
                        }
                    });
                }
            });
        }

        let (mut events, mut clamped) = (0u64, 0u64);
        let mut logics = Vec::with_capacity(n);
        for cell in cells {
            let cell = cell.into_inner().unwrap_or_else(PoisonError::into_inner);
            if let Some(e) = cell.error {
                return Err(e);
            }
            events += cell.queue.executed();
            clamped += cell.queue.clamped();
            logics.push(cell.logic);
        }
        let stats = ShardStats {
            events,
            msgs: msgs.into_inner(),
            rounds: rounds.into_inner(),
        };
        fiveg_obs::counter_add("shard.events", stats.events);
        fiveg_obs::counter_add("shard.msgs", stats.msgs);
        if clamped > 0 {
            fiveg_obs::counter_add("sim.events.clamped", clamped);
        }
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
    /// local schedules and cross-shard sends derived from a stable
    /// hash of (shard, time, payload), and logs its delivery order.
    /// The fan-out exceeds one event, so each shard runs until its
    /// budget is spent. Every delay is whole microseconds and a third of
    /// the sends take exactly the link's lookahead, so messages often
    /// land on a window's edge and tie with events already there.
    struct Chaos {
        id: ShardId,
        out_links: Vec<(ShardId, SimDuration)>,
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
            if h.is_multiple_of(2) && !self.out_links.is_empty() {
                let (dst, lookahead) = self.out_links[(h as usize >> 8) % self.out_links.len()];
                let extra = SimDuration::from_micros(h % 3);
                ctx.send(dst, lookahead + extra, h ^ 2);
            }
        }
    }

    /// Builds a random strongly-messaging topology plus Chaos logics.
    fn random_setup(shards: usize, seed: u64) -> (Topology, Vec<Chaos>) {
        let mut rng = SimRng::new(seed);
        let mut builder = Topology::builder(shards);
        let mut out: Vec<Vec<(ShardId, SimDuration)>> = vec![Vec::new(); shards];
        for (src, out_links) in out.iter_mut().enumerate() {
            for dst in 0..shards {
                if src != dst && rng.chance(0.6) {
                    let la = SimDuration::from_micros(rng.range_u64(1, 20));
                    builder = builder.link(src, dst, la);
                    out_links.push((dst, la));
                }
            }
        }
        let topo = builder.build().expect("valid random topology");
        let logics = out
            .into_iter()
            .enumerate()
            .map(|(id, out_links)| Chaos {
                id,
                out_links,
                budget: 400,
                log: Vec::new(),
            })
            .collect();
        (topo, logics)
    }

    /// The reference the windowed loop is checked against: every
    /// pending event of every shard in one std heap ordered by the
    /// tuple `(at, origin, key)`, executed one at a time, with the
    /// payloads and their destinations waiting in a slab. For one
    /// origin the engine's keys grow with its local counter, so the
    /// tuple order is `(time, origin, local seq)` whatever the key's bit
    /// layout: the oracle checks the packing rather than sharing it. No
    /// capacity, failure or trace handling.
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
        let ShardEngine { topo, mut cells } = engine;
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
                topo: &topo,
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
            for o in cell.outbox.drain(..) {
                merged.push(o.msg.at, dst, o.msg.seq, o.dst, o.msg.payload);
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
        let (topo, logics) = random_setup(shards, seed);
        let mut engine = ShardEngine::new(topo, logics).expect("engine builds");
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
        // The determinism property: for random topologies and
        // lookaheads, every shard delivers the same events in the
        // same order as the merged-heap reference, for any thread
        // count, and the windows released do not depend on it.
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
        let err = Topology::builder(3)
            .link(0, 1, SimDuration::from_micros(5))
            .link(1, 2, SimDuration::ZERO)
            .build()
            .expect_err("zero lookahead must not build");
        assert_eq!(err, ShardError::ZeroLookahead { src: 1, dst: 2 });
        let msg = err.to_string();
        assert!(msg.contains("zero lookahead"), "unclear error: {msg}");
        assert!(msg.contains("deadlock"), "unclear error: {msg}");
    }

    #[test]
    fn builder_rejects_malformed_topologies() {
        assert_eq!(
            Topology::builder(0).build().expect_err("no shards"),
            ShardError::NoShards
        );
        assert_eq!(
            Topology::builder(2)
                .link(0, 5, SimDuration::from_micros(1))
                .build()
                .expect_err("bad endpoint"),
            ShardError::BadEndpoint {
                src: 0,
                dst: 5,
                shards: 2
            }
        );
        assert_eq!(
            Topology::builder(2)
                .link(1, 1, SimDuration::from_micros(1))
                .build()
                .expect_err("self link"),
            ShardError::SelfLink { shard: 1 }
        );
        assert_eq!(
            Topology::builder(2)
                .link(0, 1, SimDuration::from_micros(1))
                .link(0, 1, SimDuration::from_micros(2))
                .build()
                .expect_err("duplicate"),
            ShardError::DuplicateLink { src: 0, dst: 1 }
        );
        assert_eq!(
            Topology::builder(2)
                .link_with_capacity(0, 1, SimDuration::from_micros(1), 0)
                .build()
                .expect_err("zero capacity"),
            ShardError::ZeroCapacity { src: 0, dst: 1 }
        );
        // Rejected before the adjacency matrix is allocated.
        assert_eq!(
            Topology::builder(MAX_SHARDS + 1)
                .build()
                .expect_err("origin field overflow"),
            ShardError::KeySpace { shard: MAX_SHARDS }
        );
    }

    #[test]
    fn a_spent_sequence_counter_fails_instead_of_spilling() {
        // Shard 0's counter is one stamp from the end of its key range:
        // the seed takes the last key and the handler's schedule fails
        // the run rather than take a key in origin 1's range.
        let topo = Topology::builder(2).build().expect("builds");
        let counters = (0..2).map(|_| Counter(0)).collect();
        let mut engine = ShardEngine::new(topo, counters).expect("engine builds");
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

    /// Release builds clamp a shard's past schedules (debug builds
    /// panic first), as NetSim's queue does, and the run flushes their
    /// sum as `sim.events.clamped`.
    #[cfg(not(debug_assertions))]
    #[test]
    fn past_shard_schedules_are_clamped_and_counted() {
        struct Rewind;
        impl ShardLogic for Rewind {
            type Event = u64;
            fn handle(&mut self, ctx: &mut ShardCtx<'_, u64>, _at: SimTime, ev: u64) {
                if ev > 0 {
                    ctx.schedule_at(SimTime::ZERO, ev - 1);
                }
            }
        }
        for threads in [1, 2] {
            let m = fiveg_obs::MetricsHandle::new();
            let run = fiveg_obs::scoped(&m, || {
                let topo = Topology::builder(2).build().expect("builds");
                let mut engine = ShardEngine::new(topo, vec![Rewind, Rewind]).expect("builds");
                engine.seed(0, SimTime::from_micros(5), 3).expect("seeds");
                engine.seed(1, SimTime::from_micros(5), 2).expect("seeds");
                engine.run(threads).expect("completes")
            });
            assert_eq!(run.stats.events, 7, "threads={threads}");
            let c = m.snapshot().counters;
            assert_eq!(c.get("sim.events.clamped"), Some(&5), "threads={threads}");
        }
    }

    /// Stalls its worker for `.2`, then sends to shard `.0` after `.1`.
    struct Sender(ShardId, SimDuration, Duration);

    impl ShardLogic for Sender {
        type Event = u64;
        fn handle(&mut self, ctx: &mut ShardCtx<'_, u64>, _at: SimTime, _ev: u64) {
            std::thread::sleep(self.2);
            ctx.send(self.0, self.1, 0);
        }
    }

    /// Seeds `senders[s]` at time zero for every `s` in `seeded` and
    /// returns the error the run ends with.
    fn sender_error(
        topo: Topology,
        senders: Vec<Sender>,
        seeded: &[ShardId],
        threads: usize,
    ) -> ShardError {
        let mut engine = ShardEngine::new(topo, senders).expect("engine builds");
        for &s in seeded {
            engine.seed(s, SimTime::ZERO, 0).expect("seeds");
        }
        engine.run(threads).expect_err("the send fails")
    }

    #[test]
    fn send_without_link_and_lookahead_violations_abort() {
        let topo = || {
            Topology::builder(2)
                .link(1, 0, SimDuration::from_micros(5))
                .build()
                .expect("builds")
        };
        let senders = || {
            vec![
                Sender(1, SimDuration::from_secs(1), Duration::ZERO),
                Sender(0, SimDuration::from_nanos(1), Duration::ZERO),
            ]
        };
        for threads in [1, 2] {
            // Shard 0 has no link at all.
            let err = sender_error(topo(), senders(), &[0], threads);
            assert_eq!(err, ShardError::UnknownLink { src: 0, dst: 1 });
            // Shard 1 sends below the declared lookahead.
            let err = sender_error(topo(), senders(), &[1], threads);
            assert!(
                matches!(err, ShardError::LookaheadViolated { src: 1, dst: 0, .. }),
                "{err}"
            );
        }
    }

    #[test]
    fn same_window_failures_resolve_to_the_lowest_shard() {
        // Shards 1 and 2 both send on a missing link in the first
        // window. Shard 1 stalls before it sends, so with several
        // threads shard 2 fails first in wall time; the run must still
        // report shard 1's error.
        for threads in [1, 2, 3] {
            for attempt in 0..5 {
                let senders = [0, 5, 0]
                    .map(|ms| Sender(0, SimDuration::from_micros(1), Duration::from_millis(ms)))
                    .into();
                let topo = Topology::builder(3).build().expect("builds");
                assert_eq!(
                    sender_error(topo, senders, &[1, 2], threads),
                    ShardError::UnknownLink { src: 1, dst: 0 },
                    "threads={threads} attempt={attempt}"
                );
            }
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
                let topo = Topology::builder(2)
                    .link(0, 1, SimDuration::from_micros(5))
                    .build()
                    .expect("builds");
                let idle = |id| Chaos {
                    id,
                    out_links: Vec::new(),
                    budget: 0,
                    log: Vec::new(),
                };
                let mut engine =
                    ShardEngine::new(topo, vec![idle(0), idle(1)]).expect("engine builds");
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

    #[test]
    fn bounded_links_overflow_deterministically() {
        // Shard 0 sends three messages in one window on a link that
        // holds two. When shard 2 also sends on a missing link in that
        // window, its handler error takes precedence over the overflow.
        let topo = || {
            Topology::builder(3)
                .link_with_capacity(0, 1, SimDuration::from_micros(10), 2)
                .build()
                .expect("builds")
        };
        let senders = || {
            (0..3)
                .map(|_| Sender(1, SimDuration::from_micros(10), Duration::ZERO))
                .collect()
        };
        for threads in [1, 2, 3] {
            assert_eq!(
                sender_error(topo(), senders(), &[0, 0, 0], threads),
                ShardError::MailboxOverflow {
                    src: 0,
                    dst: 1,
                    capacity: 2
                },
                "threads={threads}"
            );
            assert_eq!(
                sender_error(topo(), senders(), &[0, 0, 0, 2], threads),
                ShardError::UnknownLink { src: 2, dst: 1 },
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
    fn linkless_topology_runs_each_shard_independently() {
        for threads in [1, 4] {
            let topo = Topology::builder(4).build().expect("builds");
            let mut engine = ShardEngine::new(topo, (0..4).map(|_| Counter(0)).collect())
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
        // shards with heterogeneous lookaheads terminates.
        struct Ring {
            hops_left: u64,
            next: ShardId,
            lookahead: SimDuration,
        }
        impl ShardLogic for Ring {
            type Event = u64;
            fn handle(&mut self, ctx: &mut ShardCtx<'_, u64>, _at: SimTime, ev: u64) {
                if ev > 0 {
                    self.hops_left = ev;
                    ctx.send(self.next, self.lookahead, ev - 1);
                }
            }
        }
        for threads in [1, 3] {
            let n = 5;
            let mut builder = Topology::builder(n);
            let mut lookaheads = Vec::new();
            for s in 0..n {
                let la = SimDuration::from_micros(1 + (s as u64 * 7) % 13);
                builder = builder.link(s, (s + 1) % n, la);
                lookaheads.push(la);
            }
            let topo = builder.build().expect("builds");
            let logics = (0..n)
                .map(|s| Ring {
                    hops_left: 0,
                    next: (s + 1) % n,
                    lookahead: lookaheads[s],
                })
                .collect();
            let mut engine = ShardEngine::new(topo, logics).expect("engine builds");
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
                        ctx.send(2, SimDuration::from_micros(10), p);
                    }
                } else if ev == u64::MAX - 1 {
                    ctx.schedule_at(SimTime::from_micros(10), 99);
                } else {
                    self.log.push(ev);
                }
            }
        }
        for threads in [1, 2, 3] {
            let topo = Topology::builder(3)
                .link(0, 2, SimDuration::from_micros(10))
                .link(1, 2, SimDuration::from_micros(10))
                .build()
                .expect("builds");
            let node = |burst: Vec<u64>| Node {
                burst,
                log: Vec::new(),
            };
            let mut engine = ShardEngine::new(
                topo,
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
