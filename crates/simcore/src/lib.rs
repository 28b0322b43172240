//! # fiveg-simcore
//!
//! Deterministic discrete-event simulation kernel shared by every crate in
//! the `fiveg` workspace, the simulation reproduction of *"Understanding
//! Operational 5G: A First Measurement Study on Its Coverage, Performance
//! and Energy Consumption"* (SIGCOMM 2020).
//!
//! The kernel is deliberately small and synchronous: simulations here are
//! CPU-bound, single-threaded and must be bit-for-bit reproducible from a
//! seed. The design follows the smoltcp school of event-driven code — the
//! world owns all state, events are plain values ordered by a monotonic
//! virtual clock, and nothing in the hot path allocates beyond the event
//! queue itself.
//!
//! The API:
//!
//! * [`SimTime`], [`SimDuration`] — the nanosecond-resolution virtual
//!   clock.
//! * [`EventQueue`] — generic event queue with deterministic FIFO
//!   tie-breaking: a binary heap plus FIFO lanes for in-order streams.
//!   Its `(time, seq)` order is the only event order in the workspace:
//!   the packet simulator stamps seqs through the queue, and the shard
//!   engine brings origin-packed keys through `schedule_keyed`. The
//!   queue reports its totals; its owner flushes them as counters.
//! * [`ShardEngine`] — conservative parallel discrete-event engine: one
//!   [`EventQueue`] per shard, every message one lookahead long, and
//!   barrier-released safe windows one lookahead wide. Shard code
//!   implements [`ShardLogic`] and sends through [`ShardCtx`].
//! * [`SimRng`] — seedable ChaCha-based random stream with named
//!   substreams, and [`Dist`] with [`normal`], the distributions the
//!   models draw from (normal, log-normal, exponential, Pareto).
//! * [`OnlineStats`], [`Histogram`], [`Cdf`] — online statistics,
//!   histograms and empirical CDFs that aggregate measurement campaigns.
//! * [`Dbm`], [`Db`], [`Frequency`], [`Bandwidth`], [`BitRate`],
//!   [`Power`], [`Energy`] — strongly-typed radio/network units with
//!   explicit, documented conversions.
//! * [`TimeSeries`] — the power trace recorder.
//! * [`hash`] — stable FNV-1a hashing for campaign seed derivation and
//!   artifact fingerprints.

#![warn(missing_docs, clippy::unwrap_used, clippy::expect_used)]

mod dist;
mod event;
pub mod hash;
mod rng;
mod shard;
mod stats;
mod time;
mod trace;
mod units;

pub use dist::{normal, Dist};
pub use event::{EventQueue, ScheduledEvent};
pub use rng::SimRng;
pub use shard::{ShardCtx, ShardEngine, ShardError, ShardId, ShardLogic, ShardRun, ShardStats};
pub use stats::{Cdf, Histogram, OnlineStats};
pub use time::{SimDuration, SimTime};
pub use trace::TimeSeries;
pub use units::{Bandwidth, BitRate, Db, Dbm, Energy, Frequency, Power};
