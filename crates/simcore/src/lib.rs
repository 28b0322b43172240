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
//! Modules:
//!
//! * [`time`] — nanosecond-resolution virtual clock ([`SimTime`],
//!   [`SimDuration`]).
//! * [`event`] — generic event queue with deterministic FIFO
//!   tie-breaking: a binary heap plus FIFO lanes for in-order streams.
//!   Its `(time, seq)` order is the only event order in the workspace:
//!   the packet simulator stamps seqs through the queue, and the shard
//!   engine brings origin-packed keys through `schedule_keyed`. The
//!   queue reports its totals; its owner flushes them as counters.
//! * [`shard`] — conservative parallel discrete-event engine: one
//!   [`EventQueue`] per shard, every message one lookahead long, and
//!   barrier-released safe windows one lookahead wide.
//! * [`rng`] — seedable ChaCha-based random stream with named substreams.
//! * [`dist`] — the probability distributions the models need (normal,
//!   log-normal, exponential, Pareto), implemented on top of [`rng`].
//! * [`stats`] — online statistics, histograms and empirical CDFs used to
//!   aggregate measurement campaigns.
//! * [`units`] — strongly-typed radio/network units (dBm, dB, Hz, bit/s,
//!   mW, J) with explicit, documented conversions.
//! * [`trace`] — lightweight time-series recorders for KPI and power
//!   traces.
//! * [`hash`] — stable FNV-1a hashing for campaign seed derivation and
//!   artifact fingerprints.

#![warn(missing_docs, clippy::unwrap_used, clippy::expect_used)]

pub mod dist;
pub mod event;
pub mod hash;
pub mod rng;
pub mod shard;
pub mod stats;
pub mod time;
pub mod trace;
pub mod units;

pub use event::{EventQueue, ScheduledEvent};
pub use rng::SimRng;
pub use shard::{ShardCtx, ShardEngine, ShardError, ShardId, ShardLogic, ShardRun, ShardStats};
pub use stats::{Cdf, Histogram, OnlineStats};
pub use time::{SimDuration, SimTime};
pub use trace::TimeSeries;
pub use units::{Bandwidth, BitRate, Db, Dbm, Energy, Frequency, Power};
