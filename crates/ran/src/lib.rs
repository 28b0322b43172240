//! # fiveg-ran
//!
//! Cellular control-plane substrate: everything between the physical
//! layer (`fiveg-phy`) and the packet network (`fiveg-net`).
//!
//! * [`MeasurementEvent`] — the 3GPP measurement-event taxonomy (A1–A5,
//!   B1/B2, paper Tab. 5), and [`A3Tracker`] ([`A3Config`]), the A3
//!   evaluator with hysteresis and time-to-trigger that the paper found
//!   to drive all hand-offs.
//! * [`HandoffProcedure`] — the NSA hand-off signalling procedures
//!   reverse-engineered in the paper's Appendix A, as
//!   [`SignalingStep`]s with per-step latency models calibrated to
//!   Fig. 6 (4G-4G ≈30 ms, 4G-5G ≈80 ms, 5G-5G ≈108 ms).
//! * [`HandoffCampaign`] — the hand-off campaign simulator: drives an
//!   [`NsaUe`] along a mobility trace, evaluates measurement events,
//!   executes hand-offs and records the [`HandoffRecord`] log
//!   ([`HandoffKind`]) the paper's Figs. 4/5/6/12 are drawn from.
//! * [`attempts_histogram`] ([`HarqConfig`], [`HarqOutcome`]) —
//!   MAC-layer HARQ retransmission ladder (Fig. 10) with the 32-attempt
//!   ceiling the paper extracted from PDSCH configuration.
//! * [`DayPeriod`] — the time-of-day contention regime (Sec. 4.1: 5G
//!   users get essentially all PRBs around the clock; 4G users get
//!   40–85 of 100 by day, 95–100 at night).

#![warn(missing_docs, clippy::unwrap_used, clippy::expect_used)]

mod events;
mod handoff;
mod harq;
mod prb;
mod signaling;

pub use events::{A3Config, A3Tracker, MeasurementEvent};
pub use handoff::{HandoffCampaign, HandoffKind, HandoffRecord, NsaUe};
pub use harq::{attempts_histogram, HarqConfig, HarqOutcome};
pub use prb::DayPeriod;
pub use signaling::{HandoffProcedure, SignalingStep};
