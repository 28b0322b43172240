//! # fiveg-net
//!
//! Packet-level discrete-event network simulator: the end-to-end path
//! substrate under the paper's transport experiments (Sec. 4).
//!
//! A simulation is a single forward path — a chain of [`hop::Hop`]s, each
//! a serialising link plus a finite drop-tail queue — with a fixed-delay
//! reverse channel for ACKs. The first hop usually models the radio
//! access link (time-varying rate, HARQ delay jitter, hand-off outages);
//! one wired hop models the metro bottleneck router where the paper's
//! packet-loss anomaly lives, complete with bursty cross-traffic.
//!
//! * [`packet`] — packets and flow identifiers.
//! * [`ratemodel`] — fixed and piecewise link-rate models (rate 0 =
//!   outage, e.g. during a hand-off).
//! * [`hop`] — a link + drop-tail queue with loss/latency statistics and
//!   smoltcp-style fault injection (random drop, extra-delay jitter).
//! * [`sim`] — the event loop and the [`sim::Endpoint`] trait transport
//!   protocols implement.
//! * [`crosstraffic`] — on/off CBR background load injected at a chosen
//!   hop (the mechanism behind the paper's bursty in-network loss,
//!   Fig. 11).
//! * [`path`] — canonical path configurations calibrated to the paper's
//!   4G/5G measurements (capacities, buffers, base RTTs; Tab. 3).
//! * [`servers`] — the paper's 20 SPEEDTEST servers (Tab. 6) used by the
//!   latency study.
//! * [`traceroute`] — per-hop RTT decomposition and RTT-vs-distance
//!   models (Figs. 13–15).
//! * [`bufest`] — the classical max-min-delay in-network buffer
//!   estimator the paper uses for Tab. 3.

#![warn(missing_docs, clippy::unwrap_used, clippy::expect_used)]

pub mod bufest;
pub mod crosstraffic;
pub mod hop;
pub mod packet;
pub mod path;
pub mod ratemodel;
pub mod servers;
pub mod sim;
pub mod traceroute;

pub use hop::{Hop, HopConfig, HopStats};
pub use packet::{FlowId, Packet, MSS_BYTES};
pub use path::PathConfig;
pub use ratemodel::RateModel;
pub use sim::{AckInfo, Ctx, Endpoint, FlowStats, NetSim, TimerKind};
