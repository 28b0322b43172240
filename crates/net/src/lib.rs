//! # fiveg-net
//!
//! Packet-level discrete-event network simulator: the end-to-end path
//! substrate under the paper's transport experiments (Sec. 4).
//!
//! A simulation is a single forward path — a chain of [`Hop`]s, each
//! a serialising link plus a finite drop-tail queue — with a fixed-delay
//! reverse channel for ACKs. The first hop usually models the radio
//! access link (time-varying rate, HARQ delay jitter, hand-off outages);
//! one wired hop models the metro bottleneck router where the paper's
//! packet-loss anomaly lives, complete with bursty cross-traffic.
//!
//! * [`Packet`], [`FlowId`] — packets and flow identifiers.
//! * [`RateModel`] — fixed and piecewise link-rate models (rate 0 =
//!   outage, e.g. during a hand-off).
//! * [`Hop`] ([`HopConfig`], [`HopStats`]) — a link + drop-tail queue
//!   with loss/latency statistics and smoltcp-style fault injection
//!   (random drop, extra-delay jitter).
//! * [`NetSim`] — the event loop, and the [`Endpoint`] trait transport
//!   protocols implement ([`Ctx`], [`AckInfo`], [`TimerKind`]).
//! * [`CrossTraffic`] — on/off CBR background load injected at a chosen
//!   hop (the mechanism behind the paper's bursty in-network loss,
//!   Fig. 11).
//! * [`path`] — canonical path configurations ([`PathConfig`])
//!   calibrated to the paper's 4G/5G measurements (capacities, buffers,
//!   base RTTs; Tab. 3).
//! * [`PAPER_SERVERS`] — the paper's 20 SPEEDTEST [`Server`]s (Tab. 6)
//!   used by the latency study.
//! * [`LatencyModel`] ([`RatTech`]) — per-hop RTT decomposition and
//!   RTT-vs-distance models (Figs. 13–15).
//! * [`estimate_buffer_pkts`] ([`BufferEstimate`]) — the classical
//!   max-min-delay in-network buffer estimator the paper uses for
//!   Tab. 3.

#![warn(missing_docs, clippy::unwrap_used, clippy::expect_used)]

mod bufest;
mod crosstraffic;
mod hop;
mod packet;
pub mod path;
mod ratemodel;
mod servers;
mod sim;
mod traceroute;

pub use bufest::{estimate_buffer_pkts, paper_capacity, BufferEstimate, PAPER_PROBE_BYTES};
pub use crosstraffic::CrossTraffic;
pub use hop::{Hop, HopConfig, HopStats};
pub use packet::{FlowId, Packet, MSS_BYTES};
pub use path::PathConfig;
pub use ratemodel::RateModel;
pub use servers::{Server, PAPER_SERVERS};
pub use sim::{AckInfo, Ctx, Endpoint, FlowStats, NetSim, TimerKind};
pub use traceroute::{LatencyModel, RatTech};
