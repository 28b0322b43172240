//! # fiveg-transport
//!
//! Transport protocols over `fiveg-net`, reproducing the paper's Sec. 4
//! protocol matrix: loss-based Reno and Cubic, delay-based Vegas and
//! Veno, the capacity-probing BBR, and a UDP constant-bit-rate prober
//! for baseline and loss measurements.
//!
//! * [`cc`] — the congestion-control trait and shared types.
//! * [`reno`], [`cubic`], [`vegas`], [`veno`], [`bbr`] — the algorithms.
//! * [`sender`] — the TCP sender machinery (window management, NewReno
//!   recovery, RTO, pacing, cwnd tracing) implementing
//!   `fiveg_net::Endpoint`.
//! * [`udp`] — the CBR source used for the UDP baselines (Fig. 7) and
//!   the loss-versus-load sweep (Fig. 9).

#![warn(missing_docs, clippy::unwrap_used, clippy::expect_used)]

pub mod bbr;
pub mod cc;
pub mod cubic;
pub mod reno;
pub mod sender;
pub mod udp;
pub mod vegas;
pub mod veno;

pub use bbr::Bbr;
pub use cc::{AckSample, CcAlgorithm, CongestionControl};
pub use cubic::Cubic;
pub use reno::Reno;
pub use sender::{SenderReport, TcpSender};
pub use udp::UdpCbrSender;
pub use vegas::Vegas;
pub use veno::Veno;
