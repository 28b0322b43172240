//! # fiveg-transport
//!
//! Transport protocols over `fiveg-net`, reproducing the paper's Sec. 4
//! protocol matrix: loss-based Reno and Cubic, delay-based Vegas and
//! Veno, the capacity-probing BBR, and a UDP constant-bit-rate prober
//! for baseline and loss measurements.
//!
//! * [`CongestionControl`] — the congestion-control trait, with
//!   [`AckSample`] and the [`CcAlgorithm`] selector.
//! * [`Reno`], [`Cubic`], [`Vegas`], [`Veno`], [`Bbr`] — the algorithms.
//! * [`TcpSender`] — the TCP sender machinery (window management,
//!   NewReno recovery, RTO, pacing, cwnd tracing) implementing
//!   `fiveg_net::Endpoint`, reporting through [`SenderReport`].
//! * [`udp`] — the CBR source ([`UdpCbrSender`]) used for the UDP
//!   baselines (Fig. 7) and the loss-versus-load sweep (Fig. 9).

#![warn(missing_docs, clippy::unwrap_used, clippy::expect_used)]

mod bbr;
mod cc;
mod cubic;
mod reno;
mod sender;
pub mod udp;
mod vegas;
mod veno;

pub use bbr::Bbr;
pub use cc::{min_cwnd, AckSample, CcAlgorithm, CongestionControl};
pub use cubic::Cubic;
pub use reno::Reno;
pub use sender::{SenderReport, TcpSender};
pub use udp::UdpCbrSender;
pub use vegas::Vegas;
pub use veno::Veno;
