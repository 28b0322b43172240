//! The congestion-control interface.

use fiveg_net::MSS_BYTES;
use fiveg_simcore::{BitRate, SimDuration, SimTime};
use serde::Serialize;

/// Everything an algorithm learns from one (new-data) ACK.
#[derive(Debug, Clone, Copy)]
pub struct AckSample {
    /// Arrival time of the ACK.
    pub now: SimTime,
    /// Bytes newly acknowledged by this ACK.
    pub acked_bytes: u64,
    /// RTT sample, if the ACK yields one (Karn's rule).
    pub rtt: Option<SimDuration>,
    /// Bytes in flight *after* this ACK was processed.
    pub in_flight: u64,
    /// Estimated delivery rate at the receiver, if measurable.
    pub delivery_rate: Option<BitRate>,
    /// Whether the sender currently has data for the whole window
    /// (false = application-limited; BBR must not take rate samples).
    pub app_limited: bool,
}

/// A pluggable congestion-control algorithm. Quantities are in bytes.
pub trait CongestionControl {
    /// Algorithm name as used in the paper's figures.
    fn name(&self) -> &'static str;
    /// Current congestion window, bytes.
    fn cwnd(&self) -> f64;
    /// Pacing rate, if the algorithm paces (BBR); window-limited
    /// algorithms return `None` and transmit on window space.
    fn pacing_rate(&self) -> Option<BitRate> {
        None
    }
    /// Whether the algorithm is still in its startup/slow-start phase.
    fn in_slow_start(&self) -> bool;
    /// A new-data ACK arrived.
    fn on_ack(&mut self, sample: AckSample);
    /// A loss event was detected by fast retransmit (at most once per
    /// window in recovery).
    fn on_loss_event(&mut self, now: SimTime);
    /// The retransmission timer expired.
    fn on_rto(&mut self, now: SimTime);
}

/// The protocols the paper evaluates (Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum CcAlgorithm {
    /// Loss-based NewReno.
    Reno,
    /// Loss-based Cubic (Linux default).
    Cubic,
    /// Delay-based Vegas.
    Vegas,
    /// Loss/delay hybrid Veno.
    Veno,
    /// Model/probing-based BBR.
    Bbr,
}

impl CcAlgorithm {
    /// All five, in the paper's presentation order.
    pub const ALL: [CcAlgorithm; 5] = [
        CcAlgorithm::Reno,
        CcAlgorithm::Cubic,
        CcAlgorithm::Vegas,
        CcAlgorithm::Veno,
        CcAlgorithm::Bbr,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CcAlgorithm::Reno => "Reno",
            CcAlgorithm::Cubic => "Cubic",
            CcAlgorithm::Vegas => "Vegas",
            CcAlgorithm::Veno => "Veno",
            CcAlgorithm::Bbr => "BBR",
        }
    }

    /// Instantiates the algorithm.
    pub fn build(self) -> Box<dyn CongestionControl> {
        match self {
            CcAlgorithm::Reno => Box::new(crate::reno::Reno::new()),
            CcAlgorithm::Cubic => Box::new(crate::cubic::Cubic::new()),
            CcAlgorithm::Vegas => Box::new(crate::vegas::Vegas::new()),
            CcAlgorithm::Veno => Box::new(crate::veno::Veno::new()),
            CcAlgorithm::Bbr => Box::new(crate::bbr::Bbr::new()),
        }
    }
}

/// Initial congestion window: 10 segments (RFC 6928).
pub fn initial_cwnd() -> f64 {
    10.0 * MSS_BYTES as f64
}

/// Minimum congestion window: 2 segments.
pub fn min_cwnd() -> f64 {
    2.0 * MSS_BYTES as f64
}

/// One MSS as f64 bytes.
pub fn mss() -> f64 {
    MSS_BYTES as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_algorithms_build() {
        for alg in CcAlgorithm::ALL {
            let cc = alg.build();
            assert_eq!(cc.name(), alg.name());
            assert!(cc.cwnd() >= min_cwnd());
            assert!(cc.in_slow_start());
        }
    }

    #[test]
    fn only_bbr_paces() {
        for alg in CcAlgorithm::ALL {
            let cc = alg.build();
            let paces = cc.pacing_rate().is_some();
            assert_eq!(paces, alg == CcAlgorithm::Bbr, "{alg:?}");
        }
    }
}
