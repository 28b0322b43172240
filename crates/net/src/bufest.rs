//! In-network buffer estimation — the paper's Tab. 3 methodology.
//!
//! The classical "max-min delay" estimator (Chan et al., also Appenzeller
//! et al. for sizing): the buffer at the bottleneck of a path segment is
//!
//! ```text
//! B = (RTT_max − RTT_min) · C / packet_size
//! ```
//!
//! where `C` is the assumed capacity. The paper probes with traceroute,
//! assumes `C = 1 Gbps` and 60-byte probe packets, and reports buffer
//! sizes in packets for the RAN segment, the wired segment and the whole
//! path.

use fiveg_simcore::{BitRate, SimDuration};
use serde::Serialize;

/// The probe packet size the paper assumes, bytes.
pub const PAPER_PROBE_BYTES: f64 = 60.0;

/// The path capacity the paper assumes for the estimate.
pub fn paper_capacity() -> BitRate {
    BitRate::from_gbps(1.0)
}

/// Max-min delay buffer estimate, in probe packets.
pub fn estimate_buffer_pkts(
    rtt_min: SimDuration,
    rtt_max: SimDuration,
    capacity: BitRate,
    probe_bytes: f64,
) -> f64 {
    let dq = rtt_max.as_secs_f64() - rtt_min.as_secs_f64();
    (dq.max(0.0) * capacity.bps() / (8.0 * probe_bytes)).round()
}

/// Tab. 3-shaped result: per-segment estimates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BufferEstimate {
    /// RAN-segment buffer, probe packets.
    pub ran_pkts: f64,
    /// Wired-segment buffer, probe packets.
    pub wired_pkts: f64,
    /// Whole-path buffer, probe packets.
    pub whole_path_pkts: f64,
}

impl BufferEstimate {
    /// Builds the estimate from per-segment min/max RTT observations
    /// using the paper's assumptions (1 Gbps, 60 B probes).
    #[cfg(test)]
    fn from_rtt_spreads(
        ran: (SimDuration, SimDuration),
        wired: (SimDuration, SimDuration),
    ) -> Self {
        let c = paper_capacity();
        let ran_pkts = estimate_buffer_pkts(ran.0, ran.1, c, PAPER_PROBE_BYTES);
        let wired_pkts = estimate_buffer_pkts(wired.0, wired.1, c, PAPER_PROBE_BYTES);
        BufferEstimate {
            ran_pkts,
            wired_pkts,
            whole_path_pkts: ran_pkts + wired_pkts,
        }
    }

    /// The paper's published Tab. 3 values for reference.
    #[cfg(test)]
    fn paper_table3(tech_is_nr: bool) -> BufferEstimate {
        if tech_is_nr {
            BufferEstimate {
                ran_pkts: 2586.0,
                wired_pkts: 26724.0,
                whole_path_pkts: 29310.0,
            }
        } else {
            BufferEstimate {
                ran_pkts: 468.0,
                wired_pkts: 10539.0,
                whole_path_pkts: 11007.0,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimator_formula() {
        // 10 ms of queueing at 1 Gbps over 60 B packets ≈ 20 833 pkts.
        let b = estimate_buffer_pkts(
            SimDuration::from_millis(20),
            SimDuration::from_millis(30),
            paper_capacity(),
            PAPER_PROBE_BYTES,
        );
        assert!((b - 20_833.0).abs() < 1.0, "{b}");
    }

    #[test]
    fn negative_spread_clamps_to_zero() {
        let b = estimate_buffer_pkts(
            SimDuration::from_millis(30),
            SimDuration::from_millis(20),
            paper_capacity(),
            PAPER_PROBE_BYTES,
        );
        assert_eq!(b, 0.0);
    }

    #[test]
    fn paper_values_have_the_key_ratios() {
        let nr = BufferEstimate::paper_table3(true);
        let lte = BufferEstimate::paper_table3(false);
        // RAN ≈ 5.5×, wired ≈ 2.5×, whole path ≈ 2.66×.
        assert!((nr.ran_pkts / lte.ran_pkts - 5.53).abs() < 0.1);
        assert!((nr.wired_pkts / lte.wired_pkts - 2.54).abs() < 0.1);
        assert!((nr.whole_path_pkts / lte.whole_path_pkts - 2.66).abs() < 0.1);
    }

    #[test]
    fn segments_sum_to_whole_path() {
        let e = BufferEstimate::from_rtt_spreads(
            (SimDuration::from_millis(2), SimDuration::from_millis(4)),
            (SimDuration::from_millis(10), SimDuration::from_millis(18)),
        );
        assert!((e.ran_pkts + e.wired_pkts - e.whole_path_pkts).abs() < 1e-9);
    }
}
