//! Bursty background cross-traffic.
//!
//! The paper's in-network loss anomaly (Sec. 4.2) is bursty (Fig. 11) and
//! grows steeply with offered load (Fig. 9) — the signature of a shared
//! bottleneck router whose spare capacity transiently vanishes under
//! bursts of other customers' traffic while its buffer is too shallow for
//! the 5G-era rate. We model that with an on/off CBR source injected at
//! the bottleneck hop: during ON periods it emits MSS-sized packets at
//! `rate`; OFF periods are idle. Durations are drawn from configurable
//! distributions.

use fiveg_simcore::dist::Dist;
use fiveg_simcore::BitRate;
use serde::Serialize;

/// Cross-traffic configuration.
#[derive(Debug, Clone, Serialize)]
pub struct CrossTraffic {
    /// Index of the hop the traffic is injected at.
    pub hop: usize,
    /// Emission rate during ON periods.
    pub rate: BitRate,
    /// ON-period duration, milliseconds.
    pub on_ms: Dist,
    /// OFF-period duration, milliseconds.
    pub off_ms: Dist,
}

impl CrossTraffic {
    /// The calibrated metro-router background load: ~620 Mbps bursts of
    /// ≈25 ms mean every ≈115 ms (≈22 % duty, ≈135 Mbps average). On a
    /// 1 Gbps router this leaves the 4G downlink (≤200 Mbps) unharmed
    /// but collides with 5G-scale flows, reproducing the paper's Fig. 9
    /// loss-vs-load curve.
    pub fn paper_metro(hop: usize) -> CrossTraffic {
        CrossTraffic {
            hop,
            rate: BitRate::from_mbps(620.0),
            on_ms: Dist::Exponential { mean: 25.0 },
            off_ms: Dist::Exponential { mean: 90.0 },
        }
    }

    /// Long-run average rate of the source.
    pub fn average_rate(&self) -> BitRate {
        let on = self.on_ms.mean();
        let off = self.off_ms.mean();
        BitRate::from_bps(self.rate.bps() * on / (on + off))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duty_cycle_average() {
        let ct = CrossTraffic::paper_metro(2);
        let avg = ct.average_rate().mbps();
        assert!((130.0..140.0).contains(&avg), "avg {avg}");
    }
}
