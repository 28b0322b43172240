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

use fiveg_simcore::{BitRate, Dist};
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
