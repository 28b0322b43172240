//! PRB allocation under user contention.
//!
//! All users of a cell share its physical resource blocks, and a user's
//! bitrate is proportional to its PRB share (paper Sec. 4.1). The
//! day/night path rates of `fiveg_net::PaperPathParams` carry that
//! share; this module names the regime. The paper's XCAL traces show:
//!
//! * 5G: 260–264 of 273 PRBs granted to the test phone *regardless of
//!   time of day* — the early-deployment network is essentially empty.
//! * 4G: 40–85 of 100 PRBs by day (busy-hour contention), 95–100 at
//!   night.

use serde::Serialize;

/// Time-of-day regime for contention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum DayPeriod {
    /// Busy hours.
    Day,
    /// Late night.
    Night,
}
