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

#[cfg(test)]
mod tests {
    use super::*;
    use fiveg_phy::Tech;
    use fiveg_simcore::SimRng;

    /// Draws the PRB share a single saturated user receives, from the
    /// paper's grants above.
    struct PrbAllocator {
        /// Technology whose contention regime applies.
        tech: Tech,
        /// Time-of-day regime.
        period: DayPeriod,
    }

    impl PrbAllocator {
        /// Creates an allocator.
        fn new(tech: Tech, period: DayPeriod) -> Self {
            PrbAllocator { tech, period }
        }

        /// The PRB-count range `(lo, hi)` observed in the paper for this
        /// regime, out of [`PrbAllocator::total_prbs`].
        fn paper_range(&self) -> (u32, u32) {
            match (self.tech, self.period) {
                (Tech::Nr, _) => (260, 264),
                (Tech::Lte, DayPeriod::Day) => (40, 85),
                (Tech::Lte, DayPeriod::Night) => (95, 100),
            }
        }

        /// Total PRBs in the carrier.
        fn total_prbs(&self) -> u32 {
            match self.tech {
                Tech::Nr => 273,
                Tech::Lte => 100,
            }
        }

        /// Samples a granted PRB count.
        fn sample_prbs(&self, rng: &mut SimRng) -> u32 {
            let (lo, hi) = self.paper_range();
            rng.range_u64(lo as u64, hi as u64 + 1) as u32
        }

        /// Samples the granted PRB *fraction* in `[0, 1]`.
        fn sample_fraction(&self, rng: &mut SimRng) -> f64 {
            self.sample_prbs(rng) as f64 / self.total_prbs() as f64
        }

        /// Mean granted fraction for this regime.
        fn mean_fraction(&self) -> f64 {
            let (lo, hi) = self.paper_range();
            (lo + hi) as f64 / 2.0 / self.total_prbs() as f64
        }
    }

    #[test]
    fn nr_gets_nearly_everything_day_and_night() {
        for period in [DayPeriod::Day, DayPeriod::Night] {
            let a = PrbAllocator::new(Tech::Nr, period);
            assert!(a.mean_fraction() > 0.95, "{period:?}");
        }
    }

    #[test]
    fn lte_contention_has_day_night_swing() {
        let day = PrbAllocator::new(Tech::Lte, DayPeriod::Day).mean_fraction();
        let night = PrbAllocator::new(Tech::Lte, DayPeriod::Night).mean_fraction();
        assert!(day < 0.7, "day {day}");
        assert!(night > 0.93, "night {night}");
    }

    #[test]
    fn samples_stay_in_paper_range() {
        let mut rng = SimRng::new(3);
        let a = PrbAllocator::new(Tech::Lte, DayPeriod::Day);
        for _ in 0..1_000 {
            let p = a.sample_prbs(&mut rng);
            assert!((40..=85).contains(&p), "{p}");
        }
    }

    #[test]
    fn fractions_normalised_by_carrier_size() {
        let mut rng = SimRng::new(4);
        let a = PrbAllocator::new(Tech::Nr, DayPeriod::Day);
        for _ in 0..100 {
            let f = a.sample_fraction(&mut rng);
            assert!(f > 0.95 && f <= 1.0);
        }
    }
}
