//! Link-rate models.
//!
//! Wired links have a fixed rate; the radio access link's rate follows
//! the channel (PRB share × MCS) and drops to zero during hand-off
//! interruptions, which [`RateModel::Piecewise`] captures as a step
//! function over time.

use fiveg_simcore::{BitRate, SimTime};
use serde::Serialize;

/// A (possibly time-varying) link rate.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum RateModel {
    /// Constant rate.
    Fixed(BitRate),
    /// Piecewise-constant rate: `points[i] = (t_i, rate)` applies from
    /// `t_i` (inclusive) until the next point. Before the first point the
    /// first rate applies. Points must be in ascending time order.
    Piecewise(Vec<(SimTime, BitRate)>),
}

impl RateModel {
    /// Builds a piecewise model, validating ordering.
    pub fn piecewise(points: Vec<(SimTime, BitRate)>) -> RateModel {
        assert!(!points.is_empty(), "need at least one point");
        assert!(
            points.windows(2).all(|w| w[0].0 <= w[1].0),
            "piecewise points must be time-ordered"
        );
        RateModel::Piecewise(points)
    }

    /// The rate in force at time `t`.
    pub fn rate_at(&self, t: SimTime) -> BitRate {
        match self {
            RateModel::Fixed(r) => *r,
            RateModel::Piecewise(points) => {
                let idx = points.partition_point(|&(pt, _)| pt <= t);
                if idx == 0 {
                    points[0].1
                } else {
                    points[idx - 1].1
                }
            }
        }
    }

    /// The next instant strictly after `t` at which the rate changes,
    /// if any.
    pub fn next_change_after(&self, t: SimTime) -> Option<SimTime> {
        match self {
            RateModel::Fixed(_) => None,
            RateModel::Piecewise(points) => points.iter().map(|&(pt, _)| pt).find(|&pt| pt > t),
        }
    }

    /// Inserts an outage (rate 0) of `duration` starting at `start` into
    /// a copy of this model — used to model hand-off interruptions.
    #[cfg(test)]
    pub(crate) fn with_outage(
        &self,
        start: SimTime,
        duration: fiveg_simcore::SimDuration,
    ) -> RateModel {
        let resume = start + duration;
        let resume_rate = self.rate_at(resume);
        let mut points: Vec<(SimTime, BitRate)> = match self {
            RateModel::Fixed(r) => vec![(SimTime::ZERO, *r)],
            RateModel::Piecewise(p) => p.clone(),
        };
        points.retain(|&(t, _)| t < start || t >= resume);
        points.push((start, BitRate::ZERO));
        points.push((resume, resume_rate));
        points.sort_by_key(|&(t, _)| t);
        RateModel::Piecewise(points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiveg_simcore::SimDuration;
    use proptest::prelude::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn fixed_rate() {
        let m = RateModel::Fixed(BitRate::from_mbps(100.0));
        assert_eq!(m.rate_at(ms(5)).mbps(), 100.0);
        assert_eq!(m.next_change_after(ms(5)), None);
    }

    #[test]
    fn piecewise_lookup() {
        let m = RateModel::piecewise(vec![
            (ms(0), BitRate::from_mbps(100.0)),
            (ms(10), BitRate::from_mbps(50.0)),
            (ms(20), BitRate::from_mbps(200.0)),
        ]);
        assert_eq!(m.rate_at(ms(0)).mbps(), 100.0);
        assert_eq!(m.rate_at(ms(9)).mbps(), 100.0);
        assert_eq!(m.rate_at(ms(10)).mbps(), 50.0);
        assert_eq!(m.rate_at(ms(25)).mbps(), 200.0);
        assert_eq!(m.next_change_after(ms(0)), Some(ms(10)));
        assert_eq!(m.next_change_after(ms(10)), Some(ms(20)));
        assert_eq!(m.next_change_after(ms(20)), None);
    }

    #[test]
    fn outage_inserts_zero_window() {
        let m = RateModel::Fixed(BitRate::from_mbps(100.0))
            .with_outage(ms(50), SimDuration::from_millis(108));
        assert_eq!(m.rate_at(ms(49)).mbps(), 100.0);
        assert_eq!(m.rate_at(ms(50)).mbps(), 0.0);
        assert_eq!(m.rate_at(ms(150)).mbps(), 0.0);
        assert_eq!(m.rate_at(ms(158)).mbps(), 100.0);
        assert_eq!(m.next_change_after(ms(60)), Some(ms(158)));
    }

    #[test]
    fn outage_on_piecewise_preserves_other_steps() {
        let m = RateModel::piecewise(vec![
            (ms(0), BitRate::from_mbps(100.0)),
            (ms(200), BitRate::from_mbps(50.0)),
        ])
        .with_outage(ms(100), SimDuration::from_millis(30));
        assert_eq!(m.rate_at(ms(110)).mbps(), 0.0);
        assert_eq!(m.rate_at(ms(140)).mbps(), 100.0);
        assert_eq!(m.rate_at(ms(250)).mbps(), 50.0);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn rejects_unordered_points() {
        let _ = RateModel::piecewise(vec![
            (ms(10), BitRate::from_mbps(1.0)),
            (ms(5), BitRate::from_mbps(2.0)),
        ]);
    }

    proptest! {
        /// An outage inserted into any rate model yields zero rate inside
        /// the window and restores afterwards.
        #[test]
        fn outage_window(start in 0u64..5_000, dur in 1u64..2_000, rate in 1.0f64..500.0) {
            let m = RateModel::Fixed(BitRate::from_mbps(rate))
                .with_outage(SimTime::from_millis(start), SimDuration::from_millis(dur));
            prop_assert_eq!(m.rate_at(SimTime::from_millis(start)).bps(), 0.0);
            let inside = start + dur / 2;
            prop_assert_eq!(m.rate_at(SimTime::from_millis(inside)).bps(), 0.0);
            let after = start + dur;
            prop_assert!((m.rate_at(SimTime::from_millis(after)).mbps() - rate).abs() < 1e-9);
        }
    }
}
