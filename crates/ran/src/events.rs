//! Measurement events and the A3 hand-off trigger.
//!
//! The paper (Sec. 3.4, Tab. 5) observed five event types in the
//! operator's configuration — 21.98 % A1, 0.18 % A2, 67.25 % A3, 9.19 %
//! A5, 1.40 % B1 — but the gNB only *acts* on A3: "the signal quality of
//! the neighboring cell is higher than that of the serving cell for a
//! certain period", formally (paper Eq. 1)
//!
//! ```text
//! Mn + Ofn + Ocn − Hys > Ms + Ofs + Ocs + Off
//! ```
//!
//! sustained for `timeToTrigger`. The operator's parameters, extracted
//! via XCAL: an effective 3 dB RSRQ gap threshold and a 324 ms
//! time-to-trigger.

use fiveg_simcore::{Db, SimDuration, SimTime};
use serde::Serialize;

/// The 3GPP measurement-event taxonomy (paper Tab. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum MeasurementEvent {
    /// Serving cell better than a threshold: stop measuring neighbours.
    A1,
    /// Serving cell worse than a threshold: start measuring neighbours.
    A2,
    /// Neighbour better than serving by an offset for a period — the
    /// hand-off trigger.
    A3,
    /// Neighbour better than an absolute threshold.
    A4,
    /// Serving below threshold-1 while neighbour above threshold-2.
    A5,
    /// Inter-RAT neighbour better than a threshold.
    B1,
    /// Serving below threshold-1 while inter-RAT neighbour above
    /// threshold-2.
    B2,
}

impl MeasurementEvent {
    /// Share of each event type among reported events in the paper's
    /// campaign (Sec. 3.4). A4 and B2 were not observed.
    #[cfg(test)]
    fn paper_share(self) -> f64 {
        match self {
            MeasurementEvent::A1 => 0.2198,
            MeasurementEvent::A2 => 0.0018,
            MeasurementEvent::A3 => 0.6725,
            MeasurementEvent::A4 => 0.0,
            MeasurementEvent::A5 => 0.0919,
            MeasurementEvent::B1 => 0.0140,
            MeasurementEvent::B2 => 0.0,
        }
    }

    /// One-line description, as in the paper's Tab. 5.
    pub fn description(self) -> &'static str {
        match self {
            MeasurementEvent::A1 => {
                "serving cell above threshold; UE may stop neighbour measurements"
            }
            MeasurementEvent::A2 => {
                "serving cell below threshold; UE starts neighbour measurements"
            }
            MeasurementEvent::A3 => {
                "neighbour better than serving by an offset for a period (main hand-off trigger)"
            }
            MeasurementEvent::A4 => "neighbour above an absolute threshold",
            MeasurementEvent::A5 => "serving below threshold1 while neighbour above threshold2",
            MeasurementEvent::B1 => "inter-RAT neighbour above a threshold",
            MeasurementEvent::B2 => {
                "serving below threshold1 while inter-RAT neighbour above threshold2"
            }
        }
    }
}

/// A3 trigger configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct A3Config {
    /// Effective neighbour-minus-serving RSRQ gap required, dB
    /// (hysteresis + offsets). Paper: 3 dB for the 5G configuration,
    /// 1 dB for 4G.
    pub gap_db: Db,
    /// How long the condition must hold. Paper: 324 ms.
    pub time_to_trigger: SimDuration,
}

impl A3Config {
    /// The operator's NR configuration from the paper.
    pub fn paper_nr() -> Self {
        A3Config {
            gap_db: Db::new(3.0),
            time_to_trigger: SimDuration::from_millis(324),
        }
    }

    /// The operator's LTE configuration from the paper.
    pub fn paper_lte() -> Self {
        A3Config {
            gap_db: Db::new(1.0),
            time_to_trigger: SimDuration::from_millis(324),
        }
    }
}

/// Stateful A3 evaluator: feed it periodic serving/neighbour quality
/// samples; it reports when the hand-off condition has been sustained
/// for `time_to_trigger`.
#[derive(Debug, Clone)]
pub struct A3Tracker {
    config: A3Config,
    /// Time the condition first became true against the current
    /// candidate, if it is currently true.
    held_since: Option<(u16, SimTime)>,
}

impl A3Tracker {
    /// Creates a tracker.
    pub fn new(config: A3Config) -> Self {
        A3Tracker {
            config,
            held_since: None,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &A3Config {
        &self.config
    }

    /// Feeds one measurement sample.
    ///
    /// `best_neighbor` is the strongest neighbour `(pci, rsrq)`; returns
    /// `Some(pci)` when the A3 condition against that neighbour has held
    /// for the configured time-to-trigger (the caller then executes the
    /// hand-off and should call [`A3Tracker::reset`]).
    pub fn observe(
        &mut self,
        now: SimTime,
        serving_rsrq: Db,
        best_neighbor: Option<(u16, Db)>,
    ) -> Option<u16> {
        let Some((pci, neigh_rsrq)) = best_neighbor else {
            self.held_since = None;
            return None;
        };
        let condition = neigh_rsrq.value() - serving_rsrq.value() > self.config.gap_db.value();
        if !condition {
            self.held_since = None;
            return None;
        }
        match self.held_since {
            // Condition newly true, or the best candidate changed: the
            // timer restarts (3GPP resets T310-style timers per cell).
            None => {
                self.held_since = Some((pci, now));
                None
            }
            Some((held_pci, _)) if held_pci != pci => {
                self.held_since = Some((pci, now));
                None
            }
            Some((_, since)) => {
                if now.since(since) >= self.config.time_to_trigger {
                    Some(pci)
                } else {
                    None
                }
            }
        }
    }

    /// Clears the hold timer (after a hand-off executes).
    pub fn reset(&mut self) {
        self.held_since = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn paper_shares_sum_to_one() {
        let total: f64 = [
            MeasurementEvent::A1,
            MeasurementEvent::A2,
            MeasurementEvent::A3,
            MeasurementEvent::A4,
            MeasurementEvent::A5,
            MeasurementEvent::B1,
            MeasurementEvent::B2,
        ]
        .iter()
        .map(|e| e.paper_share())
        .sum();
        assert!((total - 1.0).abs() < 1e-9, "{total}");
    }

    #[test]
    fn a3_triggers_after_time_to_trigger() {
        let mut t = A3Tracker::new(A3Config::paper_nr());
        let serving = Db::new(-15.0);
        let neigh = Some((44, Db::new(-10.0))); // 5 dB better: condition true
        assert_eq!(t.observe(ms(0), serving, neigh), None);
        assert_eq!(t.observe(ms(200), serving, neigh), None);
        // 324 ms not yet reached at 300 ms.
        assert_eq!(t.observe(ms(300), serving, neigh), None);
        assert_eq!(t.observe(ms(324), serving, neigh), Some(44));
    }

    #[test]
    fn a3_resets_when_condition_breaks() {
        let mut t = A3Tracker::new(A3Config::paper_nr());
        let serving = Db::new(-15.0);
        let strong = Some((44, Db::new(-10.0)));
        let weak = Some((44, Db::new(-14.0))); // only 1 dB better: below 3 dB gap
        t.observe(ms(0), serving, strong);
        t.observe(ms(200), serving, weak); // resets
        assert_eq!(t.observe(ms(400), serving, strong), None); // timer restarted
        assert_eq!(t.observe(ms(724), serving, strong), Some(44));
    }

    #[test]
    fn a3_restarts_on_candidate_change() {
        let mut t = A3Tracker::new(A3Config::paper_nr());
        let serving = Db::new(-15.0);
        t.observe(ms(0), serving, Some((44, Db::new(-10.0))));
        // A different neighbour takes over at 200 ms: timer restarts.
        t.observe(ms(200), serving, Some((45, Db::new(-9.0))));
        assert_eq!(t.observe(ms(400), serving, Some((45, Db::new(-9.0)))), None);
        assert_eq!(
            t.observe(ms(524), serving, Some((45, Db::new(-9.0)))),
            Some(45)
        );
    }

    #[test]
    fn a3_gap_is_strict() {
        let mut t = A3Tracker::new(A3Config::paper_nr());
        let serving = Db::new(-15.0);
        // Exactly 3 dB is NOT enough (condition is strict >).
        let exact = Some((44, Db::new(-12.0)));
        t.observe(ms(0), serving, exact);
        assert_eq!(t.observe(ms(1000), serving, exact), None);
    }

    #[test]
    fn no_neighbor_resets() {
        let mut t = A3Tracker::new(A3Config::paper_nr());
        let serving = Db::new(-15.0);
        let neigh = Some((44, Db::new(-10.0)));
        t.observe(ms(0), serving, neigh);
        t.observe(ms(200), serving, None);
        assert_eq!(t.observe(ms(400), serving, neigh), None);
    }

    #[test]
    fn reset_clears_state() {
        let mut t = A3Tracker::new(A3Config::paper_nr());
        let serving = Db::new(-15.0);
        let neigh = Some((44, Db::new(-10.0)));
        t.observe(ms(0), serving, neigh);
        t.reset();
        assert_eq!(t.observe(ms(324), serving, neigh), None);
        assert_eq!(t.observe(ms(648), serving, neigh), Some(44));
    }

    #[test]
    fn lte_config_is_more_eager() {
        assert!(A3Config::paper_lte().gap_db.value() < A3Config::paper_nr().gap_db.value());
    }
}
