//! The canonical measurement scenario.

use fiveg_geo::{Campus, CampusConfig};
use fiveg_phy::RadioEnv;
use fiveg_ran::DayPeriod;
use fiveg_simcore::SimRng;
use serde::Serialize;

/// Experiment fidelity: how long/large each campaign runs.
///
/// `Quick` keeps CI fast; `Paper` matches the paper's methodology more
/// closely (60 s iperf runs, larger sample counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Fidelity {
    /// Short runs for tests and smoke checks.
    Quick,
    /// Paper-scale runs for the repro binary and benches.
    Paper,
}

impl Fidelity {
    /// iperf-style flow duration, seconds (paper: 60 s).
    pub fn flow_secs(self) -> u64 {
        match self {
            Fidelity::Quick => 8,
            Fidelity::Paper => 60,
        }
    }

    /// Repetitions per data point (paper: 5).
    pub fn repeats(self) -> u64 {
        match self {
            Fidelity::Quick => 1,
            Fidelity::Paper => 5,
        }
    }

    /// Hand-off campaign length, minutes (paper: 80).
    pub fn campaign_minutes(self) -> u64 {
        match self {
            Fidelity::Quick => 15,
            Fidelity::Paper => 80,
        }
    }
}

/// The full measurement scenario: campus + deployed radio environment.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The generated campus (map + site plan).
    pub campus: Campus,
    /// The radio environment with the daytime load profile.
    pub env: RadioEnv,
    /// Root seed.
    pub seed: u64,
}

impl Scenario {
    /// Builds the paper's campus with daytime cell loads.
    pub fn paper(seed: u64) -> Scenario {
        Self::with_period(seed, DayPeriod::Day)
    }

    /// Builds the scenario for a given time-of-day regime. Cell activity
    /// factors drive inter-cell interference: the 4G network is busy by
    /// day and quieter at night; the early 5G network is nearly empty
    /// around the clock (Sec. 4.1).
    pub fn with_period(seed: u64, period: DayPeriod) -> Scenario {
        let campus = Campus::generate(&CampusConfig::default(), &mut SimRng::new(seed));
        let (lte_load, nr_load) = match period {
            DayPeriod::Day => (0.5, 0.05),
            DayPeriod::Night => (0.2, 0.03),
        };
        let env = RadioEnv::from_campus(&campus, seed ^ 0x5eed, lte_load, nr_load);
        Scenario { campus, env, seed }
    }

    /// A derived RNG substream for an experiment.
    pub fn rng(&self, label: &str) -> SimRng {
        SimRng::new(self.seed).substream(label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiveg_phy::Tech;

    #[test]
    fn scenario_builds_paper_deployment() {
        let sc = Scenario::paper(2020);
        assert_eq!(sc.env.num_cells(Tech::Lte), 34);
        assert_eq!(sc.env.num_cells(Tech::Nr), 13);
        assert_eq!(sc.campus.map.bounds.width(), 500.0);
    }

    #[test]
    fn scenario_is_deterministic() {
        let a = Scenario::paper(7);
        let b = Scenario::paper(7);
        assert_eq!(a.campus.plan, b.campus.plan);
        let mut ra = a.rng("x");
        let mut rb = b.rng("x");
        use rand::RngCore;
        assert_eq!(ra.next_u64(), rb.next_u64());
    }

    #[test]
    fn fidelity_scales() {
        assert!(Fidelity::Paper.flow_secs() > Fidelity::Quick.flow_secs());
        assert!(Fidelity::Paper.campaign_minutes() > Fidelity::Quick.campaign_minutes());
    }
}
