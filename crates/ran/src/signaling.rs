//! NSA hand-off signalling procedures and their latency.
//!
//! The paper reverse-engineered the NSA hand-off message sequence from
//! XCAL traces (Appendix A, Fig. 24): under NSA the 5G NR leg has no
//! control plane of its own, so a 5G→5G hand-off must (i) release the
//! current NR resource, (ii) perform an LTE hand-off between the master
//! eNBs, and (iii) re-add NR resources on the target — which is why it
//! takes 108.4 ms on average versus 30.1 ms for a plain 4G→4G hand-off
//! (Fig. 6).
//!
//! Each procedure is a list of [`SignalingStep`]s with per-step latency
//! distributions; the step means sum to the paper's Fig. 6 averages.

use fiveg_simcore::{Dist, SimDuration, SimRng};
use serde::Serialize;

/// One signalling exchange within a hand-off procedure.
#[derive(Debug, Clone, Serialize)]
pub struct SignalingStep {
    /// Message / phase name (as in the paper's Fig. 24).
    pub name: &'static str,
    /// Latency distribution, milliseconds.
    pub latency_ms: Dist,
}

impl SignalingStep {
    fn new(name: &'static str, mean_ms: f64, std_ms: f64) -> Self {
        SignalingStep {
            name,
            latency_ms: Dist::NormalClamped {
                mean: mean_ms,
                std_dev: std_ms,
                min: 0.5,
            },
        }
    }
}

/// A hand-off procedure: an ordered list of signalling steps.
#[derive(Debug, Clone, Serialize)]
pub struct HandoffProcedure {
    /// Procedure name.
    pub name: &'static str,
    /// The steps, in execution order.
    pub steps: Vec<SignalingStep>,
}

impl HandoffProcedure {
    /// Plain LTE hand-off (4G→4G): measurement report → decision/
    /// admission → RRC reconfiguration → RACH on the target. Mean
    /// ≈30.1 ms (paper Fig. 6).
    pub fn lte_to_lte() -> Self {
        HandoffProcedure {
            name: "4G-4G",
            steps: vec![
                SignalingStep::new("measurement report processing", 4.0, 1.0),
                SignalingStep::new("HO decision + admission control", 8.1, 2.0),
                SignalingStep::new("RRC connection reconfiguration", 10.0, 2.5),
                SignalingStep::new("random access on target eNB", 8.0, 2.0),
            ],
        }
    }

    /// NSA NR hand-off (5G→5G): release the NR leg, hand the LTE anchor
    /// over, then re-add NR on the target (LTE MAC RACH trigger → ... →
    /// NR MAC RACH Attempt SUCCESS). Mean ≈108.4 ms.
    pub fn nr_to_nr() -> Self {
        let mut steps = vec![SignalingStep::new(
            "NR resource release to master eNB",
            12.0,
            3.0,
        )];
        steps.extend(Self::lte_to_lte().steps); // anchor hand-off, 30.1 ms
        steps.extend(vec![
            SignalingStep::new("SgNB addition request + ACK", 14.3, 3.0),
            SignalingStep::new("RRC reconfiguration (NR config)", 18.0, 4.0),
            SignalingStep::new("SN status transfer + path update", 18.0, 4.0),
            SignalingStep::new("NR random access (RACH attempt)", 16.0, 4.0),
        ]);
        HandoffProcedure {
            name: "5G-5G",
            steps,
        }
    }

    /// Vertical hand-off into 5G (4G→5G): SgNB addition on the current
    /// master eNB, no anchor hand-off. Mean ≈80.2 ms.
    pub fn lte_to_nr() -> Self {
        HandoffProcedure {
            name: "4G-5G",
            steps: vec![
                SignalingStep::new("B1 measurement report processing", 8.0, 2.0),
                SignalingStep::new("SgNB addition request + ACK", 14.2, 3.0),
                SignalingStep::new("RRC reconfiguration (NR config)", 18.0, 4.0),
                SignalingStep::new("NR random access (RACH attempt)", 16.0, 4.0),
                SignalingStep::new("link synchronization + path update", 24.0, 5.0),
            ],
        }
    }

    /// Vertical hand-off out of 5G (5G→4G): NR leg release and data-path
    /// rollback onto the LTE anchor.
    pub fn nr_to_lte() -> Self {
        HandoffProcedure {
            name: "5G-4G",
            steps: vec![
                SignalingStep::new("NR measurement report processing", 5.0, 1.5),
                SignalingStep::new("SgNB release request", 10.0, 2.5),
                SignalingStep::new("RRC reconfiguration (drop NR leg)", 12.0, 3.0),
                SignalingStep::new("data path rollback to eNB", 8.0, 2.0),
            ],
        }
    }

    /// Mean total latency (sum of step means), milliseconds.
    #[cfg(test)]
    fn mean_latency_ms(&self) -> f64 {
        self.steps.iter().map(|s| s.latency_ms.mean()).sum()
    }

    /// Samples a total latency for one execution.
    pub fn sample_latency(&self, rng: &mut SimRng) -> SimDuration {
        let ms: f64 = self.steps.iter().map(|s| s.latency_ms.sample(rng)).sum();
        SimDuration::from_millis_f64(ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiveg_simcore::OnlineStats;

    /// Convenience: samples the latency of the procedure matching a
    /// `(from_is_nr, to_is_nr)` pair.
    fn handoff_latency(from_nr: bool, to_nr: bool, rng: &mut SimRng) -> SimDuration {
        let proc = match (from_nr, to_nr) {
            (false, false) => HandoffProcedure::lte_to_lte(),
            (true, true) => HandoffProcedure::nr_to_nr(),
            (false, true) => HandoffProcedure::lte_to_nr(),
            (true, false) => HandoffProcedure::nr_to_lte(),
        };
        proc.sample_latency(rng)
    }

    #[test]
    fn means_match_figure6() {
        assert!((HandoffProcedure::lte_to_lte().mean_latency_ms() - 30.1).abs() < 0.5);
        assert!((HandoffProcedure::nr_to_nr().mean_latency_ms() - 108.4).abs() < 1.0);
        assert!((HandoffProcedure::lte_to_nr().mean_latency_ms() - 80.2).abs() < 0.5);
    }

    #[test]
    fn nsa_ordering_holds() {
        // 5G-5G > 4G-5G > 4G-4G — the paper's key NSA finding.
        let l44 = HandoffProcedure::lte_to_lte().mean_latency_ms();
        let l45 = HandoffProcedure::lte_to_nr().mean_latency_ms();
        let l55 = HandoffProcedure::nr_to_nr().mean_latency_ms();
        assert!(l55 > l45 && l45 > l44);
    }

    #[test]
    fn nr_handoff_contains_full_lte_handoff() {
        // The NSA architecture forces the anchor hand-off inside every
        // 5G-5G hand-off.
        let nr = HandoffProcedure::nr_to_nr();
        let lte = HandoffProcedure::lte_to_lte();
        for step in &lte.steps {
            assert!(
                nr.steps.iter().any(|s| s.name == step.name),
                "missing {}",
                step.name
            );
        }
    }

    #[test]
    fn sampled_latency_statistics() {
        let mut rng = SimRng::new(5);
        let proc = HandoffProcedure::nr_to_nr();
        let mut s = OnlineStats::new();
        for _ in 0..5_000 {
            s.push(proc.sample_latency(&mut rng).as_millis_f64());
        }
        assert!((s.mean() - 108.4).abs() < 1.0, "mean {}", s.mean());
        assert!(s.min() > 40.0, "min {}", s.min());
        assert!(
            s.std_dev() > 4.0 && s.std_dev() < 20.0,
            "std {}",
            s.std_dev()
        );
    }

    #[test]
    fn latency_helper_dispatches() {
        let mut rng = SimRng::new(9);
        let mut mean = |f, t| {
            let mut s = OnlineStats::new();
            for _ in 0..2_000 {
                s.push(handoff_latency(f, t, &mut rng).as_millis_f64());
            }
            s.mean()
        };
        assert!(mean(true, true) > mean(false, true));
        assert!(mean(false, true) > mean(false, false));
        assert!(mean(true, false) < mean(false, true));
    }
}
