//! HARQ retransmission ladder.
//!
//! The paper (Sec. 4.2, Fig. 10) verifies that RAN losses never reach the
//! transport layer: the MAC retransmits until success, with a 32-attempt
//! ceiling extracted from PDSCH configuration, and in practice every
//! transport block got through within 4 attempts on 4G and 2 on 5G.
//! That behaviour falls out of link adaptation: the scheduler operates at
//! ≈10 % initial BLER and each retransmission adds combining gain.

use fiveg_phy::{bler, select_mcs};
use fiveg_simcore::{SimDuration, SimRng};
use serde::Serialize;

/// HARQ configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct HarqConfig {
    /// Maximum transmission attempts (paper: 32 from PDSCH config).
    pub max_attempts: u32,
    /// SINR gain per retransmission from chase combining, dB. Each
    /// retransmission roughly doubles accumulated energy (≈3 dB).
    pub combining_gain_db: f64,
    /// Round-trip of one HARQ retransmission (grant + retx), per attempt.
    pub retx_delay: SimDuration,
}

impl HarqConfig {
    /// The paper's NR configuration: 32 attempts, 8 HARQ processes on a
    /// 0.5 ms slot → ≈4 ms per retransmission round.
    pub fn paper_nr() -> Self {
        HarqConfig {
            max_attempts: 32,
            combining_gain_db: 3.0,
            retx_delay: SimDuration::from_millis(4),
        }
    }

    /// The paper's LTE configuration: 8 ms HARQ RTT.
    pub fn paper_lte() -> Self {
        HarqConfig {
            max_attempts: 32,
            combining_gain_db: 3.0,
            retx_delay: SimDuration::from_millis(8),
        }
    }
}

/// Result of transmitting one transport block through HARQ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct HarqOutcome {
    /// Number of transmission attempts used (1 = first try succeeded).
    pub attempts: u32,
    /// Whether the block was eventually delivered.
    pub delivered: bool,
}

impl HarqOutcome {
    /// Extra MAC-layer delay caused by retransmissions.
    #[cfg(test)]
    fn extra_delay(&self, cfg: &HarqConfig) -> SimDuration {
        SimDuration::from_nanos(
            cfg.retx_delay.as_nanos() * (self.attempts.saturating_sub(1)) as u64,
        )
    }
}

/// Transmits one transport block at the link-adapted MCS for `sinr_db`,
/// drawing per-attempt success from the BLER model with chase-combining
/// gain on retransmissions.
pub fn transmit_block(sinr_db: f64, cfg: &HarqConfig, rng: &mut SimRng) -> HarqOutcome {
    let mcs_idx = select_mcs(sinr_db);
    let mut attempts = 0;
    while attempts < cfg.max_attempts {
        attempts += 1;
        let effective_sinr = sinr_db + cfg.combining_gain_db * (attempts - 1) as f64;
        let p_fail = bler(effective_sinr, mcs_idx);
        if !rng.chance(p_fail) {
            let out = HarqOutcome {
                attempts,
                delivered: true,
            };
            record_outcome(&out);
            return out;
        }
    }
    let out = HarqOutcome {
        attempts: cfg.max_attempts,
        delivered: false,
    };
    record_outcome(&out);
    out
}

/// Tries-per-transport-block histogram edges: the paper's Fig. 10 shows
/// everything resolving within 4 attempts; the coarser upper buckets
/// catch pathological channels short of the 32-attempt ceiling.
const HARQ_TRIES_EDGES: [u64; 7] = [1, 2, 3, 4, 8, 16, 32];

/// Records one HARQ outcome into the ambient metrics scope (no-op when
/// no scope is installed — see `fiveg-obs`).
fn record_outcome(out: &HarqOutcome) {
    fiveg_obs::observe("ran.harq.tries", &HARQ_TRIES_EDGES, out.attempts as u64);
    if !out.delivered {
        fiveg_obs::counter_add("ran.harq.exhausted", 1);
    }
}

/// Distribution of HARQ attempt counts over `n` blocks at a given SINR:
/// `result[k]` is the fraction of blocks needing `k + 1` attempts.
pub fn attempts_histogram(sinr_db: f64, cfg: &HarqConfig, n: usize, rng: &mut SimRng) -> Vec<f64> {
    let mut counts = vec![0u64; cfg.max_attempts as usize];
    for _ in 0..n {
        let o = transmit_block(sinr_db, cfg, rng);
        counts[(o.attempts - 1) as usize] += 1;
    }
    counts.iter().map(|&c| c as f64 / n as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_attempt_succeeds_about_ninety_percent() {
        // Operate exactly at the MCS requirement → ~10 % initial BLER.
        let mut rng = SimRng::new(1);
        let cfg = HarqConfig::paper_nr();
        // Exactly at a CQI threshold the selected MCS's requirement
        // equals the SINR (no quantisation margin).
        let sinr = fiveg_phy::CQI_SINR_THRESHOLD_DB[10];
        let h = attempts_histogram(sinr, &cfg, 50_000, &mut rng);
        assert!((h[0] - 0.9).abs() < 0.02, "first-try {}", h[0]);
    }

    #[test]
    fn everything_delivered_within_few_attempts() {
        // Paper Fig. 10: all retransmissions succeed within ≤4 tries,
        // far below the 32 ceiling.
        let mut rng = SimRng::new(2);
        let cfg = HarqConfig::paper_nr();
        let sinr = fiveg_phy::CQI_SINR_THRESHOLD_DB[10];
        for _ in 0..50_000 {
            let o = transmit_block(sinr, &cfg, &mut rng);
            assert!(o.delivered);
            assert!(o.attempts <= 5, "attempts {}", o.attempts);
        }
    }

    #[test]
    fn good_channel_needs_fewer_retx_than_marginal() {
        let mut rng = SimRng::new(3);
        let cfg = HarqConfig::paper_nr();
        // 2 dB of margin above the MCS-12 operating point vs none.
        let base = fiveg_phy::mcs_sinr_requirement_db(12);
        let tight = attempts_histogram(base, &cfg, 20_000, &mut rng);
        // CQI quantisation: halfway between MCS-12 and MCS-13 thresholds
        // still selects MCS 12, with extra margin.
        let comfy = attempts_histogram(base + 1.0, &cfg, 20_000, &mut rng);
        assert!(comfy[0] > tight[0], "{} vs {}", comfy[0], tight[0]);
    }

    #[test]
    fn retx_delay_accounting() {
        let cfg = HarqConfig::paper_nr();
        let first_try = HarqOutcome {
            attempts: 1,
            delivered: true,
        };
        assert_eq!(first_try.extra_delay(&cfg), SimDuration::ZERO);
        let third_try = HarqOutcome {
            attempts: 3,
            delivered: true,
        };
        assert_eq!(third_try.extra_delay(&cfg), SimDuration::from_millis(8));
    }

    #[test]
    fn ceiling_respected_in_hopeless_channel() {
        // Force a hopeless channel by lying about SINR to the BLER model:
        // pick the highest MCS at an SINR 40 dB below requirement — even
        // combining gain cannot rescue early attempts, but 32 × 3 dB
        // eventually can, so just check the ceiling is honoured.
        let cfg = HarqConfig {
            max_attempts: 4,
            combining_gain_db: 0.0,
            retx_delay: SimDuration::from_millis(4),
        };
        let mut rng = SimRng::new(4);
        let mut failed = 0;
        for _ in 0..1_000 {
            // select_mcs(-40) = MCS 0, so force the scenario via a config
            // with zero combining gain at an SINR below MCS-0 threshold.
            let o = transmit_block(-12.0, &cfg, &mut rng);
            assert!(o.attempts <= 4);
            if !o.delivered {
                failed += 1;
            }
        }
        assert!(failed > 0, "expected some blocks to exhaust the ceiling");
    }

    #[test]
    fn histogram_sums_to_one() {
        let mut rng = SimRng::new(5);
        let cfg = HarqConfig::paper_lte();
        let h = attempts_histogram(10.0, &cfg, 10_000, &mut rng);
        let total: f64 = h.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
