//! Power-management strategies (paper Tab. 4 and Sec. 6.3).
//!
//! Four models replay the same traffic trace, as in the paper's
//! trace-driven simulator:
//!
//! * **LTE-only** — the whole trace rides the 4G module.
//! * **NR NSA** — the 5G module with the real (promotion + tail) state
//!   machine.
//! * **NR Oracle** — the 5G module with perfect sleep/wake: active power
//!   exactly while data moves, C-DRX sleep otherwise, no promotions and
//!   no tails. The paper's point: even this ideal scheduler saves only
//!   ≈13 % — the drain is intrinsic to the hardware.
//! * **Dynamic switching** — the paper's pragmatic heuristic: bursts
//!   whose demand approaches 4G capacity (≥100 Mbps) ride 5G; everything
//!   else stays on 4G. Saves ≈25 % on web-style traffic.

use crate::machine::{Burst, RadioStateMachine};
use crate::params::RadioModel;
use fiveg_simcore::{Energy, SimTime};
use serde::Serialize;

/// The threshold of the dynamic heuristic: "if the instantaneous traffic
/// intensity ... is approaching 4G's capacity, i.e., 100 Mbps, we switch
/// the radio into the 5G NR module" (Sec. 6.3).
pub const DYNAMIC_SWITCH_THRESHOLD_MBPS: f64 = 100.0;

/// A power-management strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Strategy {
    /// Everything on the 4G module.
    LteOnly,
    /// Everything on the 5G NSA module (the phone's actual behaviour).
    NrNsa,
    /// 5G with perfect sleep scheduling.
    NrOracle,
    /// The paper's dynamic 4G/5G switching heuristic.
    DynamicSwitch,
}

impl Strategy {
    /// All strategies in the paper's Tab. 4 row order.
    pub const ALL: [Strategy; 4] = [
        Strategy::LteOnly,
        Strategy::NrNsa,
        Strategy::NrOracle,
        Strategy::DynamicSwitch,
    ];

    /// Row label as in Tab. 4.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::LteOnly => "LTE",
            Strategy::NrNsa => "NR NSA",
            Strategy::NrOracle => "NR Oracle",
            Strategy::DynamicSwitch => "Dyn. switch",
        }
    }
}

/// A named traffic trace with per-radio effective rates.
///
/// The rates differ per radio because the trace was captured from real
/// flows: bulk transfers ride each radio at its capacity, while the
/// congested 4G uplink collapses under UHD video (Sec. 5.2's frame
/// losses), stretching the replay.
#[derive(Debug, Clone, Serialize)]
pub struct TrafficTrace {
    /// Trace name (Tab. 4 column).
    pub name: &'static str,
    /// The bursts.
    pub bursts: Vec<Burst>,
    /// Effective 4G transfer rate for this workload, Mbps.
    pub lte_rate_mbps: f64,
    /// Effective 5G transfer rate for this workload, Mbps.
    pub nr_rate_mbps: f64,
}

impl TrafficTrace {
    /// Short web browsing: ten 2 MB page loads, 3 s apart.
    pub fn web() -> Self {
        let bursts = (0..10)
            .map(|i| Burst {
                at: SimTime::from_millis(i * 3_000),
                bytes: 2_000_000,
                peak_rate_mbps: 20.0,
            })
            .collect();
        TrafficTrace {
            name: "Web",
            bursts,
            lte_rate_mbps: 130.0,
            nr_rate_mbps: 880.0,
        }
    }

    /// Frame-by-frame UHD video telephony: 30 s of 5.7K at 68 Mbps in
    /// 30 fps frames. The 4G effective rate reflects the congestion
    /// collapse the paper observed (Sec. 5.2: the congested 4G uplink
    /// delivers far below the offered UHD rate, with frame losses).
    pub fn video_telephony() -> Self {
        let frame_bytes = (68.0e6 / 8.0 / 30.0) as u64;
        let bursts = (0..(30 * 30))
            .map(|i| Burst {
                at: SimTime::from_millis(i * 33),
                bytes: frame_bytes,
                peak_rate_mbps: 120.0,
            })
            .collect();
        TrafficTrace {
            name: "Video",
            bursts,
            lte_rate_mbps: 12.0,
            nr_rate_mbps: 130.0,
        }
    }

    /// Saturated bulk file transfer: 8 GB downlink (long enough that the
    /// promotion/tail overheads amortise, as in the paper's saturated
    /// replay where the Oracle only saves ≈11 %).
    pub fn file_transfer() -> Self {
        TrafficTrace {
            name: "File",
            bursts: vec![Burst {
                at: SimTime::ZERO,
                bytes: 8_000_000_000,
                peak_rate_mbps: 880.0,
            }],
            lte_rate_mbps: 200.0,
            nr_rate_mbps: 880.0,
        }
    }

    /// The paper's three Tab. 4 workloads.
    pub fn paper_all() -> [TrafficTrace; 3] {
        [Self::web(), Self::video_telephony(), Self::file_transfer()]
    }
}

/// Replays `trace` under `strategy` and returns the radio energy spent
/// to finish the whole transfer (the paper's Tab. 4 metric: every model
/// completes all flows; completion times differ).
pub fn replay_energy(trace: &TrafficTrace, strategy: Strategy) -> Energy {
    let lte = RadioModel {
        rate_mbps: trace.lte_rate_mbps,
        ..RadioModel::lte_day()
    };
    let nr = RadioModel {
        rate_mbps: trace.nr_rate_mbps,
        ..RadioModel::nr_nsa_day()
    };
    match strategy {
        Strategy::LteOnly => RadioStateMachine::new(lte).replay(&trace.bursts).energy,
        Strategy::NrNsa => RadioStateMachine::new(nr).replay(&trace.bursts).energy,
        Strategy::NrOracle => {
            let t = RadioStateMachine::oracle(nr).replay(&trace.bursts);
            // Perfect sleep: C-DRX sleep power between transfers instead
            // of free idle (the radio stays registered).
            let sleeping = t.idle_at.as_secs_f64() - t.active_time.as_secs_f64();
            t.energy + nr.power.cdrx_sleep.over_seconds(sleeping.max(0.0))
        }
        Strategy::DynamicSwitch => {
            let (hi, lo): (Vec<Burst>, Vec<Burst>) = trace
                .bursts
                .iter()
                .partition(|b| b.peak_rate_mbps >= DYNAMIC_SWITCH_THRESHOLD_MBPS);
            let mut total = Energy::from_joules(0.0);
            if !lo.is_empty() {
                total += RadioStateMachine::new(lte).replay(&lo).energy;
            }
            if !hi.is_empty() {
                total += RadioStateMachine::new(nr).replay(&hi).energy;
            }
            total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the full Tab. 4 matrix: `result[trace][strategy]` in joules.
    fn table4_matrix() -> Vec<(&'static str, Vec<(&'static str, f64)>)> {
        TrafficTrace::paper_all()
            .iter()
            .map(|tr| {
                let row = Strategy::ALL
                    .iter()
                    .map(|&s| (s.label(), replay_energy(tr, s).joules()))
                    .collect();
                (tr.name, row)
            })
            .collect()
    }

    fn energy(trace: &TrafficTrace, s: Strategy) -> f64 {
        replay_energy(trace, s).joules()
    }

    #[test]
    fn web_dynamic_equals_lte_and_beats_nsa() {
        // Tab. 4: Dyn. switch 85.41 J ≈ LTE 85.44 J, saving ~25 % vs
        // NR NSA 113.94 J.
        let tr = TrafficTrace::web();
        let lte = energy(&tr, Strategy::LteOnly);
        let nsa = energy(&tr, Strategy::NrNsa);
        let dyn_ = energy(&tr, Strategy::DynamicSwitch);
        assert!((dyn_ - lte).abs() / lte < 0.01, "dyn {dyn_} vs lte {lte}");
        let saving = 1.0 - dyn_ / nsa;
        assert!(saving > 0.20, "dynamic web saving {saving}");
    }

    #[test]
    fn heavy_workloads_favor_5g_over_lte() {
        // Tab. 4: for video and file the LTE row is the *most*
        // expensive — 5G's energy-per-bit advantage wins at scale.
        for tr in [
            TrafficTrace::video_telephony(),
            TrafficTrace::file_transfer(),
        ] {
            let lte = energy(&tr, Strategy::LteOnly);
            let nsa = energy(&tr, Strategy::NrNsa);
            assert!(lte > nsa, "{}: LTE {lte} vs NSA {nsa}", tr.name);
        }
    }

    #[test]
    fn oracle_saves_modestly_on_saturated_transfers() {
        // Tab. 4 file: oracle 139.72 vs NSA 157.29 (−11 %): with the
        // radio busy most of the time, trimming promotions and tails
        // buys little — the drain is the hardware's active draw.
        let tr = TrafficTrace::file_transfer();
        let nsa = energy(&tr, Strategy::NrNsa);
        let oracle = energy(&tr, Strategy::NrOracle);
        let saving = 1.0 - oracle / nsa;
        assert!(
            (0.03..0.30).contains(&saving),
            "file oracle saving {saving}"
        );
    }

    #[test]
    fn oracle_never_worse_than_nsa() {
        for tr in TrafficTrace::paper_all() {
            let nsa = energy(&tr, Strategy::NrNsa);
            let oracle = energy(&tr, Strategy::NrOracle);
            assert!(oracle < nsa, "{}: oracle {oracle} vs nsa {nsa}", tr.name);
        }
    }

    #[test]
    fn video_dynamic_rides_5g() {
        // UHD frames demand >100 Mbps peaks → the heuristic keeps them
        // on NR, so dynamic ≈ NSA for video (Tab. 4: 133.66 vs 140.19).
        let tr = TrafficTrace::video_telephony();
        let nsa = energy(&tr, Strategy::NrNsa);
        let dyn_ = energy(&tr, Strategy::DynamicSwitch);
        assert!((dyn_ - nsa).abs() / nsa < 0.05, "dyn {dyn_} nsa {nsa}");
    }

    #[test]
    fn matrix_has_all_cells() {
        let m = table4_matrix();
        assert_eq!(m.len(), 3);
        for (_, row) in &m {
            assert_eq!(row.len(), 4);
            for &(_, j) in row {
                assert!(j > 0.0);
            }
        }
    }
}
