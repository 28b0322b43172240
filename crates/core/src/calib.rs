//! The paper's published numbers, centralised.
//!
//! Every constant here is transcribed from a specific table, figure or
//! sentence of the paper and is used by experiments/tests to report
//! paper-vs-measured. Nothing in the simulator *reads* these values at
//! run time — they are the ground truth being compared against, not
//! inputs (the few model constants that *were* calibrated against the
//! paper live next to the models with their own citations).

/// Tab. 1: mean campus RSRP, dBm.
pub const PAPER_MEAN_RSRP_4G: f64 = -84.84;
/// Tab. 1: RSRP standard deviation, dB.
pub const PAPER_STD_RSRP_4G: f64 = 8.72;
/// Tab. 1: mean campus RSRP, dBm.
pub const PAPER_MEAN_RSRP_5G: f64 = -84.03;
/// Tab. 1: RSRP standard deviation, dB.
pub const PAPER_STD_RSRP_5G: f64 = 11.72;
/// Tab. 1: number of 4G cells on campus.
pub const PAPER_NUM_CELLS_4G: usize = 34;
/// Tab. 1: number of 5G cells on campus.
pub const PAPER_NUM_CELLS_5G: usize = 13;

/// Tab. 2: fraction of sampled locations per RSRP bucket, 4G then 5G.
/// Buckets: `[-140,-105) [-105,-90) [-90,-80) [-80,-70) [-70,-60) [-60,-40)`.
pub const PAPER_TAB2_4G: [f64; 6] = [0.0177, 0.2974, 0.3920, 0.2360, 0.0556, 0.0013];
/// Tab. 2, 5G column.
pub const PAPER_TAB2_5G: [f64; 6] = [0.0807, 0.1659, 0.3937, 0.2688, 0.0815, 0.0095];
/// Tab. 2: 4G restricted to the 6 co-sited eNBs: coverage-hole fraction.
pub const PAPER_TAB2_4G_COSITED_HOLES: f64 = 0.0384;

/// Sec. 3.2: observed 5G cell radius, metres (LoS walk until disconnect).
pub const PAPER_5G_CELL_RADIUS_M: f64 = 230.0;
/// Sec. 3.2: observed 4G link distance, metres.
pub const PAPER_4G_CELL_RADIUS_M: f64 = 520.0;

/// Fig. 3: indoor bit-rate drop relative to adjacent outdoor spots.
pub const PAPER_INDOOR_DROP_5G: f64 = 0.5059;
/// Fig. 3, 4G.
pub const PAPER_INDOOR_DROP_4G: f64 = 0.2038;

/// Sec. 3.4 / Fig. 5: fraction of hand-offs gaining more than 3 dB RSRQ.
pub const PAPER_HO_GAIN3DB_4G4G: f64 = 0.80;
/// Fig. 5, 5G→5G.
pub const PAPER_HO_GAIN3DB_5G5G: f64 = 0.84;
/// Fig. 5, 5G→4G.
pub const PAPER_HO_GAIN3DB_5G4G: f64 = 0.75;
/// Fig. 5, 4G→5G.
pub const PAPER_HO_GAIN3DB_4G5G: f64 = 0.61;

/// Fig. 6: mean hand-off latency, ms.
pub const PAPER_HO_LATENCY_4G4G_MS: f64 = 30.10;
/// Fig. 6, 4G→5G.
pub const PAPER_HO_LATENCY_4G5G_MS: f64 = 80.23;
/// Fig. 6, 5G→5G.
pub const PAPER_HO_LATENCY_5G5G_MS: f64 = 108.40;

/// Fig. 7: UDP downlink baselines, Mbps (day, night).
pub const PAPER_UDP_DL_5G: (f64, f64) = (880.0, 900.0);
/// Fig. 7, 4G downlink.
pub const PAPER_UDP_DL_4G: (f64, f64) = (130.0, 200.0);
/// Sec. 4.1: UDP uplink baselines, Mbps (day, night).
pub const PAPER_UDP_UL_5G: (f64, f64) = (130.0, 130.0);
/// Sec. 4.1, 4G uplink.
pub const PAPER_UDP_UL_4G: (f64, f64) = (50.0, 100.0);

/// Fig. 7: TCP bandwidth utilisation on 5G (Reno, Cubic, Vegas, Veno, BBR).
pub const PAPER_UTIL_5G: [f64; 5] = [0.211, 0.319, 0.121, 0.143, 0.825];
/// Fig. 7: TCP bandwidth utilisation on 4G (Reno, Cubic, BBR known).
pub const PAPER_UTIL_4G_RENO: f64 = 0.529;
/// Fig. 7 Cubic on 4G.
pub const PAPER_UTIL_4G_CUBIC: f64 = 0.644;
/// Fig. 7 BBR on 4G.
pub const PAPER_UTIL_4G_BBR: f64 = 0.791;

/// Fig. 9: UDP loss at ½ the 5G baseline exceeds this (10× the 4G loss).
pub const PAPER_5G_LOSS_AT_HALF_LOAD: f64 = 0.031;

/// Sec. 4.1: peak PHY rate of the 5G downlink, Mbps.
pub const PAPER_MAX_PHY_5G_DL_MBPS: f64 = 1200.98;
/// Sec. 4.1: the UDP baseline as a fraction of the PHY peak.
pub const PAPER_UDP_OF_PHY: f64 = 0.7494;

/// Tab. 3: estimated buffers in 60 B probe packets (RAN, wired, path).
pub const PAPER_TAB3_4G: [f64; 3] = [468.0, 10_539.0, 11_007.0];
/// Tab. 3, 5G row.
pub const PAPER_TAB3_5G: [f64; 3] = [2_586.0, 26_724.0, 29_310.0];

/// Fig. 12: normalised TCP throughput drop at hand-off.
pub const PAPER_HO_TPUT_DROP_4G4G: f64 = 0.2010;
/// Fig. 12, 5G→5G.
pub const PAPER_HO_TPUT_DROP_5G5G: f64 = 0.7315;
/// Fig. 12, 5G→4G.
pub const PAPER_HO_TPUT_DROP_5G4G: f64 = 0.8304;

/// Fig. 13: mean one-way 5G latency over the 80 nationwide paths, ms.
pub const PAPER_ONEWAY_LATENCY_5G_MS: f64 = 21.8;
/// Fig. 13: mean RTT advantage of 5G over 4G, ms.
pub const PAPER_RTT_GAP_MS: f64 = 22.3;
/// Fig. 14: hop-1 (RAN) RTT, ms (5G, 4G).
pub const PAPER_HOP1_RTT_MS: (f64, f64) = (2.19, 2.6);
/// Fig. 15: mean 5G RTT at 2500 km, ms.
pub const PAPER_RTT_AT_2500KM_MS: f64 = 82.35;

/// Fig. 16: mean PLT reduction from 5G across categories.
pub const PAPER_PLT_REDUCTION: f64 = 0.05;
/// Fig. 17: mean download-time reduction from 5G.
pub const PAPER_DL_REDUCTION: f64 = 0.2068;

/// Sec. 5.2: frame-processing latency vs network transmission per frame.
pub const PAPER_FRAME_PROCESSING_MS: f64 = 650.0;
/// Sec. 5.2: network transmission share per frame, ms.
pub const PAPER_FRAME_NETWORK_MS: f64 = 66.0;
/// Sec. 5.2: observed 4K frame delay on 5G, ms.
pub const PAPER_FRAME_DELAY_5G_MS: f64 = 950.0;
/// Sec. 5.2: freeze events in the 30 s dynamic 5.7K session.
pub const PAPER_FREEZES_57K_DYNAMIC: usize = 6;

/// Fig. 21: the 5G module's average share of the phone power budget.
pub const PAPER_5G_RADIO_SHARE: f64 = 0.5518;
/// Fig. 21: the screen's share.
pub const PAPER_SCREEN_SHARE: f64 = 0.3073;
/// Sec. 6: 5G power relative to 4G.
pub const PAPER_5G_OVER_4G_POWER: (f64, f64) = (2.0, 3.0);

/// Tab. 4: energy (J) per model (LTE, NSA, Oracle, Dynamic) × workload.
pub const PAPER_TAB4_WEB: [f64; 4] = [85.44, 113.94, 95.69, 85.41];
/// Tab. 4, video column.
pub const PAPER_TAB4_VIDEO: [f64; 4] = [227.13, 140.19, 123.03, 133.66];
/// Tab. 4, file column.
pub const PAPER_TAB4_FILE: [f64; 4] = [357.67, 157.29, 139.72, 150.80];
/// Sec. 6.3: dynamic switching saves ≈25 % on web traffic vs NR NSA.
pub const PAPER_DYNAMIC_WEB_SAVING: f64 = 0.2504;
/// Sec. 6.3: the Oracle's average saving vs NR NSA.
pub const PAPER_ORACLE_SAVING: f64 = 0.132;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tab2_rows_sum_to_one() {
        assert!((PAPER_TAB2_4G.iter().sum::<f64>() - 1.0).abs() < 0.01);
        assert!((PAPER_TAB2_5G.iter().sum::<f64>() - 1.0).abs() < 0.01);
    }

    #[test]
    fn udp_baseline_matches_phy_fraction() {
        // 880–900 Mbps ≈ 74.94 % of 1200.98 Mbps.
        let frac = PAPER_UDP_DL_5G.1 / PAPER_MAX_PHY_5G_DL_MBPS;
        assert!((frac - PAPER_UDP_OF_PHY).abs() < 0.01);
    }

    #[test]
    fn tab3_segments_sum() {
        assert!((PAPER_TAB3_4G[0] + PAPER_TAB3_4G[1] - PAPER_TAB3_4G[2]).abs() < 1.0);
        assert!((PAPER_TAB3_5G[0] + PAPER_TAB3_5G[1] - PAPER_TAB3_5G[2]).abs() < 1.0);
    }

    #[test]
    fn handoff_latency_ordering() {
        const { assert!(PAPER_HO_LATENCY_5G5G_MS > PAPER_HO_LATENCY_4G5G_MS) };
        const { assert!(PAPER_HO_LATENCY_4G5G_MS > PAPER_HO_LATENCY_4G4G_MS) };
    }
}
