//! Sec. 8 discussion experiments: the "Can 5G replace DSL?" CPE study.
//!
//! The paper measured a HUAWEI 5G CPE Pro (a 5G-to-WiFi gateway) in a
//! residential building: ≈650 Mbps at favourable spots (near windows),
//! and reasons that a typical 3-cell gNB covering 50 houses yields
//! ≈39 Mbps per house — above the 24 Mbps average US DSL rate.

use crate::report;
use crate::scenario::Scenario;
use fiveg_phy::Tech;
use fiveg_simcore::Cdf;
use serde::Serialize;

/// Average US DSL downlink the paper compares against, Mbps.
pub const DSL_BASELINE_MBPS: f64 = 24.0;

/// CPE antenna advantage over a handheld phone, dB (directional panel,
/// fixed mounting, no body loss).
pub const CPE_ANTENNA_GAIN_DB: f64 = 8.0;

/// The CPE/DSL comparison.
#[derive(Debug, Clone, Serialize)]
pub struct CpeStudy {
    /// Indoor CPE bitrates across sampled homes, Mbps.
    pub home_rates_mbps: Vec<f64>,
    /// Rate at a favourable location (90th percentile), Mbps.
    pub favorable_mbps: f64,
    /// Houses sharing one 3-cell gNB (paper: 50).
    pub houses_per_gnb: usize,
    /// Per-house share when every home pulls simultaneously, Mbps.
    pub per_house_mbps: f64,
}

impl CpeStudy {
    /// Whether 5G beats the DSL baseline in this deployment.
    pub fn beats_dsl(&self) -> bool {
        self.per_house_mbps > DSL_BASELINE_MBPS
    }

    /// Renders the comparison.
    pub fn to_text(&self) -> String {
        let mut s = String::from("== Sec. 8: can 5G replace DSL? ==\n");
        s += &report::cdf_line(
            "indoor CPE rate",
            &Cdf::from_samples(self.home_rates_mbps.clone()),
            "Mbps",
        );
        s.push('\n');
        s += &report::compare(
            "favourable-spot CPE rate",
            650.0,
            self.favorable_mbps,
            "Mbps",
        );
        s.push('\n');
        s += &report::compare(
            "per-house share (50 homes)",
            39.0,
            self.per_house_mbps,
            "Mbps",
        );
        s.push('\n');
        s += &format!(
            "5G {} the {} Mbps DSL baseline\n",
            if self.beats_dsl() {
                "beats"
            } else {
                "loses to"
            },
            DSL_BASELINE_MBPS
        );
        s
    }
}

/// Runs the CPE study: place a CPE (with its antenna advantage) inside
/// every building within 200 m of a gNB and measure the achievable rate.
pub fn cpe_study(sc: &Scenario) -> CpeStudy {
    let mut home_rates = Vec::new();
    let mut scratch = fiveg_phy::MeasureScratch::new();
    for b in &sc.campus.map.buildings {
        let c = b.footprint.center();
        let near_gnb = sc
            .campus
            .plan
            .gnb_sites
            .iter()
            .any(|s| s.pos.distance(c) <= 200.0);
        if !near_gnb {
            continue;
        }
        // A CPE near a window: one exterior wall, panel antenna. Model
        // the antenna advantage as an RSRP/SINR offset on the measured
        // sample (the gain applies to both signal and interference from
        // the same direction only partially; we credit it to SINR at
        // half strength, conservatively).
        if let Some(m) = sc.env.serving_into(c, Tech::Nr, &mut scratch) {
            let boosted = fiveg_phy::CellMeasurement {
                rsrp: m.rsrp + fiveg_simcore::Db::new(CPE_ANTENNA_GAIN_DB),
                sinr: fiveg_simcore::Db::new(m.sinr.value() + CPE_ANTENNA_GAIN_DB / 2.0),
                ..m
            };
            let kpi = sc.env.kpi_for(boosted, c, 1.0);
            if kpi.in_service {
                home_rates.push(kpi.bitrate.mbps());
            }
        }
    }
    let cdf = Cdf::from_samples(home_rates.clone());
    let favorable = cdf.quantile(0.9);
    let houses = 50usize;
    // A 3-cell gNB serves the neighbourhood: total capacity ≈ 3 cells at
    // the favourable-rate operating point, shared across the homes.
    let per_house = favorable * 3.0 / houses as f64;
    CpeStudy {
        home_rates_mbps: home_rates,
        favorable_mbps: favorable,
        houses_per_gnb: houses,
        per_house_mbps: per_house,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpe_beats_dsl_like_the_paper() {
        let sc = Scenario::paper(2020);
        let study = cpe_study(&sc);
        assert!(
            study.home_rates_mbps.len() >= 10,
            "{} homes",
            study.home_rates_mbps.len()
        );
        // Favourable spots reach hundreds of Mbps.
        assert!(
            (300.0..1300.0).contains(&study.favorable_mbps),
            "favourable {}",
            study.favorable_mbps
        );
        // The paper's conclusion: the per-house share beats DSL.
        assert!(study.beats_dsl(), "per-house {}", study.per_house_mbps);
        assert!(!study.to_text().is_empty());
    }
}
