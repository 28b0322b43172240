//! Hand-off experiments: Fig. 4, Fig. 5, Fig. 6, Fig. 12.

use crate::report;
use crate::scenario::{Fidelity, Scenario};
use fiveg_geo::{LinearTransect, RandomWaypoint};
use fiveg_net::path::{Direction, PaperPathParams, PathConfig};
use fiveg_net::{NetSim, RateModel};
use fiveg_phy::Tech;
use fiveg_ran::{HandoffCampaign, HandoffKind, HandoffProcedure, HandoffRecord};
use fiveg_simcore::{BitRate, Cdf, SimDuration, SimTime};
use fiveg_transport::{CcAlgorithm, TcpSender};
use serde::Serialize;
use std::collections::BTreeMap;

/// Fig. 4: RSRQ evolution of serving + neighbour cells along a transect
/// crossing two 5G cells.
#[derive(Debug, Clone, Serialize)]
pub struct Fig4 {
    /// Time-series per PCI: `(pci, Vec<(t_s, rsrq_db)>)`.
    pub series: Vec<(u16, Vec<(f64, f64)>)>,
    /// When the serving cell changed, seconds (if a hand-off happened).
    pub handoff_at_s: Option<f64>,
}

impl Fig4 {
    /// Renders a summary.
    pub fn to_text(&self) -> String {
        let mut s = String::from("== Fig. 4: RSRQ evolution during hand-off ==\n");
        for (pci, pts) in &self.series {
            let first = pts.first().map_or(f64::NAN, |p| p.1);
            let last = pts.last().map_or(f64::NAN, |p| p.1);
            s += &format!(
                "PCI {pci}: {} samples, RSRQ {first:.1} dB -> {last:.1} dB\n",
                pts.len()
            );
        }
        if let Some(t) = self.handoff_at_s {
            s += &format!("hand-off at {t:.1} s\n");
        }
        s
    }
}

/// Walks between the first two gNB sites recording the two strongest
/// cells' RSRQ over time.
pub fn fig4(sc: &Scenario) -> Fig4 {
    let a = sc.campus.plan.gnb_sites[0].pos;
    let b = sc.campus.plan.gnb_sites[1].pos;
    let trace = LinearTransect {
        from: a,
        to: b,
        speed_kmh: 36.0, // compress the walk into a Fig. 4-like window
        interval: SimDuration::from_millis(250),
    }
    .generate();
    let mut series: BTreeMap<u16, Vec<(f64, f64)>> = BTreeMap::new();
    let mut serving_pci: Option<u16> = None;
    let mut handoff_at = None;
    let mut scratch = fiveg_phy::MeasureScratch::new();
    for p in trace.iter() {
        let all = sc.env.measure_all_into(p.pos, Tech::Nr, &mut scratch);
        for m in all.iter().take(3) {
            series
                .entry(m.pci)
                .or_default()
                .push((p.t.as_secs_f64(), m.rsrq.value()));
        }
        if let Some(best) = all.first() {
            if let Some(prev) = serving_pci {
                if prev != best.pci && handoff_at.is_none() {
                    handoff_at = Some(p.t.as_secs_f64());
                }
            }
            serving_pci = Some(best.pci);
        }
    }
    // BTreeMap iterates pci-ascending; the stable sort below then
    // breaks length ties by pci, exactly as before.
    let mut out: Vec<(u16, Vec<(f64, f64)>)> = series.into_iter().collect();
    // Keep the three longest series (serving + main neighbours).
    out.sort_by_key(|(_, v)| std::cmp::Reverse(v.len()));
    out.truncate(4);
    Fig4 {
        series: out,
        handoff_at_s: handoff_at,
    }
}

/// Fig. 5 + Fig. 6: the hand-off campaign outputs.
#[derive(Debug, Clone, Serialize)]
pub struct HandoffStudy {
    /// All recorded hand-offs.
    pub records: Vec<HandoffRecord>,
}

impl HandoffStudy {
    /// Latency CDF per kind, ms (Fig. 6 series).
    pub fn latency_cdf(&self, kind: HandoffKind) -> Cdf {
        Cdf::from_samples(
            self.records
                .iter()
                .filter(|r| r.kind == kind)
                .map(|r| r.latency.as_millis_f64())
                .collect(),
        )
    }

    /// Fraction of hand-offs of `kind` gaining more than 3 dB.
    pub fn gain3db_fraction(&self, kind: HandoffKind) -> f64 {
        let v: Vec<&HandoffRecord> = self.records.iter().filter(|r| r.kind == kind).collect();
        if v.is_empty() {
            return f64::NAN;
        }
        v.iter().filter(|r| r.rsrq_gain().value() > 3.0).count() as f64 / v.len() as f64
    }

    /// Renders Fig. 5 + Fig. 6 summaries.
    pub fn to_text(&self) -> String {
        let mut s = format!(
            "== Fig. 5/6: hand-off campaign ({} events) ==\n",
            self.records.len()
        );
        for kind in [
            HandoffKind::LteToLte,
            HandoffKind::NrToNr,
            HandoffKind::LteToNr,
            HandoffKind::NrToLte,
        ] {
            let lat = self.latency_cdf(kind);
            if lat.is_empty() {
                continue;
            }
            s += &report::cdf_line(&format!("{} latency", kind.label()), &lat, "ms");
            s.push('\n');
            s += &format!(
                "{} gain>3dB: {:.0}%\n",
                kind.label(),
                self.gain3db_fraction(kind) * 100.0
            );
        }
        s += &report::compare(
            "5G-5G mean latency",
            crate::calib::PAPER_HO_LATENCY_5G5G_MS,
            self.latency_cdf(HandoffKind::NrToNr).mean(),
            "ms",
        );
        s.push('\n');
        s += &report::compare(
            "4G-4G mean latency",
            crate::calib::PAPER_HO_LATENCY_4G4G_MS,
            self.latency_cdf(HandoffKind::LteToLte).mean(),
            "ms",
        );
        s.push('\n');
        s
    }
}

/// Runs the walking/bicycling hand-off campaign (paper Sec. 3.4: 80
/// minutes at 3–10 km/h, 407 events).
pub fn handoff_study(sc: &Scenario, fidelity: Fidelity) -> HandoffStudy {
    let rwp = RandomWaypoint {
        speed_min_kmh: 3.0,
        speed_max_kmh: 10.0,
        duration: SimDuration::from_secs(fidelity.campaign_minutes() * 60),
        interval: SimDuration::from_millis(100),
    };
    let rng = sc.rng("handoff-campaign");
    let trace = rwp.generate(&sc.campus.map, &mut rng.substream("mobility"));
    let records = HandoffCampaign::default().run(&sc.env, &trace, &mut rng.substream("ho"));
    HandoffStudy { records }
}

/// Fig. 12: normalised TCP throughput drop right after each hand-off
/// kind, measured by running a BBR flow across a hand-off interruption.
#[derive(Debug, Clone, Serialize)]
pub struct Fig12 {
    /// Drop samples per kind label.
    pub drops: Vec<(String, Vec<f64>)>,
}

impl Fig12 {
    /// Mean drop for a kind.
    pub fn mean_drop(&self, label: &str) -> f64 {
        self.drops
            .iter()
            .find(|(l, _)| l == label)
            .map_or(f64::NAN, |(_, v)| {
                v.iter().sum::<f64>() / v.len().max(1) as f64
            })
    }

    /// Renders the summary.
    pub fn to_text(&self) -> String {
        let mut s = String::from("== Fig. 12: TCP throughput drop at hand-off ==\n");
        for (label, v) in &self.drops {
            s += &report::cdf_line(label, &Cdf::from_samples(v.clone()), "frac");
            s.push('\n');
        }
        s += &report::compare(
            "4G-4G mean drop",
            crate::calib::PAPER_HO_TPUT_DROP_4G4G,
            self.mean_drop("4G-4G"),
            "",
        );
        s.push('\n');
        s += &report::compare(
            "5G-5G mean drop",
            crate::calib::PAPER_HO_TPUT_DROP_5G5G,
            self.mean_drop("5G-5G"),
            "",
        );
        s.push('\n');
        s += &report::compare(
            "5G-4G mean drop",
            crate::calib::PAPER_HO_TPUT_DROP_5G4G,
            self.mean_drop("5G-4G"),
            "",
        );
        s.push('\n');
        s
    }
}

/// One hand-off flow run: BBR over a path whose radio link suffers the
/// hand-off outage at `t = 5 s` (and a rate change for vertical kinds);
/// the drop is the throughput in the 300 ms after the hand-off relative
/// to the second before it.
fn ho_drop_sample(kind: HandoffKind, seed: u64, sc: &Scenario) -> f64 {
    let mut rng = sc.rng("fig12").substream_idx(kind.label(), seed);
    let (params, post_rate) = match kind {
        HandoffKind::LteToLte => (PaperPathParams::lte_day(), 130.0),
        HandoffKind::NrToNr => (PaperPathParams::nr_day(), 880.0),
        HandoffKind::NrToLte => (PaperPathParams::nr_day(), 130.0),
        HandoffKind::LteToNr => (PaperPathParams::lte_day(), 880.0),
    };
    let proc = match kind {
        HandoffKind::LteToLte => HandoffProcedure::lte_to_lte(),
        HandoffKind::NrToNr => HandoffProcedure::nr_to_nr(),
        HandoffKind::NrToLte => HandoffProcedure::nr_to_lte(),
        HandoffKind::LteToNr => HandoffProcedure::lte_to_nr(),
    };
    let latency = proc.sample_latency(&mut rng);
    let ho_at = SimTime::from_secs(5);
    let mut path = PathConfig::paper(&params, Direction::Downlink);
    let radio = path.radio_hop_index();
    // Outage during the hand-off, then the target cell's rate.
    let pre_rate = path.hops[radio].rate.rate_at(SimTime::ZERO);
    path.hops[radio].rate = RateModel::piecewise(vec![
        (SimTime::ZERO, pre_rate),
        (ho_at, BitRate::ZERO),
        (ho_at + latency, BitRate::from_mbps(post_rate)),
    ]);
    let mut sim = NetSim::new(path, seed ^ 0x000f_1912);
    let (sender, _rep) = TcpSender::new(CcAlgorithm::Bbr, None);
    let flow = sim.add_flow(Box::new(sender), true, false);
    sim.run_until(SimTime::from_secs(8));
    let series = sim.flow_stats(flow).throughput_series();
    let window_mean = |from: SimTime, to: SimTime| -> f64 {
        let v: Vec<f64> = series
            .iter()
            .filter(|&&(t, _)| t >= from && t < to)
            .map(|&(_, m)| m)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let before = window_mean(SimTime::from_secs(4), ho_at);
    let after = window_mean(ho_at, ho_at + SimDuration::from_millis(300));
    if before <= 0.0 {
        return f64::NAN;
    }
    (1.0 - after / before).clamp(0.0, 1.0)
}

/// Runs Fig. 12 with `n` hand-off events per kind.
pub fn fig12(sc: &Scenario, n: u64) -> Fig12 {
    let mut drops = Vec::new();
    for kind in [
        HandoffKind::LteToLte,
        HandoffKind::NrToNr,
        HandoffKind::NrToLte,
    ] {
        let v: Vec<f64> = (0..n)
            .map(|i| ho_drop_sample(kind, i, sc))
            .filter(|d| d.is_finite())
            .collect();
        drops.push((kind.label().to_owned(), v));
    }
    Fig12 { drops }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sc() -> Scenario {
        Scenario::paper(2020)
    }

    #[test]
    fn fig4_records_crossing() {
        let f = fig4(&sc());
        assert!(!f.series.is_empty());
        assert!(f.series[0].1.len() > 10);
        assert!(
            f.handoff_at_s.is_some(),
            "walking between two gNBs must change the serving cell"
        );
    }

    #[test]
    fn handoff_study_reproduces_orderings() {
        let study = handoff_study(&sc(), Fidelity::Quick);
        assert!(study.records.len() > 10, "{} events", study.records.len());
        let l55 = study.latency_cdf(HandoffKind::NrToNr);
        let l44 = study.latency_cdf(HandoffKind::LteToLte);
        if !l55.is_empty() && !l44.is_empty() {
            assert!(
                l55.mean() > l44.mean() + 50.0,
                "5G-5G {} vs 4G-4G {}",
                l55.mean(),
                l44.mean()
            );
        }
        // A non-negligible fraction of horizontal HOs fail the 3 dB gain.
        let g = study.gain3db_fraction(HandoffKind::NrToNr);
        if g.is_finite() {
            assert!(g < 1.0, "some hand-offs must fail to gain 3 dB");
        }
    }

    #[test]
    fn fig12_drop_ordering() {
        let f = fig12(&sc(), 4);
        let d44 = f.mean_drop("4G-4G");
        let d55 = f.mean_drop("5G-5G");
        let d54 = f.mean_drop("5G-4G");
        assert!(d55 > d44, "5G-5G {d55} vs 4G-4G {d44}");
        assert!(d54 >= d55 * 0.9, "5G-4G {d54} vs 5G-5G {d55}");
        assert!(d44 < 0.6, "4G-4G drop {d44}");
        assert!(!f.to_text().is_empty());
    }
}
