//! End-to-end latency experiments: Fig. 13, Fig. 14, Fig. 15.

use crate::report;
use crate::scenario::Fidelity;
use fiveg_net::{LatencyModel, RatTech, Server, PAPER_SERVERS};
use fiveg_simcore::SimRng;
use serde::Serialize;

/// Fig. 13: per-measurement 4G vs 5G RTT pairs over the 80 paths.
#[derive(Debug, Clone, Serialize)]
pub struct Fig13 {
    /// `(server id, rtt_4g_ms, rtt_5g_ms)` per measurement.
    pub pairs: Vec<(u32, f64, f64)>,
}

impl Fig13 {
    /// Mean one-way 5G latency, ms.
    pub fn mean_oneway_5g(&self) -> f64 {
        self.pairs.iter().map(|&(_, _, r5)| r5).sum::<f64>() / self.pairs.len().max(1) as f64 / 2.0
    }

    /// Mean RTT gap (4G − 5G), ms.
    pub fn mean_gap(&self) -> f64 {
        self.pairs.iter().map(|&(_, r4, r5)| r4 - r5).sum::<f64>() / self.pairs.len().max(1) as f64
    }

    /// Renders the figure.
    pub fn to_text(&self) -> String {
        let mut s = format!(
            "== Fig. 13: RTT scatter over {} measurements ==\n",
            self.pairs.len()
        );
        s += &report::compare(
            "5G one-way latency",
            crate::calib::PAPER_ONEWAY_LATENCY_5G_MS,
            self.mean_oneway_5g(),
            "ms",
        );
        s.push('\n');
        s += &report::compare(
            "RTT gap 4G-5G",
            crate::calib::PAPER_RTT_GAP_MS,
            self.mean_gap(),
            "ms",
        );
        s.push('\n');
        s
    }
}

/// Runs Fig. 13: 30 probes to each of the 20 servers (the paper's 4
/// gNB sites are folded into per-measurement jitter).
pub fn fig13(fidelity: Fidelity, seed: u64) -> Fig13 {
    let mut rng = SimRng::new(seed).substream("fig13");
    let repeats = match fidelity {
        Fidelity::Quick => 5,
        Fidelity::Paper => 30,
    };
    let nr = LatencyModel::paper(RatTech::Nr);
    let lte = LatencyModel::paper(RatTech::Lte);
    let mut pairs = Vec::new();
    for s in &PAPER_SERVERS {
        for _ in 0..repeats {
            pairs.push((
                s.id,
                lte.sample_rtt_ms(s, &mut rng),
                nr.sample_rtt_ms(s, &mut rng),
            ));
        }
    }
    Fig13 { pairs }
}

/// Fig. 14: cumulative RTT per hop on an 8-hop example path.
#[derive(Debug, Clone, Serialize)]
pub struct Fig14 {
    /// Mean cumulative RTT per hop, 4G, ms.
    pub hops_4g: Vec<f64>,
    /// Mean cumulative RTT per hop, 5G, ms.
    pub hops_5g: Vec<f64>,
}

impl Fig14 {
    /// The latency saving at hop 1 (RAN), ms.
    pub fn ran_saving(&self) -> f64 {
        self.hops_4g[0] - self.hops_5g[0]
    }

    /// The latency saving after the core hop, ms.
    pub fn core_saving(&self) -> f64 {
        (self.hops_4g[1] - self.hops_5g[1]) - self.ran_saving()
    }

    /// Renders the figure.
    pub fn to_text(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .hops_4g
            .iter()
            .zip(&self.hops_5g)
            .enumerate()
            .map(|(i, (&h4, &h5))| {
                vec![format!("{}", i + 1), format!("{h4:.1}"), format!("{h5:.1}")]
            })
            .collect();
        let mut s = report::table(
            "Fig. 14: cumulative RTT per hop (ms)",
            &["hop", "4G", "5G"],
            &rows,
        );
        s += &format!(
            "RAN hop saves {:.2} ms (paper <1 ms); core hop saves {:.1} ms (paper ≈20 ms)\n",
            self.ran_saving(),
            self.core_saving()
        );
        s
    }
}

/// Runs Fig. 14 on a same-city path (the paper's example: ~30 km, 8 hops).
pub fn fig14(seed: u64, runs: usize) -> Fig14 {
    let mut rng = SimRng::new(seed).substream("fig14");
    let distance_km = 30.0;
    let avg = |tech: RatTech, rng: &mut SimRng| -> Vec<f64> {
        let model = LatencyModel::paper(tech);
        let n = model.hop_count(distance_km);
        let mut acc = vec![0.0; n];
        for _ in 0..runs {
            let tr = model.sample_traceroute(distance_km, rng);
            for (i, v) in tr.iter().enumerate() {
                acc[i] += v;
            }
        }
        acc.iter().map(|v| v / runs as f64).collect()
    };
    Fig14 {
        hops_4g: avg(RatTech::Lte, &mut rng),
        hops_5g: avg(RatTech::Nr, &mut rng),
    }
}

/// Fig. 15: RTT vs geographic path length.
#[derive(Debug, Clone, Serialize)]
pub struct Fig15 {
    /// `(distance_km, mean rtt 4G, mean rtt 5G)` per server.
    pub rows: Vec<(f64, f64, f64)>,
}

impl Fig15 {
    /// Mean 5G RTT among far servers (>2000 km).
    pub fn far_rtt_5g(&self) -> f64 {
        let v: Vec<f64> = self
            .rows
            .iter()
            .filter(|&&(d, ..)| d > 2_000.0)
            .map(|&(_, _, r)| r)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    }

    /// Renders the figure.
    pub fn to_text(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|&(d, r4, r5)| {
                vec![
                    format!("{d:.0}"),
                    format!("{r4:.1}"),
                    format!("{r5:.1}"),
                    format!("{:.1}", r4 - r5),
                ]
            })
            .collect();
        let mut s = report::table(
            "Fig. 15: RTT vs distance (ms)",
            &["km", "4G", "5G", "gap"],
            &rows,
        );
        s += &report::compare(
            "5G RTT at ~2500 km",
            crate::calib::PAPER_RTT_AT_2500KM_MS,
            self.far_rtt_5g(),
            "ms",
        );
        s.push('\n');
        s
    }
}

/// Runs Fig. 15 over the paper's server list.
pub fn fig15(fidelity: Fidelity, seed: u64) -> Fig15 {
    let mut rng = SimRng::new(seed).substream("fig15");
    let repeats = match fidelity {
        Fidelity::Quick => 10,
        Fidelity::Paper => 30,
    };
    let nr = LatencyModel::paper(RatTech::Nr);
    let lte = LatencyModel::paper(RatTech::Lte);
    let mean_rtt = |m: &LatencyModel, s: &Server, rng: &mut SimRng| -> f64 {
        (0..repeats).map(|_| m.sample_rtt_ms(s, rng)).sum::<f64>() / repeats as f64
    };
    let rows = PAPER_SERVERS
        .iter()
        .map(|s| {
            (
                s.distance_km,
                mean_rtt(&lte, s, &mut rng),
                mean_rtt(&nr, s, &mut rng),
            )
        })
        .collect();
    Fig15 { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiveg_simcore::Cdf;

    /// Convenience: the RTT CDFs behind Fig. 13 (handy for plotting).
    fn fig13_cdfs(f: &Fig13) -> (Cdf, Cdf) {
        (
            Cdf::from_samples(f.pairs.iter().map(|&(_, r4, _)| r4).collect()),
            Cdf::from_samples(f.pairs.iter().map(|&(_, _, r5)| r5).collect()),
        )
    }

    #[test]
    fn fig13_means_match_paper() {
        let f = fig13(Fidelity::Quick, 1);
        assert_eq!(f.pairs.len(), 20 * 5);
        let oneway = f.mean_oneway_5g();
        assert!((15.0..30.0).contains(&oneway), "one-way {oneway}");
        let gap = f.mean_gap();
        assert!((17.0..28.0).contains(&gap), "gap {gap}");
    }

    #[test]
    fn fig14_savings_decompose() {
        let f = fig14(2, 50);
        assert!(f.hops_4g.len() >= 6);
        // RAN saves <1 ms; the core saves ≈20 ms.
        let ran = f.ran_saving();
        assert!((0.0..1.0).contains(&ran), "RAN saving {ran}");
        let core = f.core_saving();
        assert!((16.0..24.0).contains(&core), "core saving {core}");
        // Cumulative RTTs are monotone.
        assert!(f.hops_5g.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn fig15_rtt_grows_and_gap_shrinks_relatively() {
        let f = fig15(Fidelity::Quick, 3);
        let near = f.rows.first().unwrap();
        let far = f.rows.last().unwrap();
        assert!(far.2 > 3.0 * near.2, "5G RTT growth {} → {}", near.2, far.2);
        let rel_near = (near.1 - near.2) / near.1;
        let rel_far = (far.1 - far.2) / far.1;
        assert!(rel_near > rel_far, "relative gap must shrink");
        let far5g = f.far_rtt_5g();
        assert!((60.0..110.0).contains(&far5g), "far RTT {far5g}");
    }

    #[test]
    fn fig13_cdfs_are_ordered() {
        let f = fig13(Fidelity::Quick, 4);
        let (c4, c5) = fig13_cdfs(&f);
        assert!(c4.median() > c5.median());
    }
}
