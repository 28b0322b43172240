//! Per-hop RTT decomposition and RTT-vs-distance models (Figs. 13–15).
//!
//! The paper's traceroute study found:
//!
//! * hop 1 (RAN): 2.19 ± 0.36 ms for 5G vs 2.6 ± 0.24 ms for 4G — the NR
//!   air interface saves *less than 1 ms*;
//! * hop 2 (to the cellular core): the flat 5G architecture and 25 Gbps
//!   fronthaul save ≈20 ms — essentially all of 5G's latency advantage;
//! * beyond the core, RTT grows with geographic distance identically for
//!   both technologies, so the relative advantage shrinks with path
//!   length (Fig. 15), reaching 82.35 ms average 5G RTT at 2500 km.

use crate::servers::Server;
use fiveg_simcore::{normal, SimRng};
use serde::Serialize;

/// Technology selector mirroring `fiveg_phy::Tech` without the
/// dependency (the latency model is analytic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum RatTech {
    /// 4G LTE.
    Lte,
    /// 5G NR (NSA).
    Nr,
}

/// RTT contribution parameters, calibrated to Figs. 13–15.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct LatencyModel {
    /// Mean hop-1 (RAN) RTT, ms.
    pub ran_rtt_ms: f64,
    /// Std-dev of hop-1 RTT, ms.
    pub ran_rtt_std_ms: f64,
    /// RTT from the RAN edge through the cellular core, ms.
    pub core_rtt_ms: f64,
    /// Fixed wireline base beyond the core (peering, city egress), ms.
    pub wireline_base_ms: f64,
    /// Wireline RTT per km of great-circle distance, ms (fibre at
    /// ~200 km/ms, doubled for RTT, ×~1.35 route inflation).
    pub per_km_ms: f64,
}

impl LatencyModel {
    /// Calibrated parameters per technology.
    pub fn paper(tech: RatTech) -> Self {
        match tech {
            RatTech::Nr => LatencyModel {
                ran_rtt_ms: 2.19,
                ran_rtt_std_ms: 0.36,
                core_rtt_ms: 5.0,
                wireline_base_ms: 7.0,
                per_km_ms: 0.0273,
            },
            RatTech::Lte => LatencyModel {
                ran_rtt_ms: 2.6,
                ran_rtt_std_ms: 0.24,
                core_rtt_ms: 25.0,
                wireline_base_ms: 7.0,
                per_km_ms: 0.0273,
            },
        }
    }

    /// Mean end-to-end RTT to a server at `distance_km`, ms.
    pub fn mean_rtt_ms(&self, distance_km: f64) -> f64 {
        self.ran_rtt_ms + self.core_rtt_ms + self.wireline_base_ms + self.per_km_ms * distance_km
    }

    /// Number of traceroute hops to a server at `distance_km` (the paper's
    /// example path has 8; long paths have a few more).
    pub fn hop_count(&self, distance_km: f64) -> usize {
        (6.0 + (distance_km / 600.0)).round().clamp(6.0, 14.0) as usize
    }

    /// Samples one traceroute: cumulative RTT per hop, ms.
    ///
    /// Hop 1 is the RAN; hop 2 the cellular core; the remaining hops
    /// split the wireline distance with a front-loaded profile (the city
    /// egress hops are close together, the long-haul hop dominates).
    pub fn sample_traceroute(&self, distance_km: f64, rng: &mut SimRng) -> Vec<f64> {
        let n = self.hop_count(distance_km);
        let mut cum = Vec::with_capacity(n);
        let ran = normal(rng, self.ran_rtt_ms, self.ran_rtt_std_ms).max(0.5);
        cum.push(ran);
        let core = ran + normal(rng, self.core_rtt_ms, self.core_rtt_ms * 0.12).max(0.5);
        cum.push(core);
        let wire_total = (self.wireline_base_ms + self.per_km_ms * distance_km)
            * normal(rng, 1.0, 0.08).max(0.7);
        let wire_hops = n - 2;
        // Front-load fractions: hop i of the wireline carries weight
        // proportional to i^2 so the final long-haul hops dominate.
        let weights: Vec<f64> = (1..=wire_hops).map(|i| (i * i) as f64).collect();
        let wsum: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in weights {
            acc += wire_total * w / wsum;
            cum.push(core + acc * normal(rng, 1.0, 0.03).max(0.9));
        }
        // Cumulative RTTs must be non-decreasing despite jitter.
        for i in 1..cum.len() {
            if cum[i] < cum[i - 1] {
                cum[i] = cum[i - 1];
            }
        }
        cum
    }

    /// Samples the end-to-end RTT to a server, ms, with per-measurement
    /// jitter and a deterministic per-server residual (peering quality).
    pub fn sample_rtt_ms(&self, server: &Server, rng: &mut SimRng) -> f64 {
        let residual = {
            // Hash the server id into ±12 % multiplicative residual.
            let h = (server.id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
            1.0 + ((h % 2400) as f64 / 10_000.0) - 0.12
        };
        let mean = self.mean_rtt_ms(server.distance_km) * residual;
        normal(rng, mean, mean * 0.06).max(2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::servers::PAPER_SERVERS;
    use fiveg_simcore::OnlineStats;

    #[test]
    fn ran_hop_saves_less_than_a_millisecond() {
        let nr = LatencyModel::paper(RatTech::Nr);
        let lte = LatencyModel::paper(RatTech::Lte);
        let gap = lte.ran_rtt_ms - nr.ran_rtt_ms;
        assert!(gap > 0.0 && gap < 1.0, "RAN gap {gap} ms");
    }

    #[test]
    fn core_hop_saves_about_twenty_ms() {
        let nr = LatencyModel::paper(RatTech::Nr);
        let lte = LatencyModel::paper(RatTech::Lte);
        let gap = lte.core_rtt_ms - nr.core_rtt_ms;
        assert!((18.0..22.0).contains(&gap), "core gap {gap} ms");
    }

    #[test]
    fn fleet_average_matches_fig13() {
        // Paper: one-way 5G latency 21.8 ms on average over 80 paths →
        // RTT ≈ 43.6 ms; 4G ≈ 22.3 ms more.
        let mut rng = SimRng::new(1);
        let mut nr = OnlineStats::new();
        let mut lte = OnlineStats::new();
        for s in &PAPER_SERVERS {
            for _ in 0..30 {
                nr.push(LatencyModel::paper(RatTech::Nr).sample_rtt_ms(s, &mut rng));
                lte.push(LatencyModel::paper(RatTech::Lte).sample_rtt_ms(s, &mut rng));
            }
        }
        assert!(
            (35.0..52.0).contains(&nr.mean()),
            "5G mean RTT {}",
            nr.mean()
        );
        let gap = lte.mean() - nr.mean();
        assert!((18.0..26.0).contains(&gap), "gap {gap}");
    }

    #[test]
    fn rtt_grows_about_five_x_from_100_to_2500_km() {
        let m = LatencyModel::paper(RatTech::Nr);
        let near = m.mean_rtt_ms(100.0);
        let far = m.mean_rtt_ms(2500.0);
        let ratio = far / near;
        assert!((4.0..6.0).contains(&ratio), "ratio {ratio}");
        assert!((75.0..90.0).contains(&far), "2500 km RTT {far}");
    }

    #[test]
    fn traceroute_cumulative_and_calibrated() {
        let mut rng = SimRng::new(2);
        let m = LatencyModel::paper(RatTech::Nr);
        for _ in 0..100 {
            let tr = m.sample_traceroute(30.0, &mut rng);
            assert!(tr.len() >= 6);
            assert!(
                tr.windows(2).all(|w| w[0] <= w[1]),
                "not cumulative: {tr:?}"
            );
        }
        // Hop-1 statistics.
        let mut s = OnlineStats::new();
        for _ in 0..2_000 {
            s.push(m.sample_traceroute(30.0, &mut rng)[0]);
        }
        assert!((s.mean() - 2.19).abs() < 0.1, "hop1 mean {}", s.mean());
    }

    #[test]
    fn relative_gap_shrinks_with_distance() {
        let nr = LatencyModel::paper(RatTech::Nr);
        let lte = LatencyModel::paper(RatTech::Lte);
        let rel = |d: f64| (lte.mean_rtt_ms(d) - nr.mean_rtt_ms(d)) / lte.mean_rtt_ms(d);
        assert!(
            rel(100.0) > 2.0 * rel(2500.0),
            "{} vs {}",
            rel(100.0),
            rel(2500.0)
        );
    }
}
