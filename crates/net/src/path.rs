//! Canonical end-to-end path configurations, calibrated to the paper.
//!
//! The measured path (UE ↔ cloud server in the same city) decomposes
//! into four segments the paper probes separately (Sec. 4.2, 4.4):
//!
//! 1. **radio** — the RAN air interface. Rate = the UDP baseline the
//!    paper measured (Fig. 7); deep RLC buffer (bufferbloat); HARQ delay
//!    jitter; ≈2 ms one-way latency (Fig. 14 hop 1).
//! 2. **core** — gNB/eNB to the cellular core. The 5G "flat"
//!    architecture + 25 Gbps fronthaul cuts ≈10 ms one-way versus the
//!    LTE EPC detour (Fig. 14 hop 2).
//! 3. **metro** — the legacy 1 Gbps metro/ISP router where the loss
//!    anomaly lives: finite drop-tail buffer sized from the paper's
//!    Tab. 3 estimates (5G path ≈2.5× the 4G path's — *not* the 5× the
//!    capacity grew), shared with bursty cross-traffic.
//! 4. **server** — the cloud ingress (never the bottleneck).

use crate::crosstraffic::CrossTraffic;
use crate::hop::HopConfig;
use crate::ratemodel::RateModel;
use fiveg_simcore::{BitRate, Dist, SimDuration};
use serde::Serialize;

/// Which direction the data path carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Direction {
    /// Server → UE.
    Downlink,
    /// UE → server.
    Uplink,
}

/// A forward data path plus the reverse-channel delay for ACKs.
#[derive(Debug, Clone, Serialize)]
pub struct PathConfig {
    /// The hops, in forward order.
    pub hops: Vec<HopConfig>,
    /// Fixed delay of the ACK return channel (sum of reverse propagation;
    /// the reverse direction is never congested in these experiments).
    pub reverse_delay: SimDuration,
}

/// Knobs of the canonical paper path.
#[derive(Debug, Clone, Serialize)]
pub struct PaperPathParams {
    /// Radio-link rate (the UDP baseline), Mbps.
    pub radio_rate_mbps: f64,
    /// Radio (RLC) buffer, packets.
    pub radio_buffer_pkts: usize,
    /// One-way radio latency.
    pub radio_prop: SimDuration,
    /// One-way core-segment latency (5G flat ≈2.5 ms; 4G EPC ≈12.5 ms).
    pub core_prop: SimDuration,
    /// Metro bottleneck rate, Mbps (1 Gbps legacy router).
    pub metro_rate_mbps: f64,
    /// Metro router buffer, packets — the Tab. 3 lever.
    pub metro_buffer_pkts: usize,
    /// Residual random loss on the metro segment.
    pub metro_drop_prob: f64,
}

impl PaperPathParams {
    /// The 5G NSA downlink to the paper's cloud server (daytime UDP
    /// baseline 880 Mbps; metro buffer ≈1.6 MB per Tab. 3).
    pub fn nr_day() -> Self {
        PaperPathParams {
            radio_rate_mbps: 880.0,
            radio_buffer_pkts: 3000,
            radio_prop: SimDuration::from_millis(2),
            core_prop: SimDuration::from_micros(2_500),
            metro_rate_mbps: 1000.0,
            metro_buffer_pkts: 1100,
            metro_drop_prob: 2e-5,
        }
    }

    /// 5G at night (900 Mbps baseline).
    pub fn nr_night() -> Self {
        PaperPathParams {
            radio_rate_mbps: 900.0,
            ..Self::nr_day()
        }
    }

    /// The 4G LTE downlink (daytime 130 Mbps; EPC detour; metro buffer
    /// ≈0.64 MB per Tab. 3).
    pub fn lte_day() -> Self {
        PaperPathParams {
            radio_rate_mbps: 130.0,
            radio_buffer_pkts: 300,
            radio_prop: SimDuration::from_millis(3),
            core_prop: SimDuration::from_micros(12_500),
            metro_rate_mbps: 1000.0,
            metro_buffer_pkts: 440,
            metro_drop_prob: 2e-5,
        }
    }

    /// 4G at night (200 Mbps baseline).
    pub fn lte_night() -> Self {
        PaperPathParams {
            radio_rate_mbps: 200.0,
            ..Self::lte_day()
        }
    }

    /// Uplink variants: the paper's UL baselines (Sec. 4.1): 5G 130 Mbps
    /// day and night; 4G 50 Mbps day, 100 Mbps night.
    pub fn nr_ul() -> Self {
        PaperPathParams {
            radio_rate_mbps: 130.0,
            ..Self::nr_day()
        }
    }

    /// 4G uplink, daytime.
    pub fn lte_ul_day() -> Self {
        PaperPathParams {
            radio_rate_mbps: 50.0,
            ..Self::lte_day()
        }
    }
}

impl PathConfig {
    /// Builds the canonical four-hop paper path.
    ///
    /// For the downlink the order is server→…→radio→UE reversed into
    /// forward order radio-last; we model the *forward* direction as the
    /// data direction, so hop 0 carries data first. Downlink: the server
    /// injects, so hops run server→metro→core→radio. Uplink: the UE
    /// injects, so hops run radio→core→metro→server.
    pub fn paper(params: &PaperPathParams, dir: Direction) -> PathConfig {
        let radio = HopConfig {
            name: "radio".into(),
            rate: RateModel::Fixed(BitRate::from_mbps(params.radio_rate_mbps)),
            prop_delay: params.radio_prop,
            capacity_pkts: params.radio_buffer_pkts,
            // HARQ retransmission rounds: ≈10 % of transport blocks pay
            // one ~4 ms round, ~1 % two — an exponential with 0.5 ms mean
            // reproduces the delay jitter envelope.
            extra_delay_ms: Some(Dist::Exponential { mean: 0.5 }),
            drop_prob: 0.0,
        };
        let core = HopConfig::wired(
            "core",
            2.0 * params.metro_rate_mbps,
            params.core_prop,
            20_000,
        );
        let metro = HopConfig {
            drop_prob: params.metro_drop_prob,
            ..HopConfig::wired(
                "metro",
                params.metro_rate_mbps,
                SimDuration::from_millis(4),
                params.metro_buffer_pkts,
            )
        };
        let server = HopConfig::wired("server", 10_000.0, SimDuration::from_millis(4), 20_000);
        let hops = match dir {
            Direction::Downlink => vec![server, metro, core, radio],
            Direction::Uplink => vec![radio, core, metro, server],
        };
        let reverse_delay: SimDuration =
            hops.iter().map(|h| h.prop_delay).sum::<SimDuration>() + SimDuration::from_micros(500);
        PathConfig {
            hops,
            reverse_delay,
        }
    }

    /// The conservative-PDES lookahead this path declares when its
    /// endpoints live on different shards: the smallest one-way hop
    /// latency ([`HopConfig::lookahead`]), i.e. the tightest bound on
    /// how soon a message injected at one end can influence the other.
    /// [`SimDuration::ZERO`] for an empty path (no lookahead claim —
    /// callers must not use such a path as a shard boundary).
    pub fn min_lookahead(&self) -> SimDuration {
        self.hops
            .iter()
            .map(HopConfig::lookahead)
            .min()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Index of the metro (bottleneck) hop in a paper path. Paths from
    /// [`PathConfig::paper`] always carry one; a hand-built path
    /// without a hop named `metro` falls back to its first hop rather
    /// than aborting the campaign.
    pub fn metro_hop_index(&self) -> usize {
        self.hops
            .iter()
            .position(|h| h.name == "metro")
            .unwrap_or_default()
    }

    /// Index of the radio hop in a paper path, with the same first-hop
    /// fallback as [`PathConfig::metro_hop_index`].
    pub fn radio_hop_index(&self) -> usize {
        self.hops
            .iter()
            .position(|h| h.name == "radio")
            .unwrap_or_default()
    }

    /// The calibrated cross-traffic for this path's metro hop: ≈700 Mbps
    /// bursts of ≈30 ms every ≈150 ms (≈140 Mbps average). Heavy enough
    /// that a 5G-scale flow overflows the 1.6 MB metro buffer on most
    /// bursts (frequent loss events, small per-event volume — exactly
    /// the regime that collapses loss-based TCP while barely denting
    /// BBR), yet light enough to leave ≤200 Mbps 4G flows unharmed
    /// (Fig. 9).
    pub fn paper_cross_traffic(&self) -> CrossTraffic {
        CrossTraffic {
            hop: self.metro_hop_index(),
            rate: BitRate::from_mbps(700.0),
            on_ms: Dist::Exponential { mean: 30.0 },
            off_ms: Dist::Exponential { mean: 120.0 },
        }
    }

    /// Base (unloaded) round-trip time of the path for an MSS packet,
    /// ignoring queueing: forward props + serialisation + reverse delay.
    pub fn base_rtt(&self) -> SimDuration {
        let fwd: SimDuration = self.hops.iter().map(|h| h.prop_delay).sum();
        let ser: f64 = self
            .hops
            .iter()
            .map(|h| {
                let r = h.rate.rate_at(fiveg_simcore::SimTime::ZERO);
                r.secs_for_bits(crate::packet::MSS_BYTES as f64 * 8.0)
            })
            .sum();
        fwd + SimDuration::from_secs_f64(ser) + self.reverse_delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_paths_have_expected_shape() {
        let dl = PathConfig::paper(&PaperPathParams::nr_day(), Direction::Downlink);
        assert_eq!(dl.hops.len(), 4);
        assert_eq!(dl.hops[3].name, "radio");
        assert_eq!(dl.metro_hop_index(), 1);
        let ul = PathConfig::paper(&PaperPathParams::nr_ul(), Direction::Uplink);
        assert_eq!(ul.hops[0].name, "radio");
        assert_eq!(ul.metro_hop_index(), 2);
    }

    #[test]
    fn lookahead_is_the_smallest_one_way_hop_latency() {
        let dl = PathConfig::paper(&PaperPathParams::nr_day(), Direction::Downlink);
        // The 5G flat core's 2.5 ms is beaten by the 2 ms radio hop.
        assert_eq!(dl.min_lookahead(), SimDuration::from_millis(2));
        assert_eq!(dl.hops[3].lookahead(), dl.hops[3].prop_delay);
        let empty = PathConfig {
            hops: vec![],
            reverse_delay: SimDuration::ZERO,
        };
        assert_eq!(empty.min_lookahead(), SimDuration::ZERO);
    }

    #[test]
    fn rtt_gap_between_4g_and_5g_matches_paper() {
        // The flat 5G core saves ≈20 ms of RTT (Fig. 14).
        let nr = PathConfig::paper(&PaperPathParams::nr_day(), Direction::Downlink).base_rtt();
        let lte = PathConfig::paper(&PaperPathParams::lte_day(), Direction::Downlink).base_rtt();
        let gap = lte.as_millis_f64() - nr.as_millis_f64();
        assert!((18.0..26.0).contains(&gap), "gap {gap} ms");
        // 5G base RTT in the low tens of ms for the same-city server.
        let nr_ms = nr.as_millis_f64();
        assert!((20.0..32.0).contains(&nr_ms), "5G base RTT {nr_ms} ms");
    }

    #[test]
    fn buffer_ratio_is_the_paper_imbalance() {
        // Capacity grew ~5–6.8× (880/130) but the metro buffer only
        // ~2.5× — the root of the TCP anomaly (Sec. 4.2).
        let nr = PaperPathParams::nr_day();
        let lte = PaperPathParams::lte_day();
        let cap_ratio = nr.radio_rate_mbps / lte.radio_rate_mbps;
        let buf_ratio = nr.metro_buffer_pkts as f64 / lte.metro_buffer_pkts as f64;
        assert!(cap_ratio > 5.0);
        assert!((2.0..3.0).contains(&buf_ratio), "buffer ratio {buf_ratio}");
    }

    #[test]
    fn cross_traffic_spares_4g_rates() {
        let p = PathConfig::paper(&PaperPathParams::lte_day(), Direction::Downlink);
        let ct = p.paper_cross_traffic();
        // 4G peak (200 Mbps) + burst rate must fit in the metro link.
        assert!(200.0 + ct.rate.mbps() <= 1000.0 * 0.95);
        // 5G day rate + burst rate must overload it.
        assert!(880.0 + ct.rate.mbps() > 1000.0 * 1.3);
    }

    #[test]
    fn night_paths_only_change_radio_rate() {
        let d = PaperPathParams::nr_day();
        let n = PaperPathParams::nr_night();
        assert_eq!(d.metro_buffer_pkts, n.metro_buffer_pkts);
        assert!(n.radio_rate_mbps > d.radio_rate_mbps);
    }
}
