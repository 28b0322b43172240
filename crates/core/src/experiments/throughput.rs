//! Transport experiments: Fig. 7, Fig. 8, Fig. 9, Fig. 10, Fig. 11,
//! Tab. 3.

use crate::report;
use crate::scenario::Fidelity;
use fiveg_net::path::{Direction, PaperPathParams, PathConfig};
use fiveg_net::{
    estimate_buffer_pkts, paper_capacity, BufferEstimate, FlowId, NetSim, MSS_BYTES,
    PAPER_PROBE_BYTES,
};
use fiveg_ran::{attempts_histogram, DayPeriod, HarqConfig};
use fiveg_simcore::{BitRate, SimDuration, SimRng, SimTime};
use fiveg_transport::udp::udp_probe;
use fiveg_transport::{CcAlgorithm, TcpSender};
use serde::Serialize;

fn params_for(tech5g: bool, period: DayPeriod, uplink: bool) -> PaperPathParams {
    match (tech5g, period, uplink) {
        (true, DayPeriod::Day, false) => PaperPathParams::nr_day(),
        (true, DayPeriod::Night, false) => PaperPathParams::nr_night(),
        (false, DayPeriod::Day, false) => PaperPathParams::lte_day(),
        (false, DayPeriod::Night, false) => PaperPathParams::lte_night(),
        (true, _, true) => PaperPathParams::nr_ul(),
        (false, DayPeriod::Day, true) => PaperPathParams::lte_ul_day(),
        (false, DayPeriod::Night, true) => PaperPathParams {
            radio_rate_mbps: 100.0,
            ..PaperPathParams::lte_ul_day()
        },
    }
}

/// Fig. 7: UDP baselines and TCP utilisation per protocol and tech.
#[derive(Debug, Clone, Serialize)]
pub struct Fig7 {
    /// UDP baselines, Mbps: (label, measured).
    pub udp_baselines: Vec<(String, f64)>,
    /// TCP goodput and utilisation: (tech label, protocol, Mbps, util).
    pub tcp: Vec<(String, String, f64, f64)>,
}

impl Fig7 {
    /// Utilisation for a given tech/protocol.
    pub fn util(&self, tech: &str, proto: &str) -> f64 {
        self.tcp
            .iter()
            .find(|(t, p, ..)| t == tech && p == proto)
            .map_or(f64::NAN, |&(.., u)| u)
    }

    /// Renders the figure.
    pub fn to_text(&self) -> String {
        let mut rows = Vec::new();
        for (label, mbps) in &self.udp_baselines {
            rows.push(vec![label.clone(), format!("{mbps:.0} Mbps")]);
        }
        let mut s = report::table("Fig. 7a: UDP baselines", &["path", "goodput"], &rows);
        let rows: Vec<Vec<String>> = self
            .tcp
            .iter()
            .map(|(t, p, m, u)| {
                vec![
                    t.clone(),
                    p.clone(),
                    format!("{m:.0}"),
                    format!("{:.1}%", u * 100.0),
                ]
            })
            .collect();
        s += &report::table(
            "Fig. 7b: TCP goodput / utilisation",
            &["tech", "protocol", "Mbps", "util"],
            &rows,
        );
        s += &report::compare(
            "5G Cubic util",
            crate::calib::PAPER_UTIL_5G[1],
            self.util("5G", "Cubic"),
            "",
        );
        s.push('\n');
        s += &report::compare(
            "5G BBR util",
            crate::calib::PAPER_UTIL_5G[4],
            self.util("5G", "BBR"),
            "",
        );
        s.push('\n');
        s += &report::compare(
            "4G Cubic util",
            crate::calib::PAPER_UTIL_4G_CUBIC,
            self.util("4G", "Cubic"),
            "",
        );
        s.push('\n');
        s
    }
}

/// Runs a TCP bulk flow over a paper path; returns goodput in Mbps.
pub fn tcp_goodput(params: &PaperPathParams, alg: CcAlgorithm, secs: u64, seed: u64) -> f64 {
    let path = PathConfig::paper(params, Direction::Downlink);
    let cross = path.paper_cross_traffic();
    let mut sim = NetSim::new(path, seed);
    sim.add_cross_traffic(cross);
    let (sender, _rep) = TcpSender::new(alg, None);
    let flow = sim.add_flow(Box::new(sender), true, false);
    sim.run_until(SimTime::from_secs(secs));
    sim.flow_stats(flow)
        .mean_goodput_until(SimTime::from_secs(secs))
        .mbps()
}

/// Runs Fig. 7: daytime/night UDP baselines and the 5-protocol TCP
/// matrix on both techs.
pub fn fig7(fidelity: Fidelity, seed: u64) -> Fig7 {
    let secs = fidelity.flow_secs();
    let dur = SimDuration::from_secs(secs);
    let mut udp_baselines = Vec::new();
    for (label, tech5g, period, uplink) in [
        ("5G DL day", true, DayPeriod::Day, false),
        ("5G DL night", true, DayPeriod::Night, false),
        ("4G DL day", false, DayPeriod::Day, false),
        ("4G DL night", false, DayPeriod::Night, false),
        ("5G UL day", true, DayPeriod::Day, true),
        ("4G UL day", false, DayPeriod::Day, true),
        ("4G UL night", false, DayPeriod::Night, true),
    ] {
        let p = params_for(tech5g, period, uplink);
        let dir = if uplink {
            Direction::Uplink
        } else {
            Direction::Downlink
        };
        let path = PathConfig::paper(&p, dir);
        let cross = path.paper_cross_traffic();
        // Probe slightly above the radio rate to find the ceiling.
        let r = udp_probe(
            path,
            Some(cross),
            BitRate::from_mbps(p.radio_rate_mbps * 1.1),
            dur,
            seed,
        );
        udp_baselines.push((label.to_owned(), r.received.mbps()));
    }

    let mut tcp = Vec::new();
    for (tech, tech5g) in [("4G", false), ("5G", true)] {
        let p = params_for(tech5g, DayPeriod::Day, false);
        let baseline = p.radio_rate_mbps;
        for alg in CcAlgorithm::ALL {
            let mut total = 0.0;
            for rep in 0..fidelity.repeats() {
                total += tcp_goodput(&p, alg, secs, seed.wrapping_add(rep * 7919));
            }
            let goodput = total / fidelity.repeats() as f64;
            tcp.push((
                tech.to_owned(),
                alg.name().to_owned(),
                goodput,
                goodput / baseline,
            ));
        }
    }
    Fig7 { udp_baselines, tcp }
}

/// Fig. 8: cwnd evolution of Cubic vs BBR on the 5G path.
#[derive(Debug, Clone, Serialize)]
pub struct Fig8 {
    /// Cubic `(t_s, cwnd_kB)` samples.
    pub cubic: Vec<(f64, f64)>,
    /// BBR `(t_s, cwnd_kB)` samples.
    pub bbr: Vec<(f64, f64)>,
}

impl Fig8 {
    /// Renders a summary.
    pub fn to_text(&self) -> String {
        let peak = |v: &[(f64, f64)]| v.iter().map(|&(_, w)| w).fold(0.0, f64::max);
        let last = |v: &[(f64, f64)]| v.last().map_or(0.0, |&(_, w)| w);
        format!(
            "== Fig. 8: cwnd evolution (5G) ==\n\
             Cubic: {} samples, peak {:.0} kB, final {:.0} kB\n\
             BBR:   {} samples, peak {:.0} kB, final {:.0} kB\n\
             (paper: Cubic never sustains its window; BBR holds high after startup)\n",
            self.cubic.len(),
            peak(&self.cubic),
            last(&self.cubic),
            self.bbr.len(),
            peak(&self.bbr),
            last(&self.bbr),
        )
    }
}

/// Runs Fig. 8.
pub fn fig8(fidelity: Fidelity, seed: u64) -> Fig8 {
    let secs = fidelity.flow_secs();
    let run = |alg: CcAlgorithm| -> Vec<(f64, f64)> {
        let path = PathConfig::paper(&PaperPathParams::nr_day(), Direction::Downlink);
        let cross = path.paper_cross_traffic();
        let mut sim = NetSim::new(path, seed);
        sim.add_cross_traffic(cross);
        let (sender, report) = TcpSender::new(alg, None);
        sim.add_flow(Box::new(sender), true, false);
        sim.run_until(SimTime::from_secs(secs));
        let rep = report.lock();
        rep.cwnd_trace
            .iter()
            .map(|&(t, w)| (t.as_secs_f64(), w / 1e3))
            .collect()
    };
    Fig8 {
        cubic: run(CcAlgorithm::Cubic),
        bbr: run(CcAlgorithm::Bbr),
    }
}

/// Fig. 9: UDP loss ratio at fractions of the baseline bandwidth.
#[derive(Debug, Clone, Serialize)]
pub struct Fig9 {
    /// `(fraction, 4G loss, 5G loss)` rows.
    pub rows: Vec<(f64, f64, f64)>,
}

impl Fig9 {
    /// Loss at a fraction for 5G.
    pub fn loss_5g_at(&self, frac: f64) -> f64 {
        self.rows
            .iter()
            .find(|&&(f, ..)| (f - frac).abs() < 1e-9)
            .map_or(f64::NAN, |&(_, _, l)| l)
    }

    /// Renders the figure.
    pub fn to_text(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|&(f, l4, l5)| {
                vec![
                    format!("1/{:.0}", 1.0 / f),
                    format!("{:.2}%", l4 * 100.0),
                    format!("{:.2}%", l5 * 100.0),
                ]
            })
            .collect();
        let mut s = report::table(
            "Fig. 9: UDP loss vs offered fraction of baseline",
            &["fraction", "4G loss", "5G loss"],
            &rows,
        );
        s += &report::compare(
            "5G loss at 1/2 load",
            crate::calib::PAPER_5G_LOSS_AT_HALF_LOAD * 100.0,
            self.loss_5g_at(0.5) * 100.0,
            "%",
        );
        s.push('\n');
        s
    }
}

/// Runs Fig. 9 (fractions 1/5, 1/4, 1/3, 1/2, 1 of the baseline).
pub fn fig9(fidelity: Fidelity, seed: u64) -> Fig9 {
    let dur = SimDuration::from_secs(fidelity.flow_secs());
    let fracs = [0.2, 0.25, 1.0 / 3.0, 0.5, 1.0];
    let mut rows = Vec::new();
    for &f in &fracs {
        let mut losses = [0.0f64; 2];
        for (i, tech5g) in [false, true].iter().enumerate() {
            let p = params_for(*tech5g, DayPeriod::Day, false);
            let path = PathConfig::paper(&p, Direction::Downlink);
            let cross = path.paper_cross_traffic();
            let r = udp_probe(
                path,
                Some(cross),
                BitRate::from_mbps(p.radio_rate_mbps * f),
                dur,
                seed ^ (i as u64) << 7 ^ ((f * 1000.0) as u64),
            );
            losses[i] = r.loss_ratio;
        }
        rows.push((f, losses[0], losses[1]));
    }
    Fig9 { rows }
}

/// Fig. 10: HARQ retransmission distribution.
#[derive(Debug, Clone, Serialize)]
pub struct Fig10 {
    /// Fraction of blocks needing k+1 attempts, 4G.
    pub attempts_4g: Vec<f64>,
    /// Fraction of blocks needing k+1 attempts, 5G.
    pub attempts_5g: Vec<f64>,
}

impl Fig10 {
    /// Highest attempt index (1-based) with non-zero mass.
    pub fn max_attempts(v: &[f64]) -> usize {
        v.iter().rposition(|&x| x > 0.0).map_or(0, |i| i + 1)
    }

    /// Renders the figure.
    pub fn to_text(&self) -> String {
        let fmt = |v: &[f64]| -> String {
            v.iter()
                .take(5)
                .enumerate()
                .map(|(i, &x)| format!("{}:{:.2}%", i + 1, x * 100.0))
                .collect::<Vec<_>>()
                .join(" ")
        };
        format!(
            "== Fig. 10: HARQ attempts ==\n4G: {} (max {})\n5G: {} (max {})\n\
             (paper: all recovered within 4 tries on 4G, 2 on 5G; ceiling 32)\n",
            fmt(&self.attempts_4g),
            Self::max_attempts(&self.attempts_4g),
            fmt(&self.attempts_5g),
            Self::max_attempts(&self.attempts_5g),
        )
    }
}

/// Runs Fig. 10. 4G operates with less SINR margin (busy network, full
/// PRB contention) than the empty 5G carrier, hence more retries.
pub fn fig10(seed: u64, blocks: usize) -> Fig10 {
    let mut rng = SimRng::new(seed).substream("fig10");
    // Operating SINRs: exactly at the link-adaptation point for 4G
    // (≈10 % initial BLER), 1 dB of headroom for the lightly-loaded 5G.
    let sinr_4g = fiveg_phy::CQI_SINR_THRESHOLD_DB[10];
    let sinr_5g = fiveg_phy::CQI_SINR_THRESHOLD_DB[12] + 1.0;
    Fig10 {
        attempts_4g: attempts_histogram(sinr_4g, &HarqConfig::paper_lte(), blocks, &mut rng),
        attempts_5g: attempts_histogram(sinr_5g, &HarqConfig::paper_nr(), blocks, &mut rng),
    }
}

/// Fig. 11: received sequence numbers around loss episodes.
///
/// The artifact lists every arrival of the transfer as an `(arrival
/// index, sequence number)` pair under `points`. The stream is one UDP
/// flow on a FIFO path, so arrivals never reorder: arrival `i` carries
/// sequence number `i` plus the packets missing in every burst that
/// starts at or before `i`. `Fig11` therefore keeps only the arrival
/// count and the bursts, and its [`Serialize`] writes `points` from
/// them ([`Fig11::points`]), byte for byte the array an explicit pair
/// list would give.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// Number of packets received, in arrival order.
    pub arrivals: u64,
    /// Detected loss-burst episodes: `(start index, missing packets)`,
    /// ascending by start index.
    pub bursts: Vec<(u64, u64)>,
}

impl Fig11 {
    /// Builds the figure from the receiver's sequence-number log (bytes,
    /// in arrival order, every one a multiple of the MSS).
    fn from_log(log: &[u64]) -> Fig11 {
        let mss = MSS_BYTES as u64;
        let mut bursts = Vec::new();
        let mut expected = 0u64;
        let mut missing = 0u64;
        for (i, &seq) in log.iter().enumerate() {
            if seq > expected {
                let n = (seq - expected) / mss;
                bursts.push((i as u64, n));
                missing += n;
            }
            assert_eq!(seq / mss, i as u64 + missing, "arrival {i} out of order");
            expected = seq + mss;
        }
        Fig11 {
            arrivals: log.len() as u64,
            bursts,
        }
    }

    /// Every `(arrival index, sequence number)` of the transfer, in
    /// arrival order, derived from `bursts`.
    pub fn points(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut bursts = self.bursts.iter().peekable();
        let mut missing = 0u64;
        (0..self.arrivals).map(move |i| {
            if let Some(&(_, n)) = bursts.next_if(|&&(start, _)| start == i) {
                missing += n;
            }
            (i, i + missing)
        })
    }

    /// Renders a summary.
    pub fn to_text(&self) -> String {
        let total_lost: u64 = self.bursts.iter().map(|&(_, n)| n).sum();
        format!(
            "== Fig. 11: 5G loss pattern ==\n{} received packets inspected, \
             {} loss episodes, {} packets lost, largest burst {}\n\
             (paper: losses are bursty — intermittent buffer overflow)\n",
            self.arrivals,
            self.bursts.len(),
            total_lost,
            self.bursts.iter().map(|&(_, n)| n).max().unwrap_or(0),
        )
    }
}

/// Fig. 11's `points` array, written from the bursts.
struct Points<'a>(&'a Fig11);

impl Serialize for Points<'_> {
    fn serialize(&self, s: &mut serde::Serializer) {
        let mut seq = s.seq();
        for p in self.0.points() {
            seq.element(&p);
        }
        seq.end();
    }
}

/// Manual impl (instead of derive) so `points` is written from the
/// bursts instead of being held as a per-arrival vector.
impl Serialize for Fig11 {
    fn serialize(&self, s: &mut serde::Serializer) {
        let mut map = s.map();
        map.entry("points", &Points(self));
        map.entry("bursts", &self.bursts);
        map.end();
    }
}

/// Runs Fig. 11: a UDP stream at the 5G baseline with sequence logging.
///
/// On top of the shared paper path, the radio link rate dips every
/// couple of seconds (mmWave-style fades / rate re-adaptation). With
/// the sender pinned at the 880 Mbps baseline, each dip overflows the
/// deep RLC buffer and — since the UDP stream is alone on the radio
/// hop — the overflow drops land on *consecutive* sequence numbers:
/// the paper's bursty-loss signature.
pub fn fig11(fidelity: Fidelity, seed: u64) -> Fig11 {
    let (sim, flow) = fig11_transfer(fidelity, seed);
    Fig11::from_log(&sim.flow_stats(flow).seq_log)
}

/// Fig. 11's transfer, run to its end: the simulator and the logged flow.
fn fig11_transfer(fidelity: Fidelity, seed: u64) -> (NetSim, FlowId) {
    let p = PaperPathParams::nr_day();
    let mut path = PathConfig::paper(&p, Direction::Downlink);
    let mut fade_rng = SimRng::new(seed ^ 0xf1611);
    let mut points: Vec<(SimTime, BitRate)> =
        vec![(SimTime::ZERO, BitRate::from_mbps(p.radio_rate_mbps))];
    let mut t_ms = 0.0;
    loop {
        // A fade every ~2 s, dropping the link to ~10–15 % of the
        // baseline for ~80–120 ms.
        t_ms += fade_rng.range_f64(1_500.0, 2_500.0);
        if t_ms > 60_000.0 {
            break;
        }
        let dip = p.radio_rate_mbps * fade_rng.range_f64(0.10, 0.15);
        let dur = fade_rng.range_f64(80.0, 120.0);
        points.push((
            SimTime::ZERO + SimDuration::from_secs_f64(t_ms / 1e3),
            BitRate::from_mbps(dip),
        ));
        points.push((
            SimTime::ZERO + SimDuration::from_secs_f64((t_ms + dur) / 1e3),
            BitRate::from_mbps(p.radio_rate_mbps),
        ));
        t_ms += dur;
    }
    let radio = path.radio_hop_index();
    path.hops[radio].rate = fiveg_net::RateModel::piecewise(points);
    let cross = path.paper_cross_traffic();
    let mut sim = NetSim::new(path, seed);
    sim.add_cross_traffic(cross);
    let dur = SimDuration::from_secs(fidelity.flow_secs().min(10));
    let (sender, _rep) = fiveg_transport::UdpCbrSender::new(
        BitRate::from_mbps(p.radio_rate_mbps),
        Some(SimTime::ZERO + dur),
    );
    let flow = sim.add_flow(Box::new(sender), false, true);
    sim.run_until(SimTime::ZERO + dur + SimDuration::from_secs(1));
    (sim, flow)
}

/// Tab. 3: in-network buffer estimation via the max-min delay method.
#[derive(Debug, Clone, Serialize)]
pub struct Table3 {
    /// 4G estimates (RAN, wired, whole path), probe packets.
    pub est_4g: BufferEstimate,
    /// 5G estimates.
    pub est_5g: BufferEstimate,
}

impl Table3 {
    /// Whole-path buffer ratio 5G / 4G (paper ≈2.66).
    pub fn path_ratio(&self) -> f64 {
        self.est_5g.whole_path_pkts / self.est_4g.whole_path_pkts
    }

    /// Renders the table.
    pub fn to_text(&self) -> String {
        let rows = vec![
            vec![
                "4G".to_owned(),
                format!(
                    "{:.0} ({:.0})",
                    self.est_4g.ran_pkts,
                    crate::calib::PAPER_TAB3_4G[0]
                ),
                format!(
                    "{:.0} ({:.0})",
                    self.est_4g.wired_pkts,
                    crate::calib::PAPER_TAB3_4G[1]
                ),
                format!(
                    "{:.0} ({:.0})",
                    self.est_4g.whole_path_pkts,
                    crate::calib::PAPER_TAB3_4G[2]
                ),
            ],
            vec![
                "5G".to_owned(),
                format!(
                    "{:.0} ({:.0})",
                    self.est_5g.ran_pkts,
                    crate::calib::PAPER_TAB3_5G[0]
                ),
                format!(
                    "{:.0} ({:.0})",
                    self.est_5g.wired_pkts,
                    crate::calib::PAPER_TAB3_5G[1]
                ),
                format!(
                    "{:.0} ({:.0})",
                    self.est_5g.whole_path_pkts,
                    crate::calib::PAPER_TAB3_5G[2]
                ),
            ],
        ];
        let mut s = report::table(
            "Table 3: estimated buffers, 60 B probe pkts — measured (paper)",
            &["tech", "RAN", "wired", "whole path"],
            &rows,
        );
        s += &format!(
            "whole-path ratio 5G/4G: measured {:.2} (paper {:.2})\n",
            self.path_ratio(),
            crate::calib::PAPER_TAB3_5G[2] / crate::calib::PAPER_TAB3_4G[2]
        );
        s
    }
}

/// Runs Tab. 3: saturate each path segment with a bulk flow and apply
/// the paper's estimator to the observed queueing-delay spreads.
pub fn table3(fidelity: Fidelity, seed: u64) -> Table3 {
    let secs = fidelity.flow_secs().min(15);
    let estimate = |params: &PaperPathParams| -> BufferEstimate {
        let path = PathConfig::paper(params, Direction::Downlink);
        let radio_idx = path.radio_hop_index();
        let metro_idx = path.metro_hop_index();
        let mut sim = NetSim::new(path, seed);
        // Saturate with a loss-based bulk flow: it fills every buffer on
        // the path, which is exactly what the max-min method needs.
        let (sender, _rep) = TcpSender::new(CcAlgorithm::Cubic, None);
        sim.add_flow(Box::new(sender), true, false);
        sim.run_until(SimTime::from_secs(secs));
        let ran_delay = sim.hop_stats(radio_idx).max_queue_delay;
        let wired_delay = sim.hop_stats(metro_idx).max_queue_delay;
        let zero = SimDuration::ZERO;
        BufferEstimate {
            ran_pkts: estimate_buffer_pkts(zero, ran_delay, paper_capacity(), PAPER_PROBE_BYTES),
            wired_pkts: estimate_buffer_pkts(
                zero,
                wired_delay,
                paper_capacity(),
                PAPER_PROBE_BYTES,
            ),
            whole_path_pkts: estimate_buffer_pkts(
                zero,
                ran_delay + wired_delay,
                paper_capacity(),
                PAPER_PROBE_BYTES,
            ),
        }
    };
    Table3 {
        est_4g: estimate(&PaperPathParams::lte_day()),
        est_5g: estimate(&PaperPathParams::nr_day()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_quick_reproduces_the_anomaly() {
        let f = fig7(Fidelity::Quick, 42);
        // UDP baselines in the right bands.
        let udp = |label: &str| {
            f.udp_baselines
                .iter()
                .find(|(l, _)| l == label)
                .map(|&(_, m)| m)
                .unwrap()
        };
        assert!(
            (700.0..950.0).contains(&udp("5G DL day")),
            "{}",
            udp("5G DL day")
        );
        assert!(
            (100.0..160.0).contains(&udp("4G DL day")),
            "{}",
            udp("4G DL day")
        );
        // The anomaly: loss-based low on 5G, BBR high, 4G healthy.
        assert!(f.util("5G", "Cubic") < 0.55, "{}", f.util("5G", "Cubic"));
        assert!(f.util("5G", "BBR") > 0.6, "{}", f.util("5G", "BBR"));
        assert!(f.util("5G", "Vegas") < 0.2, "{}", f.util("5G", "Vegas"));
        assert!(f.util("4G", "Cubic") > 0.4, "{}", f.util("4G", "Cubic"));
        assert!(!f.to_text().is_empty());
    }

    #[test]
    fn fig8_bbr_sustains_cubic_does_not() {
        let f = fig8(Fidelity::Quick, 7);
        assert!(!f.cubic.is_empty() && !f.bbr.is_empty());
        // BBR's late-run cwnd stays near its peak; Cubic's collapses.
        let late_mean = |v: &[(f64, f64)]| {
            let tail: Vec<f64> = v
                .iter()
                .filter(|&&(t, _)| t > 3.0)
                .map(|&(_, w)| w)
                .collect();
            tail.iter().sum::<f64>() / tail.len().max(1) as f64
        };
        let peak = |v: &[(f64, f64)]| v.iter().map(|&(_, w)| w).fold(0.0, f64::max);
        let cubic_ratio = late_mean(&f.cubic) / peak(&f.cubic);
        let bbr_ratio = late_mean(&f.bbr) / peak(&f.bbr);
        assert!(
            bbr_ratio > cubic_ratio,
            "bbr {bbr_ratio} vs cubic {cubic_ratio}"
        );
    }

    #[test]
    fn fig9_loss_grows_with_load_and_tech() {
        let f = fig9(Fidelity::Quick, 3);
        // 5G loses much more than 4G at matched fractions.
        for &(frac, l4, l5) in &f.rows {
            if frac >= 0.5 {
                assert!(l5 > l4, "at {frac}: 5G {l5} vs 4G {l4}");
            }
        }
        // Loss grows with load for 5G.
        let first = f.rows.first().unwrap().2;
        let last = f.rows.last().unwrap().2;
        assert!(last > first, "5G loss flat: {first} vs {last}");
        assert!(last > 0.01, "full-load 5G loss {last}");
    }

    #[test]
    fn fig10_retx_within_few_attempts() {
        let f = fig10(5, 20_000);
        assert!(Fig10::max_attempts(&f.attempts_4g) <= 5);
        assert!(Fig10::max_attempts(&f.attempts_5g) <= 3);
        assert!(Fig10::max_attempts(&f.attempts_5g) <= Fig10::max_attempts(&f.attempts_4g));
        assert!(f.attempts_5g[0] > 0.9, "5G first-try {}", f.attempts_5g[0]);
    }

    #[test]
    fn fig11_losses_are_bursty() {
        let f = fig11(Fidelity::Quick, 11);
        assert!(f.arrivals > 0);
        assert!(!f.bursts.is_empty(), "expected loss episodes");
        let largest = f.bursts.iter().map(|&(_, n)| n).max().unwrap();
        assert!(largest >= 5, "largest burst only {largest} packets");
    }

    /// The explicit-pair builder `Fig11` replaced: one `(index, seq /
    /// MSS)` pair per arrival, and a burst wherever the log skips ahead.
    #[derive(Serialize)]
    struct Fig11Pairs {
        points: Vec<(u64, u64)>,
        bursts: Vec<(u64, u64)>,
    }

    fn fig11_pairs(log: &[u64]) -> Fig11Pairs {
        let mss = MSS_BYTES as u64;
        let mut points = Vec::with_capacity(log.len());
        let mut bursts = Vec::new();
        let mut expected = 0u64;
        for (i, &seq) in log.iter().enumerate() {
            points.push((i as u64, seq / mss));
            if seq > expected {
                bursts.push((i as u64, (seq - expected) / mss));
            }
            expected = seq + mss;
        }
        Fig11Pairs { points, bursts }
    }

    /// `Fig11` writes the same pretty and compact JSON as the explicit
    /// pair list, and every arrival satisfies the full-transfer identity
    /// `seq / MSS == i + Σ missing` over the bursts up to it.
    #[test]
    fn fig11_points_from_bursts_match_explicit_pairs() {
        let mss = MSS_BYTES as u64;
        for seed in [2020, 7, 99] {
            let (sim, flow) = fig11_transfer(Fidelity::Quick, seed);
            let log = &sim.flow_stats(flow).seq_log;
            let f = Fig11::from_log(log);
            let oracle = fig11_pairs(log);
            assert!(!f.bursts.is_empty(), "seed {seed}: no loss bursts");
            assert_eq!(f.arrivals, log.len() as u64);
            assert_eq!(
                serde_json::to_string_pretty(&f).unwrap(),
                serde_json::to_string_pretty(&oracle).unwrap(),
                "seed {seed}: pretty JSON differs"
            );
            assert_eq!(
                serde_json::to_string(&f).unwrap(),
                serde_json::to_string(&oracle).unwrap(),
                "seed {seed}: compact JSON differs"
            );
            let mut bursts = f.bursts.iter().peekable();
            let mut missing = 0;
            for (i, &seq) in log.iter().enumerate() {
                let i = i as u64;
                while let Some(&(_, n)) = bursts.next_if(|&&(start, _)| start <= i) {
                    missing += n;
                }
                assert_eq!(seq % mss, 0, "seed {seed}: arrival {i} off the MSS grid");
                assert_eq!(seq / mss, i + missing, "seed {seed}: arrival {i}");
            }
        }
    }

    #[test]
    fn table3_ratio_matches_configuration() {
        let t = table3(Fidelity::Quick, 9);
        // The 5G path holds ~2–4× the 4G path's buffer (paper 2.66×).
        let ratio = t.path_ratio();
        assert!((1.8..5.0).contains(&ratio), "ratio {ratio}");
        assert!(t.est_5g.wired_pkts > t.est_4g.wired_pkts);
        assert!(!t.to_text().is_empty());
    }
}
