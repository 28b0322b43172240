//! `bulk-flows`: packet-level flows driven through `NetSim` directly.
//!
//! The flows take the shapes of the packet-level registry jobs that
//! `campaign-quick` leaves out: TCP on both daytime paths with cross
//! traffic (Fig. 7b, Fig. 8), UDP at fractions of the baseline (Fig. 9)
//! and on the night and uplink paths (Fig. 7a), and BBR alone on a path
//! whose radio hop goes through a hand-off outage (Fig. 12).

use crate::timed::{CallStats, Timed};
use crate::{span, timed, Probe, Round, Workload};
use fiveg_core::net::path::{Direction, PaperPathParams};
use fiveg_core::net::{Endpoint, NetSim, PathConfig, RateModel};
use fiveg_core::ran::HandoffProcedure;
use fiveg_core::simcore::hash::{fnv1a64_extend, hex64, stable_hash_fields, FNV_OFFSET};
use fiveg_core::simcore::{BitRate, SimDuration, SimRng, SimTime};
use fiveg_core::transport::udp::{udp_probe, UdpCbrSender};
use fiveg_core::transport::{CcAlgorithm, TcpSender};
use fiveg_obs::{MetricsHandle, Snapshot};
use std::cell::RefCell;
use std::rc::Rc;

/// Sender labels with the metric reporting each one's share of
/// `transport.cc` time.
pub const CC_SHARES: [(&str, &str); 6] = [
    ("reno", "transport.cc.share.reno"),
    ("cubic", "transport.cc.share.cubic"),
    ("vegas", "transport.cc.share.vegas"),
    ("veno", "transport.cc.share.veno"),
    ("bbr", "transport.cc.share.bbr"),
    ("udp", "transport.cc.share.udp"),
];

/// Flow groups with the metric reporting each one's host time per
/// executed event inside `NetSim::run_until`.
pub const GROUPS: [(&str, &str); 3] = [
    ("tcp", "net.ns_per_event.tcp"),
    ("udp", "net.ns_per_event.udp"),
    ("handoff", "net.ns_per_event.handoff"),
];

fn label(alg: CcAlgorithm) -> &'static str {
    match alg {
        CcAlgorithm::Reno => "reno",
        CcAlgorithm::Cubic => "cubic",
        CcAlgorithm::Vegas => "vegas",
        CcAlgorithm::Veno => "veno",
        CcAlgorithm::Bbr => "bbr",
    }
}

#[derive(Debug, Clone, Copy)]
enum Sender {
    Tcp(CcAlgorithm),
    /// UDP CBR at this rate, Mbps.
    Udp(f64),
}

/// A hand-off on the radio hop: no service from `at` for `latency`,
/// then the target cell's rate.
#[derive(Debug, Clone, Copy)]
struct Handoff {
    at: SimTime,
    latency: SimDuration,
    post_mbps: f64,
}

#[derive(Debug, Clone)]
struct FlowSpec {
    name: String,
    group: &'static str,
    sender: Sender,
    params: PaperPathParams,
    direction: Direction,
    /// Whether the calibrated metro cross traffic shares the path.
    cross: bool,
    handoff: Option<Handoff>,
    until: SimTime,
    seed: u64,
}

impl FlowSpec {
    fn path(&self) -> PathConfig {
        let mut path = PathConfig::paper(&self.params, self.direction);
        if let Some(ho) = self.handoff {
            let radio = path.radio_hop_index();
            let pre = path.hops[radio].rate.rate_at(SimTime::ZERO);
            path.hops[radio].rate = RateModel::piecewise(vec![
                (SimTime::ZERO, pre),
                (ho.at, BitRate::ZERO),
                (ho.at + ho.latency, BitRate::from_mbps(ho.post_mbps)),
            ]);
        }
        path
    }
}

/// Flow lengths of one round.
#[derive(Debug, Clone)]
pub struct FlowParams {
    /// Simulated time per TCP and UDP flow, milliseconds.
    pub flow_ms: u64,
    /// Simulated time per hand-off flow, milliseconds; the hand-off
    /// starts at 5/8 of it, as in Fig. 12 (5 s into 8 s).
    pub handoff_ms: u64,
}

/// The bulk-flows workload's input: one flow per spec, each on its own
/// paper path.
pub struct Flows {
    specs: Vec<FlowSpec>,
}

impl Flows {
    /// Builds the round's flows from `seed`; each flow's seed derives
    /// from `seed` and the flow's name.
    ///
    /// - `tcp`: five TCP algorithms on the 5G and 4G daytime downlink.
    /// - `udp`: CBR at half and at the full 5G baseline, and probes just
    ///   above the radio rate on the 5G night downlink and both uplinks.
    ///   As in the paper's method (Sec. 4.1), the 5G baseline is measured
    ///   first, by such a probe on the daytime downlink.
    /// - `handoff`: BBR across a 4G-4G, 5G-5G and 5G-4G hand-off, with no
    ///   cross traffic; the outage lasts a latency drawn from the kind's
    ///   signalling procedure.
    ///
    /// The `tcp` and `udp` flows share the path with cross traffic.
    pub fn new(seed: u64, p: &FlowParams) -> Flows {
        let seed_of = |name: &str| stable_hash_fields(&[&seed.to_le_bytes(), name.as_bytes()]);
        let nr = PaperPathParams::nr_day();
        let until = SimTime::from_millis(p.flow_ms);
        let path = PathConfig::paper(&nr, Direction::Downlink);
        let cross = path.paper_cross_traffic();
        let baseline = udp_probe(
            path,
            Some(cross),
            BitRate::from_mbps(nr.radio_rate_mbps * 1.1),
            SimDuration::from_millis(p.flow_ms),
            seed_of("5g-udp-baseline"),
        )
        .received
        .mbps();

        let mut specs = Vec::new();
        let mut add = |name: String, group, sender, params: &PaperPathParams, direction| {
            let seed = seed_of(&name);
            specs.push(FlowSpec {
                name,
                group,
                sender,
                params: params.clone(),
                direction,
                cross: true,
                handoff: None,
                until,
                seed,
            });
        };
        let dl = Direction::Downlink;
        for (tech, params) in [
            ("5g", PaperPathParams::nr_day()),
            ("4g", PaperPathParams::lte_day()),
        ] {
            for alg in CcAlgorithm::ALL {
                let kind = format!("{tech}-{}", label(alg));
                add(kind, "tcp", Sender::Tcp(alg), &params, dl);
            }
        }
        for frac in [0.5, 1.0] {
            let kind = format!("5g-udp-{frac}x");
            add(kind, "udp", Sender::Udp(frac * baseline), &nr, dl);
        }
        for (kind, params, direction) in [
            ("5g-night-udp", PaperPathParams::nr_night(), dl),
            ("5g-ul-udp", PaperPathParams::nr_ul(), Direction::Uplink),
            (
                "4g-ul-udp",
                PaperPathParams::lte_ul_day(),
                Direction::Uplink,
            ),
        ] {
            let rate = Sender::Udp(params.radio_rate_mbps * 1.1);
            add(kind.into(), "udp", rate, &params, direction);
        }

        // The paths, procedures and post-hand-off rates Fig. 12 uses.
        for (kind, params, proc, post_mbps) in [
            (
                "4g-4g",
                PaperPathParams::lte_day(),
                HandoffProcedure::lte_to_lte(),
                130.0,
            ),
            (
                "5g-5g",
                PaperPathParams::nr_day(),
                HandoffProcedure::nr_to_nr(),
                880.0,
            ),
            (
                "5g-4g",
                PaperPathParams::nr_day(),
                HandoffProcedure::nr_to_lte(),
                130.0,
            ),
        ] {
            let name = format!("handoff-{kind}");
            let seed = seed_of(&name);
            let latency = proc.sample_latency(&mut SimRng::new(seed));
            specs.push(FlowSpec {
                name,
                group: "handoff",
                sender: Sender::Tcp(CcAlgorithm::Bbr),
                params,
                direction: dl,
                cross: false,
                handoff: Some(Handoff {
                    at: SimTime::from_millis(p.handoff_ms * 5 / 8),
                    latency,
                    post_mbps,
                }),
                until: SimTime::from_millis(p.handoff_ms),
                seed,
            });
        }
        Flows { specs }
    }

    /// Runs one flow; returns its output digest.
    fn run_flow(&self, spec: &FlowSpec, probe: Option<&mut Probe>) -> String {
        let path = spec.path();
        let cross = path.paper_cross_traffic();
        let mut sim = NetSim::new(path, spec.seed);
        if spec.cross {
            sim.add_cross_traffic(cross);
        }
        let stats = probe
            .is_some()
            .then(|| Rc::new(RefCell::new(CallStats::default())));
        let (sender, report, label): (_, Box<dyn Fn() -> String>, _) = match spec.sender {
            Sender::Tcp(alg) => {
                let (s, rep) = TcpSender::new(alg, None);
                let report = move || {
                    let r = rep.lock();
                    format!(
                        "retx={} loss_events={} rto={} acked={}",
                        r.retransmissions, r.loss_events, r.rto_count, r.bytes_acked
                    )
                };
                (wrap(s, stats.as_ref()), Box::new(report), label(alg))
            }
            Sender::Udp(mbps) => {
                let (s, rep) = UdpCbrSender::new(BitRate::from_mbps(mbps), Some(spec.until));
                let report = move || format!("sent={}", rep.lock().packets_sent);
                (wrap(s, stats.as_ref()), Box::new(report), "udp")
            }
        };
        let tcp = matches!(spec.sender, Sender::Tcp(_));
        let flow = sim.add_flow(sender, tcp, false);
        let ((), run) = timed(|| sim.run_until(spec.until));

        let st = sim.flow_stats(flow);
        let windows = st.window_bytes.iter().fold(FNV_OFFSET, |h, b| {
            fnv1a64_extend(h, &b.to_bits().to_le_bytes())
        });
        let digest = format!(
            "in_order={} received={} packets={} windows={} {}",
            st.bytes_in_order,
            st.bytes_received,
            st.packets_received,
            hex64(windows),
            report()
        );
        if let (Some(p), Some(stats)) = (probe, stats) {
            let s = stats.borrow();
            p.add(span::NET_RUN, run);
            p.add(&format!("{}.{}", span::NET_RUN, spec.group), run);
            p.add(span::CC, s.total);
            p.add(&format!("{}.{label}", span::CC), s.total);
            p.calls.merge(&s.hist);
        }
        digest
    }
}

fn wrap<E: Endpoint + 'static>(
    sender: E,
    stats: Option<&Rc<RefCell<CallStats>>>,
) -> Box<dyn Endpoint> {
    match stats {
        Some(s) => Box::new(Timed::new(sender, s.clone())),
        None => Box::new(sender),
    }
}

impl Workload for Flows {
    /// Every flow once, each in its own metrics scope. Work unit: a
    /// packet forwarded by a hop (flow and cross traffic). Host cost
    /// tracks it closely, while a seed's loss pattern moves the packets
    /// one simulated second carries.
    fn round(&self, probe: Option<&mut Probe>) -> Round {
        let mut round = Round::default();
        let mut merged = Snapshot::default();
        let mut probe = probe;
        for spec in &self.specs {
            let metrics = MetricsHandle::new();
            // The simulator flushes its counters when it drops, at the
            // end of `run_flow`, inside the scope.
            let digest = fiveg_obs::scoped(&metrics, || self.run_flow(spec, probe.as_deref_mut()));
            let snap = metrics.snapshot();
            if let Some(p) = probe.as_deref_mut() {
                let events = snap.counters.get("sim.events.executed").copied();
                p.count(&format!("sim.events.{}", spec.group), events.unwrap_or(0));
            }
            merged.merge(&snap);
            round.ops += 1;
            round.digests.insert(spec.name.clone(), digest);
        }
        round.counters = merged.deterministic();
        round.work = round
            .counters
            .get("net.packets.forwarded")
            .copied()
            .unwrap_or(0) as f64;
        round
    }
}
