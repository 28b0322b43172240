//! Property-based tests for the packet-level network simulator.

use fiveg_net::{
    AckInfo, Ctx, Endpoint, HopConfig, NetSim, PathConfig, RateModel, TimerKind, MSS_BYTES,
};
use fiveg_simcore::{BitRate, SimDuration, SimTime};
use proptest::prelude::*;

/// Sends `n` back-to-back packets on start.
struct Blaster {
    n: u64,
}

impl Endpoint for Blaster {
    fn on_start(&mut self, ctx: &mut Ctx) {
        for i in 0..self.n {
            ctx.send_packet(i * MSS_BYTES as u64, MSS_BYTES, false);
        }
    }
    fn on_ack(&mut self, _: AckInfo, _: &mut Ctx) {}
    fn on_timer(&mut self, _: TimerKind, _: u64, _: &mut Ctx) {}
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Packet conservation: received + dropped = sent, and the receiver
    /// never invents data.
    #[test]
    fn conservation(
        n in 1u64..400,
        rate in 1.0f64..200.0,
        cap in 1usize..200,
        drop_prob in 0.0f64..0.5,
    ) {
        let mut hop = HopConfig::wired("h", rate, SimDuration::from_millis(1), cap);
        hop.drop_prob = drop_prob;
        let path = PathConfig { hops: vec![hop], reverse_delay: SimDuration::from_millis(1) };
        let mut sim = NetSim::new(path, 42);
        let flow = sim.add_flow(Box::new(Blaster { n }), false, false);
        sim.run_until(SimTime::from_secs(600));
        let st = sim.flow_stats(flow);
        let hs = sim.hop_stats(0);
        prop_assert_eq!(st.packets_received + hs.dropped(), n);
        prop_assert_eq!(hs.forwarded, st.packets_received);
        prop_assert!(st.bytes_in_order <= n * MSS_BYTES as u64);
    }

    /// The drop-tail queue never exceeds its capacity.
    #[test]
    fn queue_bounded(n in 1u64..500, cap in 1usize..100) {
        let path = PathConfig {
            hops: vec![HopConfig::wired("h", 5.0, SimDuration::from_millis(1), cap)],
            reverse_delay: SimDuration::from_millis(1),
        };
        let mut sim = NetSim::new(path, 7);
        sim.add_flow(Box::new(Blaster { n }), false, false);
        sim.run_until(SimTime::from_secs(600));
        prop_assert!(sim.hop_stats(0).max_queue_pkts <= cap);
    }

    /// Store-and-forward latency over a clean multi-hop path is at least
    /// the sum of propagation delays plus one serialisation.
    #[test]
    fn latency_lower_bound(hops in 1usize..5, prop_ms in 1u64..20) {
        let path = PathConfig {
            hops: (0..hops)
                .map(|i| HopConfig::wired(&format!("h{i}"), 100.0, SimDuration::from_millis(prop_ms), 100))
                .collect(),
            reverse_delay: SimDuration::from_millis(1),
        };
        let mut sim = NetSim::new(path, 9);
        let flow = sim.add_flow(Box::new(Blaster { n: 1 }), false, false);
        let t = sim
            .run_until_delivered(flow, MSS_BYTES as u64, SimTime::from_secs(10))
            .expect("clean path delivers");
        let floor = hops as f64 * (prop_ms as f64 / 1e3) + MSS_BYTES as f64 * 8.0 / 100e6;
        prop_assert!(t.as_secs_f64() >= floor - 1e-9, "{} < {}", t.as_secs_f64(), floor);
    }

    /// Piecewise rate lookup matches its defining segments.
    #[test]
    fn rate_model_consistent(points in prop::collection::vec((0u64..10_000, 0.0f64..1000.0), 1..20), q in 0u64..12_000) {
        let mut pts: Vec<(SimTime, BitRate)> = points
            .into_iter()
            .map(|(t, r)| (SimTime::from_millis(t), BitRate::from_mbps(r)))
            .collect();
        pts.sort_by_key(|&(t, _)| t);
        let model = RateModel::piecewise(pts.clone());
        let t = SimTime::from_millis(q);
        let expect = pts
            .iter()
            .rev()
            .find(|&&(pt, _)| pt <= t)
            .map_or(pts[0].1, |&(_, r)| r);
        prop_assert_eq!(model.rate_at(t).bps(), expect.bps());
        if let Some(nc) = model.next_change_after(t) {
            prop_assert!(nc > t);
        }
    }
}
