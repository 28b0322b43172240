//! Property-based tests for the congestion-control algorithms and the
//! sender machinery.

use fiveg_net::{HopConfig, NetSim, PathConfig};
use fiveg_simcore::{BitRate, SimDuration, SimTime};
use fiveg_transport::{min_cwnd, AckSample, CcAlgorithm, TcpSender};
use proptest::prelude::*;

/// A random sequence of protocol events.
#[derive(Debug, Clone)]
enum Ev {
    Ack {
        bytes: u64,
        rtt_ms: u64,
        rate_mbps: f64,
    },
    Loss,
    Rto,
}

fn ev_strategy() -> impl Strategy<Value = Ev> {
    prop_oneof![
        6 => (1u64..100_000, 5u64..200, 0.5f64..1000.0)
            .prop_map(|(bytes, rtt_ms, rate_mbps)| Ev::Ack { bytes, rtt_ms, rate_mbps }),
        2 => Just(Ev::Loss),
        1 => Just(Ev::Rto),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under any event sequence, every algorithm keeps a positive,
    /// finite window no smaller than the protocol minimum (Reno/Cubic
    /// dip to 1 MSS only right after an RTO).
    #[test]
    fn cwnd_always_sane(alg_idx in 0usize..5, evs in prop::collection::vec(ev_strategy(), 1..200)) {
        let alg = CcAlgorithm::ALL[alg_idx];
        let mut cc = alg.build();
        let mut now = SimTime::ZERO;
        for ev in evs {
            now += SimDuration::from_millis(7);
            match ev {
                Ev::Ack { bytes, rtt_ms, rate_mbps } => cc.on_ack(AckSample {
                    now,
                    acked_bytes: bytes,
                    rtt: Some(SimDuration::from_millis(rtt_ms)),
                    in_flight: bytes,
                    delivery_rate: Some(BitRate::from_mbps(rate_mbps)),
                    app_limited: false,
                }),
                Ev::Loss => cc.on_loss_event(now),
                Ev::Rto => cc.on_rto(now),
            }
            let w = cc.cwnd();
            prop_assert!(w.is_finite(), "{}: cwnd {w}", cc.name());
            prop_assert!(w >= 1_000.0, "{}: cwnd {w} too small", cc.name());
            prop_assert!(w < 1e12, "{}: cwnd {w} runaway", cc.name());
            if let Some(r) = cc.pacing_rate() {
                prop_assert!(r.bps() > 0.0 && r.bps().is_finite());
            }
        }
        // After recovery-free growth the window must at least reach the
        // minimum floor again.
        prop_assert!(cc.cwnd() >= min_cwnd() / 2.0);
    }

    /// A fixed-size transfer over a random (possibly lossy, possibly
    /// tiny-buffered) path either completes exactly or times out — and
    /// when it completes, the receiver holds exactly the advertised
    /// bytes in order.
    #[test]
    fn transfers_complete_exactly(
        alg_idx in 0usize..5,
        kb in 1u64..300,
        rate in 2.0f64..120.0,
        cap in 4usize..200,
        drop_prob in 0.0f64..0.08,
        seed in any::<u64>(),
    ) {
        let alg = CcAlgorithm::ALL[alg_idx];
        let bytes = kb * 1000;
        let mut hop = HopConfig::wired("h", rate, SimDuration::from_millis(5), cap);
        hop.drop_prob = drop_prob;
        let path = PathConfig { hops: vec![hop], reverse_delay: SimDuration::from_millis(5) };
        let mut sim = NetSim::new(path, seed);
        let (sender, report) = TcpSender::new(alg, Some(bytes));
        let flow = sim.add_flow(Box::new(sender), true, false);
        let done = sim.run_until_delivered(flow, bytes, SimTime::from_secs(120));
        if done.is_some() {
            prop_assert_eq!(sim.flow_stats(flow).bytes_in_order, bytes);
            sim.run_until(sim.now() + SimDuration::from_secs(2));
            prop_assert_eq!(report.lock().bytes_acked, bytes);
        }
        // Invariant either way: the receiver never holds more in-order
        // data than the application offered.
        prop_assert!(sim.flow_stats(flow).bytes_in_order <= bytes);
    }
}
