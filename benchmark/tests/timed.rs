//! The `Timed` sender wrapper must not change what a flow does.

use fiveg_benchmark::timed::{CallStats, Timed};
use fiveg_core::net::path::{Direction, PaperPathParams};
use fiveg_core::net::{Endpoint, NetSim, PathConfig};
use fiveg_core::simcore::SimTime;
use fiveg_core::transport::{CcAlgorithm, TcpSender};
use fiveg_obs::MetricsHandle;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

#[derive(Debug, PartialEq)]
struct FlowOutcome {
    in_order: u64,
    received: u64,
    packets: u64,
    window_bits: Vec<u64>,
    sender: (u64, u64, u64, u64, usize),
    counters: BTreeMap<String, u64>,
}

fn run(alg: CcAlgorithm, stats: Option<&Rc<RefCell<CallStats>>>) -> FlowOutcome {
    let metrics = MetricsHandle::new();
    let out = fiveg_obs::scoped(&metrics, || {
        let path = PathConfig::paper(&PaperPathParams::nr_day(), Direction::Downlink);
        let cross = path.paper_cross_traffic();
        let mut sim = NetSim::new(path, 99);
        sim.add_cross_traffic(cross);
        let (sender, report) = TcpSender::new(alg, None);
        let sender: Box<dyn Endpoint> = match stats {
            Some(s) => Box::new(Timed::new(sender, s.clone())),
            None => Box::new(sender),
        };
        let flow = sim.add_flow(sender, true, false);
        sim.run_until(SimTime::from_millis(800));
        let st = sim.flow_stats(flow);
        let r = report.lock();
        (
            st.bytes_in_order,
            st.bytes_received,
            st.packets_received,
            st.window_bytes.iter().map(|b| b.to_bits()).collect(),
            (
                r.retransmissions,
                r.loss_events,
                r.rto_count,
                r.bytes_acked,
                r.cwnd_trace.len(),
            ),
        )
    });
    FlowOutcome {
        in_order: out.0,
        received: out.1,
        packets: out.2,
        window_bits: out.3,
        sender: out.4,
        counters: metrics.snapshot().deterministic(),
    }
}

#[test]
fn wrapped_flows_match_unwrapped_flows() {
    for alg in [CcAlgorithm::Cubic, CcAlgorithm::Bbr] {
        let stats = Rc::new(RefCell::new(CallStats::default()));
        let wrapped = run(alg, Some(&stats));
        let plain = run(alg, None);
        assert!(plain.in_order > 0, "{alg:?}: the flow delivered nothing");
        assert_eq!(wrapped, plain, "{alg:?}");
        let s = stats.borrow();
        assert!(
            s.hist.count() > 1_000,
            "{alg:?}: {} callbacks",
            s.hist.count()
        );
        assert!(s.total.as_nanos() > 0);
    }
}
