//! Cross-crate integration tests: the full pipeline from campus
//! generation through the radio environment to transport flows.

use fiveg_core::net::path::{Direction, PaperPathParams, PathConfig};
use fiveg_core::net::NetSim;
use fiveg_core::phy::Tech;
use fiveg_core::simcore::SimTime;
use fiveg_core::transport::{CcAlgorithm, TcpSender};
use fiveg_core::Scenario;
use fiveg_geo::Point;

#[test]
fn kpi_chain_from_campus_to_bitrate() {
    // Campus → radio env → KPI → PRB share → bitrate: the full chain the
    // paper's passive measurements exercise.
    let sc = Scenario::paper(2020);
    // Sec. 4.1: the test phone is granted 260-264 of the 273 NR PRBs,
    // day and night.
    let frac = 262.0 / 273.0;
    let mut served = 0;
    let mut total = 0;
    for p in sc.campus.map.grid_samples(60.0, true) {
        total += 1;
        if let Some(kpi) = sc.env.kpi_sample(p, Tech::Nr, frac) {
            if kpi.in_service {
                served += 1;
                assert!(kpi.bitrate.mbps() > 0.0);
                assert!(kpi.bitrate.mbps() <= 1201.0);
                assert!(kpi.mcs <= 27);
            }
        }
    }
    assert!(total > 50);
    assert!(
        served * 10 >= total * 7,
        "only {served}/{total} grid points in 5G service"
    );
}

#[test]
fn radio_derived_path_matches_kpi_bitrate() {
    // A flow over a path whose radio rate comes from a measured KPI
    // must deliver close to that KPI's bitrate (protocol efficiency).
    let sc = Scenario::paper(2020);
    let kpi = sc
        .env
        .kpi_sample(Point::new(250.0, 460.0), Tech::Nr, 1.0)
        .expect("covered");
    let radio_mbps = kpi.bitrate.mbps().clamp(50.0, 880.0);
    let params = PaperPathParams {
        radio_rate_mbps: radio_mbps,
        ..PaperPathParams::nr_day()
    };
    let path = PathConfig::paper(&params, Direction::Downlink);
    let mut sim = NetSim::new(path, 3);
    let (sender, _rep) = TcpSender::new(CcAlgorithm::Bbr, None);
    let flow = sim.add_flow(Box::new(sender), true, false);
    sim.run_until(SimTime::from_secs(6));
    let goodput = sim
        .flow_stats(flow)
        .mean_goodput_until(SimTime::from_secs(6))
        .mbps();
    assert!(
        goodput > 0.7 * radio_mbps,
        "goodput {goodput} vs radio {radio_mbps}"
    );
}

#[test]
fn day_night_prb_contention_changes_4g_not_5g() {
    // The paths the throughput experiments run carry the PRB contention:
    // 4G gets 40-85 of 100 PRBs by day and 95-100 at night, 5G nearly
    // all of its 273 around the clock (Sec. 4.1).
    let rate = |p: PaperPathParams| p.radio_rate_mbps;
    let (lte_day, lte_night) = (
        rate(PaperPathParams::lte_day()),
        rate(PaperPathParams::lte_night()),
    );
    let (nr_day, nr_night) = (
        rate(PaperPathParams::nr_day()),
        rate(PaperPathParams::nr_night()),
    );
    assert!(lte_night > 1.3 * lte_day, "{lte_day} vs {lte_night}");
    assert!(
        (nr_night - nr_day).abs() < 0.05 * nr_day,
        "{nr_day} vs {nr_night}"
    );
}

#[test]
fn deterministic_end_to_end() {
    // The same seed must reproduce the same flow outcome bit-for-bit.
    let run = || {
        let path = PathConfig::paper(&PaperPathParams::nr_day(), Direction::Downlink);
        let cross = path.paper_cross_traffic();
        let mut sim = NetSim::new(path, 99);
        sim.add_cross_traffic(cross);
        let (sender, _rep) = TcpSender::new(CcAlgorithm::Cubic, None);
        let flow = sim.add_flow(Box::new(sender), true, false);
        sim.run_until(SimTime::from_secs(5));
        sim.flow_stats(flow).bytes_in_order
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_differ() {
    let run = |seed: u64| {
        let path = PathConfig::paper(&PaperPathParams::nr_day(), Direction::Downlink);
        let cross = path.paper_cross_traffic();
        let mut sim = NetSim::new(path, seed);
        sim.add_cross_traffic(cross);
        let (sender, _rep) = TcpSender::new(CcAlgorithm::Cubic, None);
        let flow = sim.add_flow(Box::new(sender), true, false);
        sim.run_until(SimTime::from_secs(5));
        sim.flow_stats(flow).bytes_in_order
    };
    assert_ne!(run(1), run(2));
}
