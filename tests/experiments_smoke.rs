//! Smoke tests: every experiment function runs at Quick fidelity and
//! renders non-empty text + valid JSON.

use fiveg_core::experiments::{application, coverage, energy, handoff, latency, throughput};
use fiveg_core::{Fidelity, Scenario};

#[test]
fn coverage_experiments_render() {
    let sc = Scenario::paper(2020);
    let t1 = coverage::table1(&sc, 2);
    assert!(serde_json::to_string(&t1).unwrap().len() > 10);
    assert!(t1.to_text().contains("Table 1"));
    let t2 = coverage::table2(&sc, 800, 2);
    assert!(t2.to_text().contains("Table 2"));
    let f3 = coverage::fig3(&sc);
    assert!(f3.to_text().contains("Fig. 3"));
}

#[test]
fn handoff_experiments_render() {
    let sc = Scenario::paper(2020);
    let f4 = handoff::fig4(&sc);
    assert!(f4.to_text().contains("Fig. 4"));
    assert!(serde_json::to_string(&f4).unwrap().len() > 10);
}

#[test]
fn latency_experiments_render() {
    let f13 = latency::fig13(Fidelity::Quick, 1);
    assert!(f13.to_text().contains("Fig. 13"));
    let f14 = latency::fig14(1, 10);
    assert!(f14.to_text().contains("Fig. 14"));
    let f15 = latency::fig15(Fidelity::Quick, 1);
    assert!(f15.to_text().contains("Fig. 15"));
    assert!(serde_json::to_string(&f15).unwrap().contains("rows"));
}

#[test]
fn throughput_fig10_and_fig11_render() {
    let f10 = throughput::fig10(1, 5_000);
    assert!(f10.to_text().contains("Fig. 10"));
    let f11 = throughput::fig11(Fidelity::Quick, 1);
    assert!(f11.to_text().contains("Fig. 11"));
}

#[test]
fn energy_experiments_render() {
    let f21 = energy::fig21(30);
    assert!(f21.to_text().contains("Fig. 21"));
    let f22 = energy::fig22();
    assert!(f22.to_text().contains("Fig. 22"));
    let f23 = energy::fig23();
    assert!(f23.to_text().contains("Fig. 23"));
    let t4 = energy::table4();
    assert!(t4.to_text().contains("Table 4"));
    assert!(serde_json::to_string(&t4).unwrap().contains("cells"));
}

#[test]
fn application_fig17_renders() {
    let f17 = application::fig17(3);
    assert!(f17.to_text().contains("Fig. 17"));
}
