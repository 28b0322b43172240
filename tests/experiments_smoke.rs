//! Smoke tests: every experiment function runs at Quick fidelity and
//! renders non-empty text + valid JSON.

use fiveg_core::{Fidelity, Scenario};

#[test]
fn coverage_experiments_render() {
    let sc = Scenario::paper(2020);
    let t1 = fiveg_core::table1(&sc, 2);
    assert!(serde_json::to_string(&t1).unwrap().len() > 10);
    assert!(t1.to_text().contains("Table 1"));
    let t2 = fiveg_core::table2(&sc, 800, 2);
    assert!(t2.to_text().contains("Table 2"));
    let f3 = fiveg_core::fig3(&sc);
    assert!(f3.to_text().contains("Fig. 3"));
}

#[test]
fn handoff_experiments_render() {
    let sc = Scenario::paper(2020);
    let f4 = fiveg_core::fig4(&sc);
    assert!(f4.to_text().contains("Fig. 4"));
    assert!(serde_json::to_string(&f4).unwrap().len() > 10);
}

#[test]
fn latency_experiments_render() {
    let f13 = fiveg_core::fig13(Fidelity::Quick, 1);
    assert!(f13.to_text().contains("Fig. 13"));
    let f14 = fiveg_core::fig14(1, 10);
    assert!(f14.to_text().contains("Fig. 14"));
    let f15 = fiveg_core::fig15(Fidelity::Quick, 1);
    assert!(f15.to_text().contains("Fig. 15"));
    assert!(serde_json::to_string(&f15).unwrap().contains("rows"));
}

#[test]
fn throughput_fig10_and_fig11_render() {
    let f10 = fiveg_core::fig10(1, 5_000);
    assert!(f10.to_text().contains("Fig. 10"));
    let f11 = fiveg_core::fig11(Fidelity::Quick, 1);
    assert!(f11.to_text().contains("Fig. 11"));
}

#[test]
fn energy_experiments_render() {
    let f21 = fiveg_core::fig21(30);
    assert!(f21.to_text().contains("Fig. 21"));
    let f22 = fiveg_core::fig22();
    assert!(f22.to_text().contains("Fig. 22"));
    let f23 = fiveg_core::fig23();
    assert!(f23.to_text().contains("Fig. 23"));
    let t4 = fiveg_core::table4();
    assert!(t4.to_text().contains("Table 4"));
    assert!(serde_json::to_string(&t4).unwrap().contains("cells"));
}

#[test]
fn application_fig17_renders() {
    let f17 = fiveg_core::fig17(3);
    assert!(f17.to_text().contains("Fig. 17"));
}
