//! The Sec. 4 headline: loss/delay-based TCP collapses on 5G while BBR
//! thrives; the loss is bursty and in the wireline metro router.
//!
//! Run with: `cargo run --release --example tcp_anomaly [--paper]`
//! (`--paper` runs the full 60 s × 5 repetition methodology)

use fiveg_core::Fidelity;

fn main() {
    let fidelity = if std::env::args().any(|a| a == "--paper") {
        Fidelity::Paper
    } else {
        Fidelity::Quick
    };
    let f7 = fiveg_core::fig7(fidelity, 42);
    print!("{}", f7.to_text());
    let f8 = fiveg_core::fig8(fidelity, 42);
    print!("{}", f8.to_text());
    let f9 = fiveg_core::fig9(fidelity, 42);
    print!("{}", f9.to_text());
    let f11 = fiveg_core::fig11(fidelity, 42);
    print!("{}", f11.to_text());
    let t3 = fiveg_core::table3(fidelity, 42);
    print!("{}", t3.to_text());
}
