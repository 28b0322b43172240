//! The Sec. 5.2 panoramic video telephony study (the 360TEL system):
//! resolution sweep, dynamic-scene fluctuation, frame-delay breakdown.
//!
//! Run with: `cargo run --release --example video_call`

use fiveg_core::Fidelity;

fn main() {
    let v = fiveg_core::video_study(Fidelity::Quick, 7);
    print!("{}", v.to_text());
    // The paper's punchline: processing dominates frame delay.
    if let Some(r) = v.row("4K", "static", "5G") {
        let processing = 650.0;
        let network = r.6 - processing;
        println!(
            "4K on 5G: frame delay {:.0} ms = {processing:.0} ms processing + {network:.0} ms network ({:.0}x)",
            r.6,
            processing / network.max(1.0)
        );
    }
}
