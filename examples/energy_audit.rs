//! The Sec. 6 energy study: component breakdown, energy-per-bit,
//! the pwrStrip trace with its NSA double-length tail, and the
//! power-management strategy comparison.
//!
//! Run with: `cargo run --release --example energy_audit`

fn main() {
    let f21 = fiveg_core::fig21(60);
    print!("{}", f21.to_text());
    let f22 = fiveg_core::fig22();
    print!("{}", f22.to_text());
    let f23 = fiveg_core::fig23();
    print!("{}", f23.to_text());
    let t4 = fiveg_core::table4();
    print!("{}", t4.to_text());
}
