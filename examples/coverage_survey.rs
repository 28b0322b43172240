//! The Sec. 3 coverage study: blanket road survey, RSRP distribution,
//! the campus map and the indoor-outdoor gap.
//!
//! Run with: `cargo run --release --example coverage_survey`

use fiveg_core::Scenario;

fn main() {
    let sc = Scenario::paper(2020);
    // The sweeps are byte-identical for any thread count.
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let t1 = fiveg_core::table1(&sc, threads);
    print!("{}", t1.to_text());
    let t2 = fiveg_core::table2(&sc, 4630, threads);
    print!("{}", t2.to_text());
    let map = fiveg_core::fig2a(&sc, 20.0, threads);
    print!("{}", map.to_text());
    let cell = fiveg_core::fig2b(&sc, threads);
    print!("{}", cell.to_text());
    let gap = fiveg_core::fig3(&sc);
    print!("{}", gap.to_text());
}
