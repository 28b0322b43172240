//! Scratch calibration check (not shipped): prints Tab.2-style RSRP buckets.
use fiveg_geo::mobility::RoadSurvey;
use fiveg_geo::{Campus, CampusConfig};
use fiveg_phy::{RadioEnv, Tech};
use fiveg_simcore::SimRng;

fn main() {
    let campus = Campus::generate(&CampusConfig::default(), &mut SimRng::new(2020));
    let env = RadioEnv::from_campus(&campus, 77, 0.5, 0.05);
    let trace = RoadSurvey::paper_default().generate(&campus.map);
    for tech in [Tech::Lte, Tech::Nr] {
        let mut buckets = [0u32; 6]; // [-140,-105),[-105,-90),[-90,-80),[-80,-70),[-70,-60),[-60,-40)
        let mut sum = 0.0;
        let mut sq = 0.0;
        let mut n = 0u32;
        for p in trace.iter() {
            let m = env.serving(p.pos, tech).unwrap();
            let r = m.rsrp.value();
            sum += r;
            sq += r * r;
            n += 1;
            let b = if r < -105.0 {
                0
            } else if r < -90.0 {
                1
            } else if r < -80.0 {
                2
            } else if r < -70.0 {
                3
            } else if r < -60.0 {
                4
            } else {
                5
            };
            buckets[b] += 1;
        }
        let mean = sum / n as f64;
        let std = (sq / n as f64 - mean * mean).sqrt();
        println!("{tech:?}: n={n} mean={mean:.2} std={std:.2}");
        let labels = [
            "<-105",
            "-105..-90",
            "-90..-80",
            "-80..-70",
            "-70..-60",
            "-60..-40",
        ];
        for (l, c) in labels.iter().zip(buckets) {
            println!("  {:>10}: {:5.2}%", l, 100.0 * c as f64 / n as f64);
        }
    }
    // cell radius check along boresight LoS-ish
    let idx = env.cell_index(Tech::Nr, 60).unwrap();
    let pos = env.cells[idx].pos;
    println!("gNB site at {pos:?}");
}
