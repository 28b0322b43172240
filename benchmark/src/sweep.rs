//! `coverage-sweep`: an outdoor measurement grid over a procedural city.

use crate::{span, Probe, Round, Workload};
use fiveg_core::geo::{generate_city, CitySpec, Point};
use fiveg_core::phy::{MeasureScratch, RadioEnv, Tech};
use fiveg_core::simcore::hash::{fnv1a64_extend, hex64, FNV_OFFSET};
use fiveg_core::simcore::SimRng;
use fiveg_obs::MetricsHandle;
use std::time::Instant;

/// Coverage sweep size.
#[derive(Debug, Clone)]
pub struct SweepParams {
    /// City tiles per axis (dense-urban preset, 18 cells per tile).
    pub tiles: usize,
    /// Grid spacing, metres.
    pub grid_m: f64,
}

/// The sweep workload's input: the city's radio environment and the
/// outdoor grid points.
pub struct Sweep {
    env: RadioEnv,
    grid: Vec<Point>,
}

impl Sweep {
    /// Generates the city from `seed` and lays the grid over it.
    pub fn new(seed: u64, p: &SweepParams) -> Sweep {
        let mut spec = CitySpec::dense_urban();
        spec.tiles_x = p.tiles;
        spec.tiles_y = p.tiles;
        let campus = generate_city(&spec, &SimRng::new(seed));
        let grid = campus.map.grid_samples(p.grid_m, true);
        // The paper's daytime cell loads.
        let env = RadioEnv::from_campus(&campus, seed ^ 0x5eed, 0.5, 0.05);
        Sweep { env, grid }
    }
}

impl Workload for Sweep {
    /// LTE and NR measured at every grid point through one scratch.
    /// Work unit: one (point, technology) measurement.
    fn round(&self, probe: Option<&mut Probe>) -> Round {
        let metrics = MetricsHandle::new();
        let mut sum = FNV_OFFSET;
        let mut cells = 0u64;
        let mut probe = probe;
        fiveg_obs::scoped(&metrics, || {
            let mut scratch = MeasureScratch::new();
            let mut measure_s = std::time::Duration::ZERO;
            for &point in &self.grid {
                for tech in [Tech::Lte, Tech::Nr] {
                    let start = probe.is_some().then(Instant::now);
                    let ms = self.env.measure_all_into(point, tech, &mut scratch);
                    if let (Some(start), Some(p)) = (start, probe.as_deref_mut()) {
                        let d = start.elapsed();
                        measure_s += d;
                        p.calls.record(d);
                    }
                    for m in ms {
                        sum = fnv1a64_extend(sum, &m.pci.to_le_bytes());
                        sum = fnv1a64_extend(sum, &m.rsrp.value().to_bits().to_le_bytes());
                    }
                    cells += ms.len() as u64;
                }
            }
            if let Some(p) = probe {
                p.add(span::MEASURE, measure_s);
            }
            // `scratch` drops here, flushing its counters into `metrics`.
        });
        let mut round = Round {
            ops: 1,
            work: 2.0 * self.grid.len() as f64,
            counters: metrics.snapshot().deterministic(),
            ..Round::default()
        };
        round
            .digests
            .insert("sweep".into(), format!("cells={cells} rsrp={}", hex64(sum)));
        round
    }
}
