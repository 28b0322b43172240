//! Hot-path microbenchmarks for the `micro` section of the bench
//! report (schema 3).
//!
//! The campaign jobs time whole experiments; these workloads isolate
//! the layers the experiments lean on hardest. Each workload is fixed
//! and seed-deterministic, runs single-threaded, and records its work
//! through `fiveg-obs` counters — so the CI gate can fail on counter
//! drift (the workload itself changed) while treating wall time as
//! advisory, exactly like the per-job rows.

use crate::report::MicroBench;
use fiveg_core::phy::{MeasureScratch, Tech};
use fiveg_core::Scenario;
use fiveg_obs::MetricsHandle;
use std::time::Instant;

/// Grid spacing for the `phy.sample` workload, metres.
const GRID_STEP_M: f64 = 25.0;

/// The `phy.sample` workload: a serial outdoor-grid sweep of the paper
/// scenario measuring every LTE and NR cell at each point through one
/// reused [`MeasureScratch`]. This is the exact inner loop of the
/// coverage-grid and hand-off-trace experiments, minus orchestration.
pub fn phy_sample_micro(seed: u64) -> MicroBench {
    let sc = Scenario::paper(seed);
    let grid = sc.campus.map.grid_samples(GRID_STEP_M, true);
    let m = MetricsHandle::new();
    #[expect(
        clippy::disallowed_methods,
        reason = "microbench wall time; counters carry determinism"
    )]
    let start = Instant::now();
    fiveg_obs::scoped(&m, || {
        let mut scratch = MeasureScratch::new();
        for &p in &grid {
            for tech in [Tech::Lte, Tech::Nr] {
                std::hint::black_box(sc.env.measure_all_into(p, tech, &mut scratch).len());
            }
        }
        // `scratch` drops here, inside the scope: its counters flush
        // into `m` before the snapshot below.
    });
    let wall = start.elapsed();
    let counters = m.snapshot().deterministic();
    let samples = counters.get("phy.measure.samples").copied().unwrap_or(0);
    let samples_per_sec = if wall.as_secs_f64() > 0.0 {
        (samples as f64 / wall.as_secs_f64()) as u64
    } else {
        0
    };
    MicroBench {
        wall_ms: wall.as_millis() as u64,
        samples,
        samples_per_sec,
        counters,
    }
}

/// The multi-cell fleet scenario for the `shard.fleet.*` pair: 384 UEs
/// (6 chunks → 6 shards) across the paper campus's 47 cells for 90 s.
const FLEET_SCENARIO: &str = r#"{
  "name": "fleet_shard_micro",
  "workload": { "kind": "fleet", "duration_s": 90, "tick_ms": 1000, "groups": [
    { "name": "walkers", "count": 128, "tech": "nr",
      "mobility": { "model": "waypoint", "speed_min_kmh": 3, "speed_max_kmh": 10 },
      "arrival": { "process": "steady" }, "app": { "kind": "bulk" } },
    { "name": "watchers", "count": 128, "tech": "nr",
      "mobility": { "model": "static" },
      "arrival": { "process": "diurnal", "peak_frac": 0.4 },
      "app": { "kind": "video", "resolution": "1080p", "scene": "dynamic" } },
    { "name": "readers", "count": 128, "tech": "lte",
      "mobility": { "model": "static" },
      "arrival": { "process": "steady" },
      "app": { "kind": "web", "category": "search", "think_s": 2 } } ] }
}"#;

/// Shard count of the parallel `shard.fleet.sharded` leg. Fixed — not
/// host parallelism — so the workload is identical on every machine;
/// the determinism contract makes the counters independent of it
/// anyway.
const FLEET_SHARDS: usize = 6;

/// The `shard.fleet.serial` / `shard.fleet.sharded` workload pair: one
/// multi-cell fleet scenario run twice through the shard engine's
/// windowed loop — with one UE shard on the calling thread
/// (`shards = 1`) and with `FLEET_SHARDS` shards on as many threads.
/// Returns `(serial, sharded)`.
///
/// The sharded leg's counters carry the determinism contract twice
/// over: every counter must equal the serial leg's (both legs sit in
/// the blessed baseline), and the synthetic `shard.report.identical`
/// counter is 1 only when the two reports serialise to identical
/// bytes — so a determinism regression fails the CI perf gate as
/// counter drift. Wall time is the advisory speedup signal.
pub fn fleet_shard_micro(seed: u64) -> (MicroBench, MicroBench) {
    let spec = fiveg_core::scenario_dsl::parse_scenario(FLEET_SCENARIO, "fleet-shard-micro")
        .unwrap_or_else(|e| panic!("inline micro scenario parses: {e}"));
    let fleet = match &spec.workload {
        fiveg_core::scenario_dsl::WorkloadSpec::Fleet(f) => f.clone(),
        fiveg_core::scenario_dsl::WorkloadSpec::Survey(_) => {
            unreachable!("the inline micro scenario is a fleet workload")
        }
    };
    let sc = fiveg_core::scenario_run::build_scenario(&spec, seed);
    let leg = |shards: usize| {
        let m = MetricsHandle::new();
        #[expect(
            clippy::disallowed_methods,
            reason = "microbench wall time; counters carry determinism"
        )]
        let start = Instant::now();
        let report = fiveg_obs::scoped(&m, || {
            fiveg_core::scenario_run::run_fleet_sharded(&sc, &spec, &fleet, seed ^ 0xf1ee7, shards)
        });
        let wall = start.elapsed();
        let json = serde_json::to_string(&report).unwrap_or_default();
        (m, wall, json)
    };
    let (m_serial, wall_serial, json_serial) = leg(1);
    let (m_sharded, wall_sharded, json_sharded) = leg(FLEET_SHARDS);
    fiveg_obs::scoped(&m_sharded, || {
        fiveg_obs::counter_add(
            "shard.report.identical",
            u64::from(json_serial == json_sharded),
        );
    });
    let finish = |m: &MetricsHandle, wall: std::time::Duration| {
        let counters = m.snapshot().deterministic();
        let samples = counters.get("scenario.kpi.samples").copied().unwrap_or(0);
        let samples_per_sec = if wall.as_secs_f64() > 0.0 {
            (samples as f64 / wall.as_secs_f64()) as u64
        } else {
            0
        };
        MicroBench {
            wall_ms: wall.as_millis() as u64,
            samples,
            samples_per_sec,
            counters,
        }
    };
    (
        finish(&m_serial, wall_serial),
        finish(&m_sharded, wall_sharded),
    )
}

/// The `trace.full` / `trace.ring` workload pair: the exact
/// `shard.fleet.sharded` leg re-run under an active trace scope in
/// each mode, `finish()` included in the timed region. Returns
/// `(full, ring)`.
///
/// The legs' `trace.events` and `trace.bytes` counters carry the trace
/// determinism contract into the perf gate: both are seed-pure, so any
/// drift (an emitter added, a row dropped, the columnar layout changed)
/// fails the baseline check as counter drift. Wall time against the
/// untraced `shard.fleet.sharded` row is the advisory overhead signal
/// (budget: full < 15%, ring < 5%).
pub fn trace_overhead_micro(seed: u64) -> (MicroBench, MicroBench) {
    let spec = fiveg_core::scenario_dsl::parse_scenario(FLEET_SCENARIO, "trace-overhead-micro")
        .unwrap_or_else(|e| panic!("inline micro scenario parses: {e}"));
    let fleet = match &spec.workload {
        fiveg_core::scenario_dsl::WorkloadSpec::Fleet(f) => f.clone(),
        fiveg_core::scenario_dsl::WorkloadSpec::Survey(_) => {
            unreachable!("the inline micro scenario is a fleet workload")
        }
    };
    let sc = fiveg_core::scenario_run::build_scenario(&spec, seed);
    let leg = |mode: fiveg_trace::TraceMode| {
        let m = MetricsHandle::new();
        let t = fiveg_trace::TraceHandle::new(fiveg_trace::TraceConfig {
            mode,
            ..Default::default()
        });
        #[expect(
            clippy::disallowed_methods,
            reason = "microbench wall time; counters carry determinism"
        )]
        let start = Instant::now();
        fiveg_obs::scoped(&m, || {
            fiveg_trace::scoped(&t, || {
                std::hint::black_box(fiveg_core::scenario_run::run_fleet_sharded(
                    &sc,
                    &spec,
                    &fleet,
                    seed ^ 0xf1ee7,
                    FLEET_SHARDS,
                ));
            });
            // Merge + encode is part of what we are timing; run it
            // inside the obs scope so trace.events / trace.bytes land
            // in this leg's counters.
            std::hint::black_box(t.finish());
        });
        let wall = start.elapsed();
        let counters = m.snapshot().deterministic();
        let samples = counters.get("scenario.kpi.samples").copied().unwrap_or(0);
        let samples_per_sec = if wall.as_secs_f64() > 0.0 {
            (samples as f64 / wall.as_secs_f64()) as u64
        } else {
            0
        };
        MicroBench {
            wall_ms: wall.as_millis() as u64,
            samples,
            samples_per_sec,
            counters,
        }
    };
    (
        leg(fiveg_trace::TraceMode::Full),
        leg(fiveg_trace::TraceMode::Ring),
    )
}

/// Grid spacing for the `city.sweep.100k` workload, metres. On the
/// 3×3-tile dense-urban city (1200 × 1200 m) this lands the outdoor
/// sweep near 100 k measurement samples across both techs.
const CITY_GRID_STEP_M: f64 = 4.0;

/// The `city.sweep.100k` workload: a serial outdoor-grid coverage
/// sweep of a 3×3-tile dense-urban procedural city — big enough to
/// cross the tiled-spatial-index threshold, so this times the exact
/// fast path a metro-scale scenario takes (tile-directory candidate
/// streaming under ~160 cells), where `phy.sample` times the flat
/// paper campus.
pub fn city_sweep_micro(seed: u64) -> MicroBench {
    let mut spec = fiveg_core::geo::CitySpec::dense_urban();
    spec.tiles_x = 3;
    spec.tiles_y = 3;
    let campus = fiveg_core::geo::generate_city(&spec, &fiveg_core::simcore::SimRng::new(seed));
    let env = fiveg_core::phy::RadioEnv::from_campus(&campus, seed ^ 0x5eed, 0.5, 0.05);
    let grid = campus.map.grid_samples(CITY_GRID_STEP_M, true);
    let m = MetricsHandle::new();
    #[expect(
        clippy::disallowed_methods,
        reason = "microbench wall time; counters carry determinism"
    )]
    let start = Instant::now();
    fiveg_obs::scoped(&m, || {
        let mut scratch = MeasureScratch::new();
        for &p in &grid {
            for tech in [Tech::Lte, Tech::Nr] {
                std::hint::black_box(env.measure_all_into(p, tech, &mut scratch).len());
            }
        }
    });
    let wall = start.elapsed();
    let counters = m.snapshot().deterministic();
    let samples = counters.get("phy.measure.samples").copied().unwrap_or(0);
    let samples_per_sec = if wall.as_secs_f64() > 0.0 {
        (samples as f64 / wall.as_secs_f64()) as u64
    } else {
        0
    };
    MicroBench {
        wall_ms: wall.as_millis() as u64,
        samples,
        samples_per_sec,
        counters,
    }
}

/// The city fleet for the `city.attach.*` pair: a 2×2-tile dense-urban
/// city with a mostly-parked population, where incremental
/// re-measurement pays off hardest.
const CITY_FLEET_SCENARIO: &str = r#"{
  "name": "city_attach_micro",
  "city": { "preset": "dense_urban" },
  "workload": { "kind": "fleet", "duration_s": 30, "tick_ms": 1000, "groups": [
    { "name": "walkers", "count": 64, "tech": "nr",
      "mobility": { "model": "waypoint", "speed_min_kmh": 3, "speed_max_kmh": 10 },
      "arrival": { "process": "steady" }, "app": { "kind": "bulk" } },
    { "name": "parked", "count": 128, "tech": "lte",
      "mobility": { "model": "static" },
      "arrival": { "process": "steady" },
      "app": { "kind": "video", "resolution": "1080p", "scene": "static" } } ] }
}"#;

/// The `city.attach.full` / `city.attach.incremental` workload pair:
/// one city fleet scenario run twice — with the full re-measure oracle
/// and with the incremental re-measurement cache. Returns
/// `(full, incremental)`.
///
/// The incremental leg's counters carry the fast path's contract: the
/// `city.remeasure.skipped` count is the cache's deterministic hit
/// total (baseline-gated), and the synthetic `city.incremental.identical`
/// counter is 1 only when both legs' reports serialise to identical
/// bytes — so a cache-coherence regression fails the CI perf gate as
/// counter drift. Wall time is the advisory speedup signal.
pub fn city_attach_micro(seed: u64) -> (MicroBench, MicroBench) {
    let spec = fiveg_core::scenario_dsl::parse_scenario(CITY_FLEET_SCENARIO, "city-attach-micro")
        .unwrap_or_else(|e| panic!("inline micro scenario parses: {e}"));
    let fleet = match &spec.workload {
        fiveg_core::scenario_dsl::WorkloadSpec::Fleet(f) => f.clone(),
        fiveg_core::scenario_dsl::WorkloadSpec::Survey(_) => {
            unreachable!("the inline micro scenario is a fleet workload")
        }
    };
    let sc = fiveg_core::scenario_run::build_scenario(&spec, seed);
    let leg = |incremental: bool| {
        let m = MetricsHandle::new();
        #[expect(
            clippy::disallowed_methods,
            reason = "microbench wall time; counters carry determinism"
        )]
        let start = Instant::now();
        let report = fiveg_obs::scoped(&m, || {
            let run = if incremental {
                fiveg_core::scenario_run::run_fleet_sharded
            } else {
                fiveg_core::scenario_run::run_fleet_full_remeasure
            };
            run(&sc, &spec, &fleet, seed ^ 0xc17, 2)
        });
        let wall = start.elapsed();
        let json = serde_json::to_string(&report).unwrap_or_default();
        (m, wall, json)
    };
    let (m_full, wall_full, json_full) = leg(false);
    let (m_inc, wall_inc, json_inc) = leg(true);
    fiveg_obs::scoped(&m_inc, || {
        fiveg_obs::counter_add(
            "city.incremental.identical",
            u64::from(json_full == json_inc),
        );
    });
    let finish = |m: &MetricsHandle, wall: std::time::Duration| {
        let counters = m.snapshot().deterministic();
        let samples = counters.get("scenario.kpi.samples").copied().unwrap_or(0);
        let samples_per_sec = if wall.as_secs_f64() > 0.0 {
            (samples as f64 / wall.as_secs_f64()) as u64
        } else {
            0
        };
        MicroBench {
            wall_ms: wall.as_millis() as u64,
            samples,
            samples_per_sec,
            counters,
        }
    };
    (finish(&m_full, wall_full), finish(&m_inc, wall_inc))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn city_sweep_micro_covers_the_tiled_city() {
        let a = city_sweep_micro(2020);
        assert!(a.samples > 50_000, "workload too small: {}", a.samples);
        let b = city_sweep_micro(2020);
        assert_eq!(a.counters, b.counters, "micro counters must be seed-pure");
    }

    #[test]
    fn city_attach_micro_legs_agree_and_cache_bites() {
        let (full, inc) = city_attach_micro(2020);
        assert_eq!(inc.counters["city.incremental.identical"], 1);
        // Both legs push the same KPI sample stream...
        assert_eq!(full.samples, inc.samples);
        // ...but the incremental leg skips most re-measurements: the
        // parked majority is cache-hot from its second active tick on.
        let skipped = inc.counters["city.remeasure.skipped"];
        assert!(
            skipped * 2 > inc.samples,
            "cache hits should dominate a mostly-parked fleet: {skipped} of {}",
            inc.samples
        );
        assert_eq!(full.counters["city.remeasure.skipped"], 0);
    }

    #[test]
    fn fleet_shard_micro_legs_agree() {
        let (serial, sharded) = fleet_shard_micro(2020);
        assert!(
            serial.samples > 10_000,
            "workload too small: {}",
            serial.samples
        );
        assert_eq!(sharded.counters["shard.report.identical"], 1);
        // Every counter but the synthetic marker matches the serial leg.
        let mut sharded_counters = sharded.counters.clone();
        sharded_counters.remove("shard.report.identical");
        assert_eq!(serial.counters, sharded_counters);
    }

    #[test]
    fn trace_overhead_micro_is_counter_deterministic() {
        let (full, ring) = trace_overhead_micro(2020);
        assert!(full.counters["trace.events"] > 0);
        // Ring mode keeps a bounded suffix of what full mode keeps.
        assert_eq!(full.counters["trace.events"], ring.counters["trace.events"]);
        assert!(full.counters["trace.bytes"] > ring.counters["trace.bytes"]);
        let (full2, ring2) = trace_overhead_micro(2020);
        assert_eq!(
            full.counters, full2.counters,
            "trace micro must be seed-pure"
        );
        assert_eq!(
            ring.counters, ring2.counters,
            "trace micro must be seed-pure"
        );
    }

    #[test]
    fn phy_sample_micro_is_counter_deterministic() {
        let a = phy_sample_micro(2020);
        let b = phy_sample_micro(2020);
        assert!(a.samples > 500, "workload too small: {}", a.samples);
        assert_eq!(a.counters, b.counters, "micro counters must be seed-pure");
        assert_eq!(
            a.counters["phy.scratch.reuse"],
            a.samples - 1,
            "one persistent scratch reuses every call after the first"
        );
        assert!(a.counters["phy.buildings.pruned"] > 0);
        assert!(a.counters["phy.rays.traced"] > a.samples);
    }
}
