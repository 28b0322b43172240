//! `fleet-metro`: a UE fleet in a procedural city on the shard kernel.

use crate::{span, timed, Probe, Round, Workload};
use fiveg_core::scenario_dsl::{parse_scenario, FleetSpec, ScenarioSpec, WorkloadSpec};
use fiveg_core::scenario_run::{build_scenario, run_fleet_sharded};
use fiveg_core::simcore::hash::{fnv1a64, hex64, stable_hash_fields};
use fiveg_core::Scenario;
use fiveg_obs::MetricsHandle;
use fiveg_trace::{TraceConfig, TraceHandle, TraceMode};

/// Fleet scenario size.
#[derive(Debug, Clone)]
pub struct FleetParams {
    /// City tiles per axis (dense-urban preset, 18 cells per tile).
    pub tiles: usize,
    /// UEs in each of the two groups.
    pub ues_per_group: u32,
    /// Simulated seconds, at one tick per second. Six cells are out of
    /// service for the middle third.
    pub duration_s: u64,
}

/// The scenario file the workload runs: NR walkers on bulk downloads
/// and parked LTE video viewers.
fn scenario_json(p: &FleetParams) -> String {
    format!(
        r#"{{
  "name": "fleet_metro",
  "city": {{ "preset": "dense_urban", "tiles_x": {t}, "tiles_y": {t} }},
  "workload": {{ "kind": "fleet", "duration_s": {d}, "tick_ms": 1000, "groups": [
    {{ "name": "walkers", "count": {n}, "tech": "nr",
      "mobility": {{ "model": "waypoint", "speed_min_kmh": 3, "speed_max_kmh": 12 }},
      "arrival": {{ "process": "steady" }}, "app": {{ "kind": "bulk" }} }},
    {{ "name": "parked", "count": {n}, "tech": "lte",
      "mobility": {{ "model": "static" }},
      "arrival": {{ "process": "steady" }},
      "app": {{ "kind": "video", "resolution": "1080p", "scene": "static" }} }} ] }},
  "faults": [ {{ "kind": "cell_outage", "start_s": {a}, "end_s": {b},
    "pcis": [60, 61, 62, 63, 64, 65] }} ]
}}"#,
        t = p.tiles,
        d = p.duration_s,
        n = p.ues_per_group,
        a = p.duration_s / 3,
        b = 2 * p.duration_s / 3,
    )
}

/// The fleet workload's input: the parsed scenario and its built city.
pub struct Fleet {
    sc: Scenario,
    spec: ScenarioSpec,
    fleet: FleetSpec,
    run_seed: u64,
}

impl Fleet {
    /// Parses the scenario and builds its city from `seed`.
    pub fn new(seed: u64, p: &FleetParams) -> Result<Fleet, String> {
        let spec = parse_scenario(&scenario_json(p), "fleet-metro").map_err(|e| e.to_string())?;
        let WorkloadSpec::Fleet(fleet) = spec.workload.clone() else {
            return Err("fleet-metro scenario is not a fleet workload".into());
        };
        let sc = build_scenario(&spec, seed);
        let run_seed = stable_hash_fields(&[&seed.to_le_bytes(), b"fleet-metro"]);
        Ok(Fleet {
            sc,
            spec,
            fleet,
            run_seed,
        })
    }

    /// One fleet run on `shards` shards inside a fresh metrics scope.
    fn run(&self, shards: usize, probe: Option<&mut Probe>) -> Round {
        let metrics = MetricsHandle::new();
        let (report, wall) = timed(|| {
            fiveg_obs::scoped(&metrics, || {
                run_fleet_sharded(&self.sc, &self.spec, &self.fleet, self.run_seed, shards)
            })
        });
        if let Some(p) = probe {
            p.add(span::FLEET, wall);
            p.calls.record(wall);
        }
        let mut round = Round {
            ops: 1,
            work: f64::from(report.ues) * report.ticks as f64,
            counters: metrics.snapshot().deterministic(),
            ..Round::default()
        };
        match serde_json::to_string(&report) {
            Ok(json) => {
                round
                    .digests
                    .insert("fleet".into(), hex64(fnv1a64(json.as_bytes())));
            }
            Err(_) => round.errors += 1,
        }
        round
    }
}

impl Workload for Fleet {
    /// One serial fleet run. Work unit: a UE-tick.
    fn round(&self, probe: Option<&mut Probe>) -> Round {
        self.run(1, probe)
    }

    /// The same run on two shards (two threads) must give the same
    /// report and counters, as must a run under full event tracing.
    fn extra_legs(&self, first: &Round, untraced_s: f64, probe: &mut Probe) -> Vec<String> {
        let mut notes = Vec::new();
        let (sharded, wall) = timed(|| self.run(2, None));
        probe
            .extras
            .insert("shard.parallel_speedup", untraced_s / wall.as_secs_f64());
        if sharded.digests != first.digests || sharded.counters != first.counters {
            notes.push("fleet: 2-shard run differs from the 1-shard run".into());
        }

        let trace = TraceHandle::new(TraceConfig {
            mode: TraceMode::Full,
            ..TraceConfig::default()
        });
        let metrics = MetricsHandle::new();
        let (traced, wall) = timed(|| {
            let round = fiveg_trace::scoped(&trace, || self.run(1, None));
            fiveg_obs::scoped(&metrics, || trace.finish());
            round
        });
        let events = metrics.snapshot().deterministic();
        probe.extras.insert(
            "trace.events",
            events.get("trace.events").copied().unwrap_or(0) as f64,
        );
        probe.extras.insert(
            "trace.emit.overhead_frac",
            wall.as_secs_f64() / untraced_s - 1.0,
        );
        if traced.digests != first.digests {
            notes.push("fleet: traced run differs from the untraced run".into());
        }
        notes
    }
}
