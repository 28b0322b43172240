//! Authoring and running a scenario programmatically.
//!
//! The scenario DSL (`fiveg-scenario`) is a JSON file format, but every
//! part of it is a plain Rust value: build a spec, emit it to canonical
//! text, and run it through the same runner `repro --scenario` uses.
//!
//! Run with: `cargo run --release -p fiveg-core --example scenario_author`

use fiveg_core::scenario_dsl::{
    AppSpec, ArrivalSpec, FaultSpec, FleetSpec, MobilitySpec, ScenarioSpec, TechSpec, UeGroupSpec,
    VideoRes, WorkloadSpec,
};
use fiveg_core::scenario_run::{build_scenario, run_fleet_sharded};

fn main() {
    // A small fleet: ten walkers doing bulk downloads and three static
    // 4K streamers, with every NR cell knocked out mid-run.
    let spec = ScenarioSpec {
        name: "authored_demo".to_string(),
        description: "ten walkers + three streamers through an NR outage".to_string(),
        campus: Default::default(),
        city: None,
        loads: Default::default(),
        workload: WorkloadSpec::Fleet(FleetSpec {
            duration_s: 60,
            tick_ms: 1000,
            groups: vec![
                UeGroupSpec {
                    name: "walkers".to_string(),
                    count: 10,
                    tech: TechSpec::Nr,
                    mobility: MobilitySpec::Waypoint {
                        speed_min_kmh: 3.0,
                        speed_max_kmh: 10.0,
                    },
                    arrival: ArrivalSpec::Steady,
                    app: AppSpec::Bulk,
                },
                UeGroupSpec {
                    name: "streamers".to_string(),
                    count: 3,
                    tech: TechSpec::Nr,
                    mobility: MobilitySpec::Static,
                    arrival: ArrivalSpec::FlashCrowd {
                        at_s: 5.0,
                        spread_s: 2.0,
                    },
                    app: AppSpec::Video {
                        resolution: VideoRes::K4,
                        scene: fiveg_core::scenario_dsl::SceneSpec::Dynamic,
                    },
                },
            ],
        }),
        faults: vec![FaultSpec::CellOutage {
            start_s: 20.0,
            end_s: 40.0,
            pcis: (60..73).collect(),
        }],
    };
    spec.validate().expect("spec is well-formed");

    // The canonical file form — what `scen fmt` would write, and what
    // you would commit next to golden/scenarios/.
    println!("--- canonical scenario file ---");
    println!("{}", fiveg_core::scenario_dsl::emit_scenario(&spec));

    // Run it: deployment from the base seed, fleet randomness from a
    // job seed, exactly as the campaign executor would. The report is
    // byte-identical for any shard count; 13 UEs fill one shard.
    let sc = build_scenario(&spec, 2020);
    let WorkloadSpec::Fleet(fleet) = &spec.workload else {
        unreachable!()
    };
    let report = run_fleet_sharded(&sc, &spec, fleet, 42, 1);
    println!("--- run report ---");
    println!("{}", report.to_text());
}
