//! Property test for the scenario DSL end to end: every small generated
//! scenario that passes `scen check` (parse + validate of its canonical
//! text) must run to completion as a [`ScenarioJob`], at one and at two
//! threads, with the same artifact bytes. A spec the runner cannot
//! handle must be rejected at validation, with its spec path, instead
//! of panicking inside the job.

use fiveg_core::campaign::{run, JobStatus, Registry, RunConfig};
use fiveg_core::scenario_dsl::{
    emit_scenario, parse_scenario, AppSpec, ArrivalSpec, CampusSpec, CityDslSpec, FaultSpec,
    FleetSpec, LoadSpec, MobilitySpec, Period, ScenarioSpec, SceneSpec, SurveySpec, TechSpec,
    UeGroupSpec, VideoRes, WebCategory, WorkloadSpec, MIN_CAMPUS_SIDE_M,
};
use fiveg_core::scenario_run::ScenarioJob;
use proptest::prelude::*;

/// A campus side, sometimes below the smallest one validation accepts.
fn side_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![1 => 1.0f64..40.0, 3 => 40.0f64..1500.0]
}

fn campus_strategy() -> impl Strategy<Value = CampusSpec> {
    (
        side_strategy(),
        side_strategy(),
        (0u32..8),
        (0u32..8),
        (0.0f64..1.0),
    )
        .prop_map(
            |(width_m, height_m, enb_sites, gnb, concrete_fraction)| CampusSpec {
                width_m,
                height_m,
                enb_sites,
                gnb_sites: gnb.min(enb_sites),
                concrete_fraction,
            },
        )
}

fn city_strategy() -> impl Strategy<Value = Option<CityDslSpec>> {
    let city = (
        (0u8..3),
        (1u32..3),
        (1u32..3),
        (0u32..4),
        (0u32..4),
        (0.0f64..1.0),
    )
        .prop_map(
            |(preset, tiles_x, tiles_y, enb_per_tile, gnb, concrete_fraction)| {
                let preset = ["dense_urban", "rural", "indoor_hotspot"][preset as usize];
                let mut city = CityDslSpec::from_preset(preset).expect("known preset");
                city.tiles_x = tiles_x;
                city.tiles_y = tiles_y;
                city.enb_per_tile = enb_per_tile;
                city.gnb_per_tile = gnb.min(enb_per_tile);
                city.concrete_fraction = concrete_fraction;
                Some(city)
            },
        );
    prop_oneof![3 => Just(None), 1 => city]
}

fn loads_strategy() -> impl Strategy<Value = LoadSpec> {
    (
        prop::bool::ANY,
        prop::bool::ANY,
        (0.0f64..1.0),
        (0.0f64..1.0),
    )
        .prop_map(|(day, explicit, lte, nr)| LoadSpec {
            period: if day { Period::Day } else { Period::Night },
            lte: explicit.then_some(lte),
            nr: explicit.then_some(nr),
        })
}

fn mobility_strategy() -> impl Strategy<Value = MobilitySpec> {
    prop_oneof![
        Just(MobilitySpec::Static),
        // One in four ranges is a single speed.
        ((0.01f64..10.0), (0.0f64..80.0)).prop_map(|(lo, extra)| MobilitySpec::Waypoint {
            speed_min_kmh: lo,
            speed_max_kmh: if extra < 20.0 { lo } else { lo + extra },
        }),
        // Endpoints may lie outside the campus; one in four transects
        // has zero length.
        (
            (-500.0f64..2000.0),
            (-500.0f64..2000.0),
            (-500.0f64..2000.0),
            (-500.0f64..2000.0),
            (0.01f64..120.0),
        )
            .prop_map(|(x0, y0, x1, y1, v)| MobilitySpec::Transect {
                from: (x0, y0),
                to: if v < 30.0 { (x0, y0) } else { (x1, y1) },
                speed_kmh: v,
            }),
    ]
}

fn arrival_strategy() -> impl Strategy<Value = ArrivalSpec> {
    prop_oneof![
        Just(ArrivalSpec::Steady),
        (0.0f64..1.0).prop_map(|peak_frac| ArrivalSpec::Diurnal { peak_frac }),
        ((0.0f64..200.0), (0.001f64..50.0))
            .prop_map(|(at_s, spread_s)| ArrivalSpec::FlashCrowd { at_s, spread_s }),
    ]
}

fn app_strategy() -> impl Strategy<Value = AppSpec> {
    prop_oneof![
        Just(AppSpec::Bulk),
        ((0u8..4), prop::bool::ANY).prop_map(|(r, dynamic)| AppSpec::Video {
            resolution: [VideoRes::P720, VideoRes::P1080, VideoRes::K4, VideoRes::K57][r as usize],
            scene: if dynamic {
                SceneSpec::Dynamic
            } else {
                SceneSpec::Static
            },
        }),
        ((0u8..5), (0.0f64..60.0)).prop_map(|(c, think_s)| AppSpec::Web {
            category: [
                WebCategory::Search,
                WebCategory::Image,
                WebCategory::Shopping,
                WebCategory::Map,
                WebCategory::Video,
            ][c as usize],
            think_s,
        }),
    ]
}

fn workload_strategy() -> impl Strategy<Value = WorkloadSpec> {
    let survey = ((0.1f64..150.0), (1u64..20_000)).prop_map(|(speed_kmh, interval_ms)| {
        WorkloadSpec::Survey(SurveySpec {
            speed_kmh,
            interval_ms,
        })
    });
    // Up to 450 UEs, so two threads can mean two 64-UE fleet shards.
    let group = (
        (1u32..150),
        prop::bool::ANY,
        mobility_strategy(),
        arrival_strategy(),
        app_strategy(),
    )
        .prop_map(|(count, lte, mobility, arrival, app)| UeGroupSpec {
            name: String::new(),
            count,
            tech: if lte { TechSpec::Lte } else { TechSpec::Nr },
            mobility,
            arrival,
            app,
        });
    let fleet = (
        (1u64..60),
        (20u64..5000),
        prop::collection::vec(group, 1..4),
    )
        .prop_map(|(duration_s, tick_ms, mut groups)| {
            for (i, g) in groups.iter_mut().enumerate() {
                g.name = format!("g{i}");
            }
            WorkloadSpec::Fleet(FleetSpec {
                duration_s,
                tick_ms,
                groups,
            })
        });
    prop_oneof![1 => survey, 3 => fleet]
}

fn fault_strategy() -> impl Strategy<Value = FaultSpec> {
    let window = || ((0.0f64..120.0), (0.001f64..100.0));
    prop_oneof![
        (window(), prop::collection::vec(0u16..700, 1..5)).prop_map(|((s, d), pcis)| {
            FaultSpec::CellOutage {
                start_s: s,
                end_s: s + d,
                pcis,
            }
        }),
        (window(), (0.001f64..1000.0)).prop_map(|((s, d), capacity_mbps)| {
            FaultSpec::BackhaulBrownout {
                start_s: s,
                end_s: s + d,
                capacity_mbps,
            }
        }),
        (window(), (0.0f64..30.0)).prop_map(|((s, d), hysteresis_db)| FaultSpec::HandoffStorm {
            start_s: s,
            end_s: s + d,
            hysteresis_db,
        }),
    ]
}

fn scenario_strategy() -> impl Strategy<Value = ScenarioSpec> {
    (
        campus_strategy(),
        city_strategy(),
        loads_strategy(),
        workload_strategy(),
        prop::collection::vec(fault_strategy(), 0..3),
    )
        .prop_map(|(campus, city, loads, workload, faults)| ScenarioSpec {
            name: "prop".into(),
            description: String::new(),
            campus,
            city,
            trace: None,
            loads,
            workload,
            faults,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// parse -> validate -> run: a scenario that `scen check` accepts
    /// completes at one and two threads, byte-identically.
    #[test]
    fn checked_scenarios_run_to_completion(spec in scenario_strategy(), seed in (0u64..10_000)) {
        let text = emit_scenario(&spec);
        // What `scen check` does with a file: parse and validate.
        let checked = match parse_scenario(&text, "prop.json") {
            Ok(checked) => checked,
            Err(e) => {
                // The campus generator keeps sites 10 m inside each
                // edge; a smaller campus is rejected by its key.
                if spec.campus.width_m < MIN_CAMPUS_SIDE_M {
                    prop_assert!(e.message.contains("campus.width_m"), "{e}");
                } else if spec.campus.height_m < MIN_CAMPUS_SIDE_M {
                    prop_assert!(e.message.contains("campus.height_m"), "{e}");
                }
                return Ok(());
            }
        };
        prop_assert!(
            spec.campus.width_m >= MIN_CAMPUS_SIDE_M && spec.campus.height_m >= MIN_CAMPUS_SIDE_M,
            "a campus smaller than {MIN_CAMPUS_SIDE_M} m passed validation:\n{text}"
        );
        let mut outputs = Vec::new();
        for threads in [1, 2] {
            let mut reg = Registry::new();
            reg.register(ScenarioJob::new(checked.clone()));
            let report = run(&reg, &RunConfig::new(seed).workers(threads), &mut |_| {});
            let r = &report.results[0];
            prop_assert!(
                r.status == JobStatus::Ok,
                "{:?} at {threads} threads for a checked scenario:\n{text}",
                r.status
            );
            outputs.push(r.output.as_ref().map(|o| o.json.clone()));
        }
        prop_assert_eq!(&outputs[0], &outputs[1], "{}", text);
    }
}
