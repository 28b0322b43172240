//! Property tests for the scenario DSL: round-trip byte stability of
//! the canonical emitter, unknown-key rejection, and fault-schedule
//! validation over adversarial windows.

use fiveg_scenario::{
    emit_scenario, parse_scenario, AppSpec, ArrivalSpec, CampusSpec, FaultSpec, FleetSpec,
    LoadSpec, MobilitySpec, Period, ScenarioSpec, SceneSpec, SurveySpec, TechSpec, UeGroupSpec,
    VideoRes, WebCategory, WorkloadSpec,
};
use proptest::prelude::*;

fn campus_strategy() -> impl Strategy<Value = CampusSpec> {
    (
        (100.0f64..2000.0),
        (100.0f64..2000.0),
        (1u32..20),
        (0.0f64..1.0),
    )
        .prop_map(
            |(width_m, height_m, enb_sites, concrete_fraction)| CampusSpec {
                width_m,
                height_m,
                enb_sites,
                // Valid by construction: gNBs co-sit with eNBs.
                gnb_sites: enb_sites.div_ceil(2),
                concrete_fraction,
            },
        )
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
        ((0.5f64..5.0), (0.0f64..20.0)).prop_map(|(lo, extra)| MobilitySpec::Waypoint {
            speed_min_kmh: lo,
            speed_max_kmh: lo + extra,
        }),
        ((1.0f64..400.0), (1.0f64..800.0), (0.5f64..30.0)).prop_map(|(x, y, v)| {
            MobilitySpec::Transect {
                from: (x, y),
                to: (y, x),
                speed_kmh: v,
            }
        }),
    ]
}

fn arrival_strategy() -> impl Strategy<Value = ArrivalSpec> {
    prop_oneof![
        Just(ArrivalSpec::Steady),
        (0.0f64..1.0).prop_map(|peak_frac| ArrivalSpec::Diurnal { peak_frac }),
        ((0.0f64..100.0), (0.1f64..20.0))
            .prop_map(|(at_s, spread_s)| ArrivalSpec::FlashCrowd { at_s, spread_s }),
    ]
}

fn app_strategy() -> impl Strategy<Value = AppSpec> {
    prop_oneof![
        Just(AppSpec::Bulk),
        ((0u8..4), prop::bool::ANY).prop_map(|(r, dynamic)| AppSpec::Video {
            resolution: match r {
                0 => VideoRes::P720,
                1 => VideoRes::P1080,
                2 => VideoRes::K4,
                _ => VideoRes::K57,
            },
            scene: if dynamic {
                SceneSpec::Dynamic
            } else {
                SceneSpec::Static
            },
        }),
        ((0u8..5), (0.0f64..30.0)).prop_map(|(c, think_s)| AppSpec::Web {
            category: match c {
                0 => WebCategory::Search,
                1 => WebCategory::Image,
                2 => WebCategory::Shopping,
                3 => WebCategory::Map,
                _ => WebCategory::Video,
            },
            think_s,
        }),
    ]
}

fn workload_strategy() -> impl Strategy<Value = WorkloadSpec> {
    let survey = ((0.5f64..30.0), (100u64..5000)).prop_map(|(speed_kmh, interval_ms)| {
        WorkloadSpec::Survey(SurveySpec {
            speed_kmh,
            interval_ms,
        })
    });
    let group = (
        "[a-z]{1,6}",
        (1u32..40),
        prop::bool::ANY,
        mobility_strategy(),
        arrival_strategy(),
        app_strategy(),
    )
        .prop_map(|(suffix, count, lte, mobility, arrival, app)| UeGroupSpec {
            name: suffix,
            count,
            tech: if lte { TechSpec::Lte } else { TechSpec::Nr },
            mobility,
            arrival,
            app,
        });
    let fleet = (
        (10u64..600),
        (100u64..2000),
        prop::collection::vec(group, 1..5),
    )
        .prop_map(|(duration_s, tick_ms, mut groups)| {
            // Group names must be unique: suffix with the index.
            for (i, g) in groups.iter_mut().enumerate() {
                g.name = format!("{}{i}", g.name);
            }
            WorkloadSpec::Fleet(FleetSpec {
                duration_s,
                tick_ms,
                groups,
            })
        });
    prop_oneof![survey, fleet]
}

fn fault_strategy() -> impl Strategy<Value = FaultSpec> {
    let window = || ((0.0f64..500.0), (0.1f64..100.0));
    prop_oneof![
        (window(), prop::collection::vec(0u16..600, 1..6)).prop_map(|((s, d), pcis)| {
            FaultSpec::CellOutage {
                start_s: s,
                end_s: s + d,
                pcis,
            }
        }),
        (window(), (1.0f64..1000.0)).prop_map(|((s, d), capacity_mbps)| {
            FaultSpec::BackhaulBrownout {
                start_s: s,
                end_s: s + d,
                capacity_mbps,
            }
        }),
        (window(), (0.0f64..10.0)).prop_map(|((s, d), hysteresis_db)| FaultSpec::HandoffStorm {
            start_s: s,
            end_s: s + d,
            hysteresis_db,
        }),
    ]
}

fn scenario_strategy() -> impl Strategy<Value = ScenarioSpec> {
    (
        "[a-z][a-z0-9_]{0,12}",
        campus_strategy(),
        loads_strategy(),
        workload_strategy(),
        prop::collection::vec(fault_strategy(), 0..4),
    )
        .prop_map(|(name, campus, loads, workload, faults)| ScenarioSpec {
            name,
            description: String::new(),
            campus,
            city: None,
            loads,
            workload,
            faults,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Valid-by-construction scenarios validate, and the canonical
    /// emitter round-trips them exactly: parse(emit(s)) == s and a
    /// second emit reproduces the same bytes.
    #[test]
    fn round_trip_is_byte_stable(spec in scenario_strategy()) {
        prop_assert_eq!(spec.validate(), Ok(()), "{spec:?}");
        let text = emit_scenario(&spec);
        let back = match parse_scenario(&text, "prop") {
            Ok(back) => back,
            Err(e) => panic!("canonical text failed to parse: {e}\n{text}"),
        };
        prop_assert_eq!(&back, &spec, "{}", text);
        prop_assert_eq!(emit_scenario(&back), text);
    }

    /// Any unknown top-level key is rejected, whatever it is called.
    #[test]
    fn unknown_keys_never_pass(key in "[a-z_]{3,12}", spec in scenario_strategy()) {
        prop_assume!(!matches!(
            key.as_str(),
            "name" | "description" | "campus" | "city" | "loads" | "workload" | "faults"
        ));
        let text = emit_scenario(&spec);
        // Splice the stray key into the top-level object.
        let spliced = text.replacen('{', &format!("{{\n  \"{key}\": 1,"), 1);
        let e = parse_scenario(&spliced, "prop").expect_err("stray key must fail");
        prop_assert!(
            e.message.contains(&format!("unknown key `{key}`")),
            "{e}"
        );
    }

    /// Fault windows are validated exactly: accepted iff
    /// `0 <= start < end` (NaN anywhere rejects), and malformed
    /// schedules never panic the validator.
    #[test]
    fn fault_windows_validate_exactly(
        start in (-100.0f64..600.0),
        len in (-50.0f64..50.0),
        nan_start in prop::bool::ANY,
        nan_end in prop::bool::ANY,
        pick in (0u8..3),
    ) {
        let start_s = if nan_start { f64::NAN } else { start };
        let end_s = if nan_end { f64::NAN } else { start + len };
        let fault = match pick {
            0 => FaultSpec::CellOutage { start_s, end_s, pcis: vec![60] },
            1 => FaultSpec::BackhaulBrownout { start_s, end_s, capacity_mbps: 100.0 },
            _ => FaultSpec::HandoffStorm { start_s, end_s, hysteresis_db: 1.0 },
        };
        let spec = ScenarioSpec {
            name: "w".into(),
            description: String::new(),
            campus: CampusSpec::default(),
            city: None,
            loads: LoadSpec::default(),
            workload: WorkloadSpec::Survey(SurveySpec::default()),
            faults: vec![fault],
        };
        let well_formed = start_s >= 0.0 && end_s > start_s; // false on NaN
        prop_assert_eq!(spec.validate().is_ok(), well_formed, "window [{start_s}, {end_s})");
    }

    /// Arbitrary byte mutations of a canonical file never panic the
    /// parser: it returns Ok or a located error.
    #[test]
    fn mutated_sources_never_panic(
        spec in scenario_strategy(),
        at_frac in (0.0f64..1.0),
        byte in (0u8..128),
    ) {
        let mut text = emit_scenario(&spec).into_bytes();
        let at = ((text.len() - 1) as f64 * at_frac) as usize;
        text[at] = byte;
        // Parsing may fail (usually does) but must not panic, and any
        // error must carry the display name we passed in.
        if let Err(e) = parse_scenario(&String::from_utf8_lossy(&text), "mut") {
            prop_assert_eq!(e.file.as_str(), "mut");
        }
    }
}
