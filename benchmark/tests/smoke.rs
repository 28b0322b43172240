//! Every workload end to end on tiny inputs, and the oracles catching
//! wrong outputs.

use fiveg_benchmark::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use fiveg_benchmark::fleet::FleetParams;
use fiveg_benchmark::flows::FlowParams;
use fiveg_benchmark::oracle::{baseline_path, Expected, Oracle};
use fiveg_benchmark::sweep::SweepParams;
use fiveg_benchmark::{run_workload, setup, Params};
use std::time::{Duration, Instant};

fn tiny() -> Params {
    Params {
        campaign_jobs: vec!["table4", "fig21", "fig3"],
        flows: FlowParams {
            flow_ms: 100,
            handoff_ms: 200,
        },
        fleet: FleetParams {
            tiles: 2,
            ues_per_group: 48,
            duration_s: 30,
        },
        sweep: SweepParams {
            tiles: 1,
            grid_m: 40.0,
        },
        setup_batch_s: 0.0,
    }
}

#[test]
fn every_workload_runs_correctly_on_tiny_inputs() {
    let start = Instant::now();
    for (w, _) in WORKLOADS {
        for traced in [false, true] {
            let out = run_workload(w, 7, 0.0, traced, &tiny(), &Oracle::default())
                .unwrap_or_else(|e| panic!("{w}: {e}"));
            assert!(out.correct(), "{w} traced={traced}: {:?}", out.notes);
            assert!(out.attempted >= 1);
            let catalog = if traced {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            let names: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
            let want: Vec<&str> = catalog.iter().map(|m| m.name).collect();
            assert_eq!(names, want, "{w} traced={traced}");
            for (name, value, _) in &out.metrics {
                assert!(value.is_finite(), "{w}: {name} = {value}");
            }
            if traced && w == "bulk-flows" {
                for (name, value, _) in &out.metrics {
                    if name.starts_with("net.ns_per_event.") {
                        assert!(*value > 0.0, "{name} = {value}: a flow group ran no events");
                    }
                }
            }
            if !traced {
                assert!(
                    out.metrics.iter().all(|m| m.1 > 0.0),
                    "{w}: {:?}",
                    out.metrics
                );
            }
        }
    }
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "smoke run took {:?}",
        start.elapsed()
    );
}

#[test]
fn a_wrong_expected_output_counts_as_a_failed_op() {
    let params = tiny();
    let first = setup("bulk-flows", 7, &params).unwrap().round(None);
    let mut expected = Expected {
        digests: first.digests.clone(),
        counters: first.counters.clone(),
    };
    let oracle = Oracle {
        expected: Some(expected.clone()),
        baseline: None,
    };
    let out = run_workload("bulk-flows", 7, 0.0, false, &params, &oracle).unwrap();
    assert!(out.correct(), "{:?}", out.notes);

    let op = expected.digests.keys().next().cloned().unwrap();
    expected.digests.insert(op, "wrong".into());
    let oracle = Oracle {
        expected: Some(expected),
        baseline: None,
    };
    let out = run_workload("bulk-flows", 7, 0.0, false, &params, &oracle).unwrap();
    assert_eq!(out.failed, 1, "{:?}", out.notes);
    assert!(!out.correct());
}

#[test]
fn campaign_counters_are_checked_against_the_bench_baseline() {
    let text = std::fs::read_to_string(baseline_path()).unwrap();
    let baseline = fiveg_obs::json::parse(&text).unwrap();
    let oracle = Oracle {
        expected: None,
        baseline: Some(baseline),
    };
    // Job seeds derive from the base seed the baseline was made with.
    let out = run_workload("campaign-quick", 2020, 0.0, false, &tiny(), &oracle).unwrap();
    assert!(out.correct(), "{:?}", out.notes);

    let tampered = text.replacen("\"energy.transitions\": ", "\"energy.transitions\": 1", 1);
    assert_ne!(
        tampered, text,
        "the baseline has an energy counter to tamper with"
    );
    let oracle = Oracle {
        expected: None,
        baseline: Some(fiveg_obs::json::parse(&tampered).unwrap()),
    };
    let out = run_workload("campaign-quick", 2020, 0.0, false, &tiny(), &oracle).unwrap();
    assert_eq!(out.failed, 1, "{:?}", out.notes);
}
