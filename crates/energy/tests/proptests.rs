//! Property-based tests for the energy state machine.

use fiveg_energy::{
    replay_energy, Burst, RadioModel, RadioStateMachine, Strategy as SchedStrategy, TrafficTrace,
};
use fiveg_simcore::SimTime;
use proptest::prelude::*;

fn bursts_strategy() -> impl Strategy<Value = Vec<Burst>> {
    prop::collection::vec((0u64..60_000, 1_000u64..20_000_000, 1.0f64..900.0), 1..30).prop_map(
        |mut v| {
            v.sort_by_key(|&(t, ..)| t);
            v.into_iter()
                .map(|(t, bytes, peak)| Burst {
                    at: SimTime::from_millis(t),
                    bytes,
                    peak_rate_mbps: peak,
                })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The replay timeline is contiguous, ordered, and ends at idle.
    #[test]
    fn intervals_are_a_partition(bursts in bursts_strategy()) {
        for radio in [RadioModel::lte_day(), RadioModel::nr_nsa_day()] {
            let tr = RadioStateMachine::new(radio).replay(&bursts);
            let mut cursor = SimTime::ZERO;
            for &(_, s, e) in &tr.intervals {
                prop_assert!(s >= cursor, "overlap at {s}");
                prop_assert!(e >= s);
                cursor = e;
            }
            prop_assert_eq!(cursor, tr.idle_at);
            prop_assert!(tr.energy.joules() > 0.0);
            prop_assert!(tr.energy.joules().is_finite());
        }
    }

    /// Active time equals the total serialisation time of the data.
    #[test]
    fn active_time_matches_bytes(bursts in bursts_strategy()) {
        let radio = RadioModel::nr_nsa_day();
        let tr = RadioStateMachine::new(radio).replay(&bursts);
        let bytes: u64 = bursts.iter().map(|b| b.bytes).sum();
        let expect = bytes as f64 * 8.0 / (radio.rate_mbps * 1e6);
        prop_assert!((tr.active_time.as_secs_f64() - expect).abs() < 1e-6);
    }

    /// The Oracle never spends more than the real state machine.
    #[test]
    fn oracle_is_a_lower_bound(bursts in bursts_strategy()) {
        let radio = RadioModel::nr_nsa_day();
        let real = RadioStateMachine::new(radio).replay(&bursts).energy.joules();
        let oracle = RadioStateMachine::oracle(radio).replay(&bursts).energy.joules();
        prop_assert!(oracle <= real + 1e-9, "oracle {oracle} > real {real}");
    }

    /// More data never costs less energy (same arrival times).
    #[test]
    fn energy_monotone_in_bytes(bursts in bursts_strategy(), extra in 1_000u64..10_000_000) {
        let radio = RadioModel::lte_day();
        let base = RadioStateMachine::new(radio).replay(&bursts).energy.joules();
        let mut bigger = bursts.clone();
        bigger[0].bytes += extra;
        let more = RadioStateMachine::new(radio).replay(&bigger).energy.joules();
        prop_assert!(more >= base - 1e-9);
    }

    /// Strategy replays are always positive and the oracle beats NSA on
    /// every workload.
    #[test]
    fn strategies_positive(idx in 0usize..3) {
        let trace = &TrafficTrace::paper_all()[idx];
        for s in SchedStrategy::ALL {
            prop_assert!(replay_energy(trace, s).joules() > 0.0);
        }
        prop_assert!(
            replay_energy(trace, SchedStrategy::NrOracle).joules()
                <= replay_energy(trace, SchedStrategy::NrNsa).joules()
        );
    }
}
