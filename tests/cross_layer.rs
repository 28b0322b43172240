//! Cross-layer tests: interactions the paper highlights between the
//! physical layer, control plane, transport and energy models.

use fiveg_core::energy::{Burst, RadioModel, RadioStateMachine};
use fiveg_core::phy::{MeasureScratch, Tech};
use fiveg_core::ran::{HandoffCampaign, HandoffKind};
use fiveg_core::simcore::{SimDuration, SimTime};
use fiveg_core::Scenario;
use fiveg_geo::RandomWaypoint;

#[test]
fn handoff_rate_reflects_smaller_5g_cells() {
    // Smaller 5G cells → more hand-off events per unit time than 4G-only
    // movement would suggest; the campaign must produce NR events.
    let sc = Scenario::paper(2020);
    let rwp = RandomWaypoint {
        speed_min_kmh: 6.0,
        speed_max_kmh: 10.0,
        duration: SimDuration::from_secs(600),
        interval: SimDuration::from_millis(100),
    };
    let rng = sc.rng("xlayer");
    let trace = rwp.generate(&sc.campus.map, &mut rng.substream("m"));
    let recs = HandoffCampaign::default().run(&sc.env, &trace, &mut rng.substream("h"));
    let nr_events = recs
        .iter()
        .filter(|r| {
            matches!(
                r.kind,
                HandoffKind::NrToNr | HandoffKind::NrToLte | HandoffKind::LteToNr
            )
        })
        .count();
    assert!(
        nr_events > 0,
        "10 minutes of movement must touch the NR leg"
    );
}

#[test]
fn coverage_holes_force_vertical_handoffs() {
    // The Tab. 2 coverage holes are what trigger 5G→4G fallbacks: if
    // holes exist along the walk, NrToLte events must appear.
    let sc = Scenario::paper(2020);
    let rwp = RandomWaypoint {
        speed_min_kmh: 8.0,
        speed_max_kmh: 10.0,
        duration: SimDuration::from_secs(1200),
        interval: SimDuration::from_millis(100),
    };
    let rng = sc.rng("xlayer2");
    let trace = rwp.generate(&sc.campus.map, &mut rng.substream("m"));
    // Does the walk cross a hole at all?
    let crosses_hole = trace.iter().any(|p| {
        sc.env
            .serving_into(p.pos, Tech::Nr, &mut MeasureScratch::new())
            .is_none_or(|m| m.rsrp.value() < -105.0)
    });
    let recs = HandoffCampaign::default().run(&sc.env, &trace, &mut rng.substream("h"));
    let fallbacks = recs
        .iter()
        .filter(|r| r.kind == HandoffKind::NrToLte)
        .count();
    if crosses_hole {
        assert!(fallbacks > 0, "walked through a hole but never fell back");
    }
}

#[test]
fn energy_tail_outlives_short_flows() {
    // A short transfer's energy is dominated by promotion + tail — the
    // Fig. 23 observation driving the paper's scheduling proposal.
    let radio = RadioModel::nr_nsa_day();
    let m = RadioStateMachine::new(radio);
    let short = m.replay(&[Burst {
        at: SimTime::ZERO,
        bytes: 500_000,
        peak_rate_mbps: 20.0,
    }]);
    let transfer_secs = 500_000.0 * 8.0 / (radio.rate_mbps * 1e6);
    let transfer_energy = radio.power.active.watts() * transfer_secs;
    assert!(
        short.energy.joules() > 10.0 * transfer_energy,
        "overheads {} J vs transfer {} J",
        short.energy.joules(),
        transfer_energy
    );
}

#[test]
fn handoff_latency_feeds_energy_relevant_interruptions() {
    // 5G-5G hand-offs stall the data plane for ~100 ms; over a campaign
    // that is pure overhead time during which the radio burns promotion
    // power. Sanity-check the total interruption time scale.
    let sc = Scenario::paper(2020);
    let rwp = RandomWaypoint {
        speed_min_kmh: 6.0,
        speed_max_kmh: 10.0,
        duration: SimDuration::from_secs(600),
        interval: SimDuration::from_millis(100),
    };
    let rng = sc.rng("xlayer3");
    let trace = rwp.generate(&sc.campus.map, &mut rng.substream("m"));
    let recs = HandoffCampaign::default().run(&sc.env, &trace, &mut rng.substream("h"));
    let total_interruption: f64 = recs.iter().map(|r| r.latency.as_secs_f64()).sum();
    let horiz_5g = recs
        .iter()
        .filter(|r| r.kind == HandoffKind::NrToNr)
        .count();
    if horiz_5g > 0 {
        assert!(
            total_interruption > 0.1 * horiz_5g as f64,
            "5G hand-offs must cost ≈108 ms each"
        );
    }
}
