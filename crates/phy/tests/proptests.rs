//! Property-based tests for the radio physical layer.

use fiveg_phy::{
    bler, cqi_from_sinr, rate_fraction, spectral_efficiency, CellMeasurement, MeasureScratch,
    RadioEnv, SectorAntenna, ShadowingField, Survey, Tech, VerticalPattern,
};
use fiveg_simcore::SimRng;
use proptest::prelude::*;
use std::collections::BTreeSet;

proptest! {
    /// Antenna attenuation is bounded and symmetric around boresight.
    #[test]
    fn antenna_bounded_and_symmetric(az in 0.0f64..360.0, off in 0.0f64..180.0) {
        let a = SectorAntenna::standard(az);
        let left = a.attenuation_db((az - off).rem_euclid(360.0));
        let right = a.attenuation_db((az + off).rem_euclid(360.0));
        prop_assert!((left - right).abs() < 1e-9);
        prop_assert!(left >= 0.0 && left <= a.max_attenuation_db);
    }

    /// Vertical pattern is bounded.
    #[test]
    fn vertical_bounded(d in 1.0f64..2000.0, mast in 5.0f64..60.0) {
        let v = VerticalPattern::macro_default();
        let a = v.attenuation_db(d, mast);
        prop_assert!(a >= 0.0 && a <= v.max_attenuation_db);
    }

    /// CQI / spectral efficiency / rate fraction are monotone in SINR
    /// and properly bounded.
    #[test]
    fn link_adaptation_monotone(s1 in -20.0f64..40.0, s2 in -20.0f64..40.0) {
        let (lo, hi) = if s1 < s2 { (s1, s2) } else { (s2, s1) };
        prop_assert!(cqi_from_sinr(hi) >= cqi_from_sinr(lo));
        prop_assert!(spectral_efficiency(hi) >= spectral_efficiency(lo));
        let rf = rate_fraction(s1);
        prop_assert!((0.0..=1.0).contains(&rf));
    }

    /// BLER is a valid probability, decreasing in SINR for every MCS.
    #[test]
    fn bler_valid(mcs_idx in 0u8..=27, s in -30.0f64..50.0) {
        let b = bler(s, mcs_idx);
        prop_assert!((0.0..=1.0).contains(&b));
        prop_assert!(bler(s + 1.0, mcs_idx) <= b + 1e-12);
    }

    /// Shadowing is deterministic per position and bounded in practice.
    #[test]
    fn shadowing_deterministic(seed in any::<u64>(), x in -1e4f64..1e4, y in -1e4f64..1e4) {
        let f = ShadowingField::new(seed);
        prop_assert_eq!(f.standard_value(x, y), f.standard_value(x, y));
        // Standard normal values essentially never exceed 6 sigma.
        prop_assert!(f.standard_value(x, y).abs() < 8.0);
    }
}

/// `SectorAntenna::angle_diff` as first written, with `rem_euclid`.
fn angle_diff_rem_euclid(a: f64, b: f64) -> f64 {
    let d = (a - b).rem_euclid(360.0);
    if d > 180.0 {
        360.0 - d
    } else {
        d
    }
}

/// Bit-identical, except that any NaN matches any NaN.
fn same_bits(new: f64, old: f64) -> bool {
    if old.is_nan() {
        new.is_nan()
    } else {
        new.to_bits() == old.to_bits()
    }
}

proptest! {
    /// The conditional-add fold in `angle_diff` equals the
    /// `rem_euclid` fold bit for bit, on azimuth-scale and on arbitrary
    /// inputs.
    #[test]
    fn angle_diff_fold_matches_rem_euclid(
        a in -1000.0f64..1000.0,
        b in -1000.0f64..1000.0,
        c in any::<f64>(),
        d in any::<f64>(),
    ) {
        prop_assert!(same_bits(SectorAntenna::angle_diff(a, b), angle_diff_rem_euclid(a, b)));
        prop_assert!(same_bits(SectorAntenna::angle_diff(c, d), angle_diff_rem_euclid(c, d)));
        prop_assert!(same_bits(SectorAntenna::angle_diff(a, d), angle_diff_rem_euclid(a, d)));
    }
}

/// Edge cases of the angle fold: signed zeros, ±180, the ±360 range
/// limits and one ulp inside them, huge and tiny values, infinities and
/// NaN, as every ordered pair.
#[test]
fn angle_diff_fold_matches_rem_euclid_on_edge_cases() {
    let below_360 = f64::from_bits(360f64.to_bits() - 1);
    let vals = [
        0.0,
        -0.0,
        180.0,
        -180.0,
        360.0,
        -360.0,
        below_360,
        -below_360,
        540.0,
        -720.0,
        1e6,
        -1e6,
        5e-324,
        -5e-324,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    for &a in &vals {
        for &b in &vals {
            let (new, old) = (SectorAntenna::angle_diff(a, b), angle_diff_rem_euclid(a, b));
            assert!(same_bits(new, old), "angle_diff({a}, {b}): {new} vs {old}");
        }
    }
    assert!(SectorAntenna::angle_diff(f64::NAN, 0.0).is_nan());
    assert!(SectorAntenna::angle_diff(0.0, f64::NAN).is_nan());
}

/// A 5x5 dense-urban city: 150 NR cells numbered from 60 run into the
/// LTE numbering from 200, so PCIs 200..=209 each name one LTE and one
/// NR cell.
#[expect(clippy::disallowed_types, reason = "a read-only fixture built once")]
fn colliding_city() -> &'static RadioEnv {
    static CITY: std::sync::OnceLock<RadioEnv> = std::sync::OnceLock::new();
    CITY.get_or_init(|| {
        let mut spec = fiveg_geo::CitySpec::dense_urban();
        spec.tiles_x = 5;
        spec.tiles_y = 5;
        let campus = fiveg_geo::generate_city(&spec, &SimRng::new(2020));
        RadioEnv::from_campus(&campus, 0x5eed, 0.5, 0.05)
    })
}

fn same_measurement(a: Option<CellMeasurement>, b: Option<CellMeasurement>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => {
            x.pci == y.pci
                && x.tech == y.tech
                && same_bits(x.rsrp.value(), y.rsrp.value())
                && same_bits(x.rsrq.value(), y.rsrq.value())
                && same_bits(x.sinr.value(), y.sinr.value())
                && same_bits(x.distance_m, y.distance_m)
        }
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Survey, select, materialise on the colliding city: the top cell,
    /// the best cell outside a random outage set and the cell with a
    /// given PCI are each the first matching entry of the sorted
    /// `measure_all_into` list, and every materialised cell equals its
    /// entry, bit for bit.
    #[test]
    fn select_is_the_first_matching_sorted_entry(
        fx in -0.1f64..1.1,
        fy in -0.1f64..1.1,
        nr in any::<bool>(),
        out_cells in prop::collection::vec(0usize..450, 0..60),
        top_out in any::<bool>(),
        serving_cell in 0usize..450,
    ) {
        let e = colliding_city();
        let b = e.map.bounds;
        let ue = fiveg_geo::Point::new(
            b.min.x + fx * (b.max.x - b.min.x),
            b.min.y + fy * (b.max.y - b.min.y),
        );
        let tech = if nr { Tech::Nr } else { Tech::Lte };
        let mut scratch = MeasureScratch::new();
        let sorted = e.measure_all_into(ue, tech, &mut scratch).to_vec();
        let mut survey = Survey::default();
        e.survey_into(ue, tech, &mut scratch, &mut survey);
        let pcis = e.pcis(tech);
        let pick = |k: Option<usize>| k.map(|k| e.materialise(&survey, k));

        let mut outaged: BTreeSet<u16> = out_cells
            .iter()
            .map(|&i| e.cells[i % e.cells.len()].pci)
            .collect();
        if top_out {
            outaged.extend(sorted.first().map(|m| m.pci));
        }
        let serving = e.cells[serving_cell % e.cells.len()].pci;
        let (top, current) = survey.top_and_select(|k| pcis[k] == serving);
        prop_assert!(same_measurement(pick(top), sorted.first().copied()));
        prop_assert!(same_measurement(pick(survey.select(|_| true)), sorted.first().copied()));
        prop_assert!(same_measurement(
            pick(current),
            sorted.iter().find(|m| m.pci == serving).copied()
        ));
        prop_assert!(same_measurement(
            pick(survey.select(|k| !outaged.contains(&pcis[k]))),
            sorted.iter().find(|m| !outaged.contains(&m.pci)).copied()
        ));
        for (k, &pci) in pcis.iter().enumerate() {
            prop_assert!(same_measurement(
                Some(e.materialise(&survey, k)),
                sorted.iter().find(|m| m.pci == pci).copied()
            ));
        }
    }
}
