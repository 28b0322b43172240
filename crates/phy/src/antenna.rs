//! Sectorised base-station antenna pattern.
//!
//! The paper observes (Sec. 3.2, Fig. 2b) that gNBs use "sectionalized
//! antennas with a fan-shaped gain pattern, and hence a narrow FoV" —
//! locations outside a sector's field of view are simply not covered.
//! We use the standard 3GPP horizontal pattern:
//!
//! ```text
//! A(θ) = −min(12·(θ/θ3dB)², A_m)
//! ```
//!
//! with a 65° half-power beamwidth and a 30 dB front-to-back floor.

use serde::Serialize;

/// A horizontal sector antenna pattern.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SectorAntenna {
    /// Boresight azimuth, degrees CCW from east.
    pub azimuth_deg: f64,
    /// Half-power beamwidth, degrees (3GPP default 65°).
    pub beamwidth_deg: f64,
    /// Maximum attenuation (front-to-back ratio), dB.
    pub max_attenuation_db: f64,
}

impl SectorAntenna {
    /// Standard 65° sector pointing at `azimuth_deg`.
    pub fn standard(azimuth_deg: f64) -> Self {
        SectorAntenna {
            azimuth_deg,
            beamwidth_deg: 65.0,
            max_attenuation_db: 30.0,
        }
    }

    /// Effective pattern of an NR massive-MIMO panel whose SSB beams
    /// sweep across the sector: the envelope over the swept beams is much
    /// wider than a single beam (≈100°) with a softer floor, because some
    /// beam always points near the UE within the sector's field of view.
    pub fn nr_sweeping(azimuth_deg: f64) -> Self {
        SectorAntenna {
            azimuth_deg,
            beamwidth_deg: 100.0,
            max_attenuation_db: 14.0,
        }
    }

    /// Smallest absolute angular difference between two azimuths, degrees
    /// in `[0, 180]`.
    pub fn angle_diff(a: f64, b: f64) -> f64 {
        // Inside (-360, 360) `rem_euclid(360.0)` reduces to one
        // conditional add (its fmod returns the input unchanged there);
        // keep the libm call only for the rare far-out input.
        let x = a - b;
        let d = if x.abs() < 360.0 {
            if x < 0.0 {
                x + 360.0
            } else {
                x
            }
        } else {
            x.rem_euclid(360.0)
        };
        if d > 180.0 {
            360.0 - d
        } else {
            d
        }
    }

    /// Pattern attenuation (≥ 0 dB) towards the given azimuth.
    pub fn attenuation_db(&self, towards_deg: f64) -> f64 {
        let theta = Self::angle_diff(towards_deg, self.azimuth_deg);
        (12.0 * (theta / self.beamwidth_deg).powi(2)).min(self.max_attenuation_db)
    }
}

/// Vertical (elevation) pattern with electrical downtilt.
///
/// Macro masts tilt their main lobe a few degrees below the horizon; a UE
/// standing near the mast foot sits far above the lobe and sees heavy
/// attenuation, which is why measured RSRP right under a site is *not*
/// the strongest on the map.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct VerticalPattern {
    /// Downtilt below the horizon, degrees (positive = down).
    pub tilt_deg: f64,
    /// Vertical half-power beamwidth, degrees.
    pub beamwidth_deg: f64,
    /// Maximum vertical attenuation, dB.
    pub max_attenuation_db: f64,
}

impl VerticalPattern {
    /// Typical macro-site pattern: 7° tilt, 10° beamwidth, 18 dB floor.
    pub fn macro_default() -> Self {
        VerticalPattern {
            tilt_deg: 7.0,
            beamwidth_deg: 10.0,
            max_attenuation_db: 18.0,
        }
    }

    /// Attenuation towards a UE at ground distance `d2d_m` from a mast of
    /// height `mast_m` (UE at 1.5 m).
    pub fn attenuation_db(&self, d2d_m: f64, mast_m: f64) -> f64 {
        let depression_deg = ((mast_m - 1.5) / d2d_m.max(1.0)).atan().to_degrees();
        let off = depression_deg - self.tilt_deg;
        (12.0 * (off / self.beamwidth_deg).powi(2)).min(self.max_attenuation_db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertical_pattern_punishes_mast_foot() {
        let v = VerticalPattern::macro_default();
        let near = v.attenuation_db(20.0, 25.0);
        let mid = v.attenuation_db(150.0, 25.0);
        let far = v.attenuation_db(500.0, 25.0);
        assert_eq!(near, 18.0, "mast foot capped");
        assert!(mid < 3.0, "main lobe region {mid}");
        assert!(far < 3.0, "far field {far}");
    }

    #[test]
    fn vertical_minimum_near_boresight_distance() {
        let v = VerticalPattern::macro_default();
        // Boresight hits the ground at (25-1.5)/tan(7°) ≈ 191 m.
        let bore = v.attenuation_db(191.0, 25.0);
        assert!(bore < 0.01, "{bore}");
    }

    #[test]
    fn boresight_has_no_attenuation() {
        let a = SectorAntenna::standard(90.0);
        assert_eq!(a.attenuation_db(90.0), 0.0);
    }

    #[test]
    fn half_power_at_half_beamwidth() {
        let a = SectorAntenna::standard(0.0);
        // At θ = θ3dB/2 the pattern gives 12·(0.5)² = 3 dB.
        assert!((a.attenuation_db(32.5) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn back_lobe_capped() {
        let a = SectorAntenna::standard(0.0);
        assert_eq!(a.attenuation_db(180.0), 30.0);
        assert_eq!(a.attenuation_db(120.0), 30.0);
    }

    #[test]
    fn wraparound_angles() {
        assert_eq!(SectorAntenna::angle_diff(350.0, 10.0), 20.0);
        assert_eq!(SectorAntenna::angle_diff(10.0, 350.0), 20.0);
        assert_eq!(SectorAntenna::angle_diff(0.0, 180.0), 180.0);
        let a = SectorAntenna::standard(350.0);
        assert!((a.attenuation_db(10.0) - 12.0 * (20.0f64 / 65.0).powi(2)).abs() < 1e-9);
    }

    #[test]
    fn attenuation_monotonic_within_front() {
        let a = SectorAntenna::standard(0.0);
        let mut prev = -1.0;
        for deg in 0..=90 {
            let v = a.attenuation_db(deg as f64);
            assert!(v >= prev, "not monotonic at {deg}");
            prev = v;
        }
    }
}
