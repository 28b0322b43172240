//! Building penetration loss.
//!
//! Per-wall loss as a function of material and carrier frequency. The
//! paper attributes the 5G indoor bit-rate collapse (−50.6 % vs −20.4 %
//! for 4G, Fig. 3) to the brick/concrete campus walls penalising 3.5 GHz
//! far more than 1.85 GHz, and points to channel-sounding literature for
//! lighter materials. We model loss per exterior wall as a base value at
//! 1 GHz plus a linear frequency slope, with coefficients in the range
//! reported by measurement studies (e.g. ITU-R P.2040, Rodriguez et al.
//! GLOBECOM'13 at 3.5 vs 1.9 GHz).
//!
//! [`RadioEnv`](crate::env::RadioEnv) adds this loss only for the
//! exterior walls of an indoor UE's own building. Buildings between the
//! site and the UE switch the path loss to its NLoS branch instead of
//! summing their walls, since the diffracted path around them dominates.

use fiveg_geo::Material;
use fiveg_simcore::{Db, Frequency};

/// Loss of one exterior wall of the given material at frequency `f`.
pub fn wall_loss(material: Material, f: Frequency) -> Db {
    // (base dB at 1 GHz, dB per GHz slope)
    let (base, slope) = match material {
        Material::Brick => (5.0, 2.6),
        Material::Concrete => (9.0, 4.0),
        Material::Drywall => (1.5, 0.5),
        Material::Wood => (2.0, 0.8),
        Material::Glass => (2.5, 1.1),
    };
    Db::new(base + slope * f.ghz())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f5g() -> Frequency {
        Frequency::from_mhz(3550.0)
    }
    fn f4g() -> Frequency {
        Frequency::from_mhz(1850.0)
    }

    #[test]
    fn higher_frequency_loses_more() {
        for m in Material::ALL {
            assert!(
                wall_loss(m, f5g()).value() > wall_loss(m, f4g()).value(),
                "{m:?}"
            );
        }
    }

    #[test]
    fn concrete_heavier_than_brick_heavier_than_drywall() {
        let f = f5g();
        assert!(wall_loss(Material::Concrete, f).value() > wall_loss(Material::Brick, f).value());
        assert!(wall_loss(Material::Brick, f).value() > wall_loss(Material::Wood, f).value());
        assert!(wall_loss(Material::Wood, f).value() > wall_loss(Material::Drywall, f).value());
    }

    #[test]
    fn paper_scale_brick_loss() {
        // Brick at 3.5 GHz should be roughly 12–16 dB (sounding studies);
        // at 1.85 GHz roughly 8–11 dB.
        let b5 = wall_loss(Material::Brick, f5g()).value();
        let b4 = wall_loss(Material::Brick, f4g()).value();
        assert!((12.0..17.0).contains(&b5), "{b5}");
        assert!((8.0..12.0).contains(&b4), "{b4}");
    }
}
