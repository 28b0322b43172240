//! A physical transmitter: one sector of a base-station site.

use crate::antenna::{SectorAntenna, VerticalPattern};
use crate::carrier::{Carrier, Tech};
use fiveg_geo::Point;
use serde::Serialize;

/// One cell (sector) at the physical layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CellPhy {
    /// Physical cell identifier, as reported by the modem diagnostics.
    pub pci: u16,
    /// Carrier configuration.
    pub carrier: Carrier,
    /// Mast position, metres.
    pub pos: Point,
    /// Mast height above ground, metres.
    pub height_m: f64,
    /// Sector antenna.
    pub antenna: SectorAntenna,
    /// Vertical (downtilt) pattern.
    pub vertical: VerticalPattern,
    /// Downlink activity factor in `[0, 1]`: the probability the cell is
    /// transmitting on a given resource element, which scales the
    /// interference it causes to neighbours (busy-hour ≈ high for 4G,
    /// very low for the lightly-used early-deployment 5G).
    pub load: f64,
}

impl CellPhy {
    /// Technology of this cell.
    pub fn tech(&self) -> Tech {
        self.carrier.tech
    }

    /// 3-D distance from the mast to a UE at ground level + 1.5 m.
    pub fn distance_3d(&self, ue: Point) -> f64 {
        let d2 = self.pos.distance(ue);
        let dh = self.height_m - 1.5;
        (d2 * d2 + dh * dh).sqrt()
    }

    /// Antenna attenuation towards the UE, dB: the reference loss's
    /// term (the fast path takes the azimuth from its site ray).
    #[cfg(test)]
    pub(crate) fn antenna_attenuation_db(&self, ue: Point) -> f64 {
        // A UE standing at the mast foot sees the pattern's downtilt
        // region; treat it as boresight (no horizontal attenuation).
        if self.pos.distance(ue) < 1.0 {
            return 0.0;
        }
        self.antenna.attenuation_db(self.pos.azimuth_to(ue))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell() -> CellPhy {
        CellPhy {
            pci: 72,
            carrier: Carrier::nr_n78(),
            pos: Point::new(100.0, 100.0),
            height_m: 25.0,
            antenna: SectorAntenna::standard(0.0),
            vertical: VerticalPattern::macro_default(),
            load: 0.1,
        }
    }

    #[test]
    fn distance_includes_height() {
        let c = cell();
        let d = c.distance_3d(Point::new(100.0, 100.0));
        assert!((d - 23.5).abs() < 1e-9);
        let far = c.distance_3d(Point::new(400.0, 100.0));
        assert!(far > 300.0 && far < 301.0);
    }

    #[test]
    fn antenna_attenuation_depends_on_direction() {
        let c = cell();
        // UE due east (boresight).
        assert_eq!(c.antenna_attenuation_db(Point::new(300.0, 100.0)), 0.0);
        // UE due west (back lobe).
        assert_eq!(c.antenna_attenuation_db(Point::new(0.0, 100.0)), 30.0);
        // UE at the mast: no horizontal attenuation.
        assert_eq!(c.antenna_attenuation_db(Point::new(100.0, 100.0)), 0.0);
    }
}
