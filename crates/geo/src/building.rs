//! Building footprints and wall materials.
//!
//! The paper ascribes the 5G indoor bit-rate collapse (Fig. 3) to
//! penetration loss through brick-and-concrete walls, and notes that
//! drywall/wood construction would fare better (citing channel-sounding
//! work at 2.4 GHz). We model each building as an axis-aligned footprint
//! with a single wall material; the per-wall, per-frequency loss table
//! lives in `fiveg-phy`, this module only reports *what* a ray crosses.

use crate::point::{Point, Rect, Segment};
use serde::Serialize;

/// Exterior wall construction material.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Material {
    /// Brick walls — the dominant campus material in the paper.
    Brick,
    /// Reinforced concrete — heaviest loss.
    Concrete,
    /// Drywall / plasterboard — light loss.
    Drywall,
    /// Wood construction — light loss.
    Wood,
    /// Glass curtain wall.
    Glass,
}

impl Material {
    /// All materials, for sweeps and property tests.
    pub const ALL: [Material; 5] = [
        Material::Brick,
        Material::Concrete,
        Material::Drywall,
        Material::Wood,
        Material::Glass,
    ];
}

/// A building with a rectangular footprint.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Building {
    /// Footprint rectangle.
    pub footprint: Rect,
    /// Exterior wall material.
    pub material: Material,
    /// Roof height in metres (used for documentation/3-D extensions; the
    /// 2-D propagation model treats any crossing as blocked).
    pub height: f64,
}

impl Building {
    /// Constructs a building.
    pub fn new(footprint: Rect, material: Material, height: f64) -> Self {
        Building {
            footprint,
            material,
            height,
        }
    }

    /// Whether `p` is indoors (inside or on the footprint boundary).
    pub fn contains(&self, p: Point) -> bool {
        self.footprint.contains(p)
    }

    /// Number of exterior walls the ray `seg` crosses.
    pub fn wall_crossings(&self, seg: Segment) -> usize {
        self.footprint.crossings(seg)
    }

    /// `self.wall_crossings(seg) > 0`, stopping at the first crossed
    /// wall.
    pub fn crosses_walls(&self, seg: Segment) -> bool {
        self.footprint.is_crossed_by(seg)
    }

    /// Whether the ray touches the building at all (blocks line of sight).
    #[cfg(test)]
    pub(crate) fn blocks(&self, seg: Segment) -> bool {
        self.footprint.intersects_segment(seg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn building(x: f64, y: f64, w: f64, h: f64) -> Building {
        Building::new(
            Rect::from_origin_size(Point::new(x, y), w, h),
            Material::Brick,
            15.0,
        )
    }

    #[test]
    fn ray_through_building_crosses_two_walls() {
        let b = building(10.0, 10.0, 10.0, 10.0);
        let ray = Segment::new(Point::new(0.0, 15.0), Point::new(40.0, 15.0));
        assert!(b.blocks(ray));
        assert!(b.crosses_walls(ray));
        assert_eq!(b.wall_crossings(ray), 2);
    }

    #[test]
    fn ray_into_building_crosses_one_wall() {
        let b = building(10.0, 10.0, 10.0, 10.0);
        let ray = Segment::new(Point::new(0.0, 15.0), Point::new(15.0, 15.0));
        assert!(b.contains(ray.b));
        assert_eq!(b.wall_crossings(ray), 1);
    }

    #[test]
    fn clear_ray_is_los() {
        let b = building(10.0, 10.0, 10.0, 10.0);
        let ray = Segment::new(Point::new(0.0, 0.0), Point::new(40.0, 0.0));
        assert!(!b.blocks(ray));
        assert!(!b.crosses_walls(ray));
        assert_eq!(b.wall_crossings(ray), 0);
    }

    #[test]
    fn fully_indoor_ray_not_los_but_no_walls() {
        let b = building(0.0, 0.0, 20.0, 20.0);
        let ray = Segment::new(Point::new(5.0, 5.0), Point::new(6.0, 6.0));
        assert!(b.blocks(ray));
        assert!(!b.crosses_walls(ray));
        assert_eq!(b.wall_crossings(ray), 0);
    }

    #[test]
    fn multiple_buildings_accumulate() {
        let b1 = building(10.0, 0.0, 5.0, 30.0);
        let b2 = building(30.0, 0.0, 5.0, 30.0);
        let ray = Segment::new(Point::new(0.0, 15.0), Point::new(50.0, 15.0));
        assert!(b1.blocks(ray) && b2.blocks(ray));
        assert_eq!(b1.wall_crossings(ray) + b2.wall_crossings(ray), 4);
    }
}
