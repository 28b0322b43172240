//! Building footprints and wall materials.
//!
//! The paper ascribes the 5G indoor bit-rate collapse (Fig. 3) to
//! penetration loss through brick-and-concrete walls, and notes that
//! drywall/wood construction would fare better (citing channel-sounding
//! work at 2.4 GHz). We model each building as an axis-aligned footprint
//! with a single wall material; the per-wall, per-frequency loss table
//! lives in `fiveg-phy`, this module only reports *what* a ray crosses.

use crate::point::{Point, Rect, Segment};
use serde::{Deserialize, Serialize};

/// Exterior wall construction material.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
    pub fn blocks(&self, seg: Segment) -> bool {
        self.footprint.intersects_segment(seg)
    }
}

/// Result of tracing a ray through a set of buildings.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RayObstruction {
    /// `(material, walls crossed)` per obstructing building.
    pub crossings: Vec<(Material, usize)>,
}

impl RayObstruction {
    /// Whether the ray is completely unobstructed.
    pub fn is_los(&self) -> bool {
        self.crossings.is_empty()
    }

    /// Total number of walls crossed, across all buildings.
    pub fn total_walls(&self) -> usize {
        self.crossings.iter().map(|&(_, n)| n).sum()
    }
}

/// Traces `seg` through `buildings`, collecting the walls it crosses.
///
/// A building that contains an endpoint contributes its crossings too —
/// e.g. a receiver indoors behind one exterior wall yields one crossing.
pub fn trace_ray(buildings: &[Building], seg: Segment) -> RayObstruction {
    let mut out = RayObstruction::default();
    for b in buildings {
        let n = b.wall_crossings(seg);
        if n > 0 {
            out.crossings.push((b.material, n));
        } else if b.contains(seg.a) && b.contains(seg.b) {
            // Entirely indoors within one building: no exterior wall, but
            // record the building so LoS is correctly reported false.
            out.crossings.push((b.material, 0));
        }
    }
    out
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
        let obs = trace_ray(&[b], ray);
        assert!(!obs.is_los());
        assert_eq!(obs.total_walls(), 2);
    }

    #[test]
    fn ray_into_building_crosses_one_wall() {
        let b = building(10.0, 10.0, 10.0, 10.0);
        let ray = Segment::new(Point::new(0.0, 15.0), Point::new(15.0, 15.0));
        let obs = trace_ray(&[b], ray);
        assert_eq!(obs.total_walls(), 1);
        assert_eq!(obs.crossings[0].0, Material::Brick);
    }

    #[test]
    fn clear_ray_is_los() {
        let b = building(10.0, 10.0, 10.0, 10.0);
        let ray = Segment::new(Point::new(0.0, 0.0), Point::new(40.0, 0.0));
        assert!(trace_ray(&[b], ray).is_los());
    }

    #[test]
    fn fully_indoor_ray_not_los_but_no_walls() {
        let b = building(0.0, 0.0, 20.0, 20.0);
        let ray = Segment::new(Point::new(5.0, 5.0), Point::new(6.0, 6.0));
        let obs = trace_ray(&[b], ray);
        assert!(!obs.is_los());
        assert_eq!(obs.total_walls(), 0);
    }

    #[test]
    fn multiple_buildings_accumulate() {
        let b1 = building(10.0, 0.0, 5.0, 30.0);
        let b2 = building(30.0, 0.0, 5.0, 30.0);
        let ray = Segment::new(Point::new(0.0, 15.0), Point::new(50.0, 15.0));
        let obs = trace_ray(&[b1, b2], ray);
        assert_eq!(obs.crossings.len(), 2);
        assert_eq!(obs.total_walls(), 4);
    }
}
