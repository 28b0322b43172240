//! The campus map: bounds, buildings and roads, with the spatial queries
//! the propagation model needs — the indoor test, the buildings holding a
//! point and an early-exit scan along a ray. Every map carries its spatial
//! index ([`MapIndex`], built by [`CampusMap::new`]), so each query visits
//! only the candidate buildings the index yields.

use crate::building::Building;
use crate::index::SpatialIndex;
use crate::point::{Point, Rect, Segment};
use crate::tiled::TiledSpatialIndex;
use serde::Serialize;
use std::sync::Arc;

/// Building count at which [`MapIndex::build`] switches from the flat
/// uniform grid to the tiled index. The paper campus (≤48 buildings)
/// stays flat: its single grid lookup is the faster form there (forced
/// tiled, the quick campaign ran at about 0.9× the throughput with
/// byte-identical outputs). Generated cities go tiled, where empty tiles
/// cost nothing instead of a grid cell each.
pub const TILED_INDEX_THRESHOLD: usize = 256;

/// The spatial acceleration structure behind a [`CampusMap`]: the flat
/// uniform grid for campus-sized maps, the hierarchical tiled index
/// for city-sized ones. Both forms share the conservative,
/// ascending-candidate query contract, so callers never branch on the
/// variant.
#[derive(Debug, Clone)]
pub enum MapIndex {
    /// Flat uniform grid with per-cell candidate lists
    /// ([`SpatialIndex`]).
    Flat(SpatialIndex),
    /// Tile directory over per-tile grids ([`TiledSpatialIndex`]).
    Tiled(TiledSpatialIndex),
}

impl MapIndex {
    /// Builds the right index form for `buildings` (see
    /// [`TILED_INDEX_THRESHOLD`]). Selection is a pure function of the
    /// building count, so a given map always gets the same index.
    pub fn build(bounds: Rect, buildings: &[Building]) -> MapIndex {
        if buildings.len() >= TILED_INDEX_THRESHOLD {
            MapIndex::Tiled(TiledSpatialIndex::build(bounds, buildings))
        } else {
            MapIndex::Flat(SpatialIndex::build(bounds, buildings))
        }
    }

    /// Whether this is the tiled form.
    #[cfg(test)]
    pub(crate) fn is_tiled(&self) -> bool {
        matches!(self, MapIndex::Tiled(_))
    }

    /// Building indices whose footprint may contain `p` (ascending).
    pub fn candidates_point(&self, p: Point) -> &[u32] {
        match self {
            MapIndex::Flat(i) => i.candidates_point(p),
            MapIndex::Tiled(i) => i.candidates_point(p),
        }
    }

    /// Existence scan along `seg` (duplicates possible); stops when
    /// `test` returns `true` and returns whether it did.
    pub fn scan_segment_until(&self, seg: Segment, test: impl FnMut(u32) -> bool) -> bool {
        match self {
            MapIndex::Flat(i) => i.scan_segment_until(seg, test),
            MapIndex::Tiled(i) => i.scan_segment_until(seg, test),
        }
    }
}

/// A road represented as a polyline of waypoints.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Road {
    /// Waypoints along the road centreline, in walk order.
    pub waypoints: Vec<Point>,
}

impl Road {
    /// Constructs a road; needs at least two waypoints.
    pub fn new(waypoints: Vec<Point>) -> Self {
        assert!(waypoints.len() >= 2, "a road needs at least two waypoints");
        Road { waypoints }
    }

    /// Total centreline length, metres.
    pub fn length(&self) -> f64 {
        self.waypoints.windows(2).map(|w| w[0].distance(w[1])).sum()
    }

    /// Position at arc-length `s` from the start (clamped to the ends).
    pub fn at_distance(&self, s: f64) -> Point {
        if s <= 0.0 {
            return self.waypoints[0];
        }
        let mut remaining = s;
        let mut last = self.waypoints[0];
        for w in self.waypoints.windows(2) {
            let seg_len = w[0].distance(w[1]);
            if remaining <= seg_len {
                let t = if seg_len > 0.0 {
                    remaining / seg_len
                } else {
                    0.0
                };
                return w[0].lerp(w[1], t);
            }
            remaining -= seg_len;
            last = w[1];
        }
        last
    }
}

/// The full campus map.
#[derive(Debug, Clone)]
pub struct CampusMap {
    /// Campus bounding rectangle.
    pub bounds: Rect,
    /// Building footprints.
    pub buildings: Vec<Building>,
    /// Road network.
    pub roads: Vec<Road>,
    /// Spatial acceleration structure over `buildings` (flat or tiled,
    /// auto-selected by [`MapIndex::build`]), shared by clones. Derived
    /// data: the manual [`Serialize`] impl below leaves it out.
    index: Arc<MapIndex>,
}

/// Manual impl (instead of derive) so the derived-data `index` field
/// stays out of the artifact bytes — the vendored serde derive has no
/// `#[serde(skip)]`.
impl Serialize for CampusMap {
    fn serialize(&self, s: &mut serde::Serializer) {
        let mut map = s.map();
        map.entry("bounds", &self.bounds);
        map.entry("buildings", &self.buildings);
        map.entry("roads", &self.roads);
        map.end();
    }
}

impl CampusMap {
    /// Constructs a map and its spatial index.
    pub fn new(bounds: Rect, buildings: Vec<Building>, roads: Vec<Road>) -> Self {
        let index = Arc::new(MapIndex::build(bounds, &buildings));
        CampusMap {
            bounds,
            buildings,
            roads,
            index,
        }
    }

    /// The spatial index.
    #[cfg(test)]
    pub(crate) fn spatial_index(&self) -> &MapIndex {
        &self.index
    }

    /// Number of `u64` words in a bitmap with one bit per building.
    pub fn mask_words(&self) -> usize {
        self.buildings.len().div_ceil(64).max(1)
    }

    /// Whether `p` is indoors (inside any building footprint).
    pub fn is_indoor(&self, p: Point) -> bool {
        self.index
            .candidates_point(p)
            .iter()
            .any(|&bi| self.buildings[bi as usize].contains(p))
    }

    /// Existence scan along `seg` (see
    /// [`SpatialIndex::scan_segment_until`]): streams candidate indices
    /// to `test` (duplicates possible) until it returns `true`; the
    /// return value says whether it did. Candidates are conservative, so
    /// `test` re-tests each one exactly.
    pub fn ray_scan_until(&self, seg: Segment, test: impl FnMut(u32) -> bool) -> bool {
        self.index.scan_segment_until(seg, test)
    }

    /// Collects (ascending) the indices of every building containing
    /// `p` into `out`, reusing it as scratch.
    pub fn buildings_containing_into(&self, p: Point, out: &mut Vec<u32>) {
        out.clear();
        out.extend(
            self.index
                .candidates_point(p)
                .iter()
                .copied()
                .filter(|&bi| self.buildings[bi as usize].contains(p)),
        );
    }

    /// Total road length, metres.
    #[cfg(test)]
    pub(crate) fn total_road_length(&self) -> f64 {
        self.roads.iter().map(Road::length).sum()
    }

    /// Uniform grid of sample points over the bounds with spacing `step`,
    /// optionally restricted to outdoor locations.
    pub fn grid_samples(&self, step: f64, outdoor_only: bool) -> Vec<Point> {
        assert!(step > 0.0, "grid step must be positive");
        let mut out = Vec::new();
        let mut y = self.bounds.min.y + step / 2.0;
        while y < self.bounds.max.y {
            let mut x = self.bounds.min.x + step / 2.0;
            while x < self.bounds.max.x {
                let p = Point::new(x, y);
                if !outdoor_only || !self.is_indoor(p) {
                    out.push(p);
                }
                x += step;
            }
            y += step;
        }
        out
    }

    /// Campus area, square kilometres.
    pub fn area_km2(&self) -> f64 {
        self.bounds.area() / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::building::Material;
    use crate::city::{generate_city, CitySpec};
    use fiveg_simcore::SimRng;

    fn simple_map() -> CampusMap {
        let bounds = Rect::from_origin_size(Point::new(0.0, 0.0), 100.0, 100.0);
        let b = Building::new(
            Rect::from_origin_size(Point::new(40.0, 40.0), 20.0, 20.0),
            Material::Concrete,
            20.0,
        );
        let road = Road::new(vec![
            Point::new(0.0, 10.0),
            Point::new(100.0, 10.0),
            Point::new(100.0, 90.0),
        ]);
        CampusMap::new(bounds, vec![b], vec![road])
    }

    /// Whether any building blocks the ray, through the index.
    fn blocked(m: &CampusMap, seg: Segment) -> bool {
        m.ray_scan_until(seg, |bi| m.buildings[bi as usize].blocks(seg))
    }

    #[test]
    fn indoor_detection() {
        let m = simple_map();
        assert!(m.is_indoor(Point::new(50.0, 50.0)));
        assert!(!m.is_indoor(Point::new(10.0, 10.0)));
    }

    #[test]
    fn los_blocked_by_building() {
        let m = simple_map();
        assert!(blocked(
            &m,
            Segment::new(Point::new(30.0, 50.0), Point::new(70.0, 50.0))
        ));
        assert!(!blocked(
            &m,
            Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0))
        ));
    }

    #[test]
    fn road_geometry() {
        let m = simple_map();
        assert!((m.total_road_length() - 180.0).abs() < 1e-9);
        let r = &m.roads[0];
        assert_eq!(r.at_distance(0.0), Point::new(0.0, 10.0));
        assert_eq!(r.at_distance(50.0), Point::new(50.0, 10.0));
        assert_eq!(r.at_distance(150.0), Point::new(100.0, 60.0));
        assert_eq!(r.at_distance(1e9), Point::new(100.0, 90.0));
    }

    #[test]
    fn grid_sampling_excludes_indoor() {
        let m = simple_map();
        let all = m.grid_samples(10.0, false);
        let outdoor = m.grid_samples(10.0, true);
        assert_eq!(all.len(), 100);
        assert!(outdoor.len() < all.len());
        assert!(outdoor.iter().all(|&p| !m.is_indoor(p)));
    }

    #[test]
    fn area() {
        let m = simple_map();
        assert!((m.area_km2() - 0.01).abs() < 1e-12);
    }

    /// Every indexed query agrees with a full scan over the buildings,
    /// on the flat index (one-building map) and on the tiled index (a
    /// generated city past [`TILED_INDEX_THRESHOLD`], whole and with
    /// index tile (1, 1) emptied, so rays hop an empty tile).
    #[test]
    fn indexed_queries_match_full_scan() {
        let city = generate_city(
            &CitySpec {
                tiles_x: 3,
                tiles_y: 3,
                ..CitySpec::dense_urban()
            },
            &SimRng::new(2020),
        )
        .map;
        assert!(city.buildings.len() >= TILED_INDEX_THRESHOLD);
        let tile_m = crate::tiled::TILE_CELLS as f64 * crate::index::CELL_M;
        let lo = city.bounds.min + Point::new(tile_m, tile_m);
        let hi = lo + Point::new(tile_m, tile_m);
        let outside =
            |r: Rect| r.max.x < lo.x || r.max.y < lo.y || r.min.x > hi.x || r.min.y > hi.y;
        let kept: Vec<Building> = city
            .buildings
            .iter()
            .filter(|b| outside(b.footprint.inflate(1.0)))
            .copied()
            .collect();
        assert!(kept.len() < city.buildings.len() && kept.len() >= TILED_INDEX_THRESHOLD);
        let holed = CampusMap::new(city.bounds, kept, Vec::new());
        for (m, tiled) in [(simple_map(), false), (city, true), (holed, true)] {
            assert_eq!(m.spatial_index().is_tiled(), tiled);
            let (w, h) = (m.bounds.width(), m.bounds.height());
            // Rays and points run a little past the bounds so the
            // out-of-grid paths are covered too.
            let at = |u: f64, v: f64| {
                Point::new(
                    m.bounds.min.x - 20.0 + (u % 1.0) * (w + 40.0),
                    m.bounds.min.y - 20.0 + (v % 1.0) * (h + 40.0),
                )
            };
            let (mut hits, mut indoor, mut blocking) = (Vec::new(), 0, 0);
            for k in 0..600u32 {
                let f = f64::from(k);
                let a = at(f * 0.0731, f * 0.1373);
                // Long rays across the map alternate with short ones
                // (up to 30 m each way), which often see the sky.
                let b = if k % 2 == 0 {
                    at(f * 0.3119 + 0.5, f * 0.0397 + 0.25)
                } else {
                    a + Point::new((f * 0.61 % 1.0 - 0.5) * 60.0, (f * 0.27 % 1.0 - 0.5) * 60.0)
                };
                let containing: Vec<u32> = (0..m.buildings.len() as u32)
                    .filter(|&bi| m.buildings[bi as usize].contains(a))
                    .collect();
                m.buildings_containing_into(a, &mut hits);
                assert_eq!(hits, containing, "{a:?}");
                assert_eq!(m.is_indoor(a), !containing.is_empty(), "{a:?}");
                indoor += usize::from(!containing.is_empty());
                let seg = Segment::new(a, b);
                let full = m.buildings.iter().any(|bl| bl.blocks(seg));
                assert_eq!(blocked(&m, seg), full, "{a:?} -> {b:?}");
                blocking += usize::from(full);
                // With a test that never fires, the scan visits every
                // building the ray touches.
                let mut seen = Vec::new();
                assert!(!m.ray_scan_until(seg, |bi| {
                    seen.push(bi);
                    false
                }));
                for (bi, bl) in m.buildings.iter().enumerate() {
                    if bl.blocks(seg) {
                        assert!(seen.contains(&(bi as u32)), "{a:?} -> {b:?}: {bi}");
                    }
                }
            }
            // Both outcomes of each query occur, so no side is vacuous.
            assert!(indoor > 0 && indoor < 600, "{indoor} of 600 indoor");
            assert!(blocking > 0 && blocking < 600, "{blocking} of 600 blocked");
        }
    }
}
