//! The campus map: bounds, buildings and roads, with the spatial queries
//! the propagation model needs (line of sight, indoor test, ray tracing).

use crate::building::{trace_ray, Building, RayObstruction};
use crate::index::SpatialIndex;
use crate::point::{Point, Rect, Segment};
use crate::tiled::TiledSpatialIndex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Building count at which [`MapIndex::build`] switches from the flat
/// uniform grid to the tiled index. The paper campus (≤48 buildings)
/// always stays flat — so every committed golden keeps its exact
/// index — while generated cities go tiled and avoid the flat form's
/// O(cells × buildings) bitmap memory.
pub const TILED_INDEX_THRESHOLD: usize = 256;

/// The spatial acceleration structure behind a [`CampusMap`]: the flat
/// uniform grid for campus-sized maps, the hierarchical tiled index
/// for city-sized ones. Both forms share the conservative,
/// ascending-candidate query contract, so callers never branch on the
/// variant.
#[derive(Debug, Clone)]
pub enum MapIndex {
    /// Flat uniform grid with per-cell candidate bitmaps
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
    pub fn is_tiled(&self) -> bool {
        matches!(self, MapIndex::Tiled(_))
    }

    /// Number of `u64` words in a candidate bitmap.
    pub fn mask_words(&self) -> usize {
        match self {
            MapIndex::Flat(i) => i.mask_words(),
            MapIndex::Tiled(i) => i.mask_words(),
        }
    }

    /// Building indices whose footprint may contain `p` (ascending).
    pub fn candidates_point(&self, p: Point) -> &[u32] {
        match self {
            MapIndex::Flat(i) => i.candidates_point(p),
            MapIndex::Tiled(i) => i.candidates_point(p),
        }
    }

    /// Conservative segment candidates, ascending and deduplicated.
    pub fn candidates_segment(&self, seg: Segment, out: &mut Vec<u32>) {
        match self {
            MapIndex::Flat(i) => i.candidates_segment(seg, out),
            MapIndex::Tiled(i) => i.candidates_segment(seg, out),
        }
    }

    /// Bitmap form of [`MapIndex::candidates_segment`].
    pub fn candidates_segment_mask(&self, seg: Segment, words: &mut Vec<u64>) {
        match self {
            MapIndex::Flat(i) => i.candidates_segment_mask(seg, words),
            MapIndex::Tiled(i) => i.candidates_segment_mask(seg, words),
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// auto-selected by [`MapIndex::build`]). Derived data, excluded
    /// from serialization (the manual [`Serialize`] impl below writes
    /// only the three geometry fields); a map without an index answers
    /// every query by full scan until [`CampusMap::ensure_index`]
    /// rebuilds it.
    index: Option<Arc<MapIndex>>,
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

impl<'de> Deserialize<'de> for CampusMap {}

impl CampusMap {
    /// Constructs a map (and its spatial index).
    pub fn new(bounds: Rect, buildings: Vec<Building>, roads: Vec<Road>) -> Self {
        let index = Some(Arc::new(MapIndex::build(bounds, &buildings)));
        CampusMap {
            bounds,
            buildings,
            roads,
            index,
        }
    }

    /// The spatial index, if built. `None` only for maps freshly
    /// deserialized (the index is derived data and not serialized).
    pub fn spatial_index(&self) -> Option<&MapIndex> {
        self.index.as_deref()
    }

    /// Rebuilds the spatial index if absent (after deserialization).
    pub fn ensure_index(&mut self) {
        if self.index.is_none() {
            self.index = Some(Arc::new(MapIndex::build(self.bounds, &self.buildings)));
        }
    }

    /// Number of `u64` words in a candidate bitmap for this map; the
    /// full-scan fallback value when no index is built.
    pub fn mask_words(&self) -> usize {
        self.index.as_ref().map_or_else(
            || self.buildings.len().div_ceil(64).max(1),
            |i| i.mask_words(),
        )
    }

    /// Whether `p` is indoors (inside any building footprint).
    pub fn is_indoor(&self, p: Point) -> bool {
        match &self.index {
            Some(idx) => idx
                .candidates_point(p)
                .iter()
                .any(|&bi| self.buildings[bi as usize].contains(p)),
            None => self.buildings.iter().any(|b| b.contains(p)),
        }
    }

    /// Whether a straight ray from `a` to `b` is line-of-sight (touches no
    /// building).
    pub fn has_los(&self, a: Point, b: Point) -> bool {
        let seg = Segment::new(a, b);
        match &self.index {
            Some(idx) => {
                // Existence query: the scan stops at the first
                // obstruction instead of collecting all candidates.
                !idx.scan_segment_until(seg, |bi| self.buildings[bi as usize].blocks(seg))
            }
            None => !self.buildings.iter().any(|bl| bl.blocks(seg)),
        }
    }

    /// Traces the ray from `a` to `b`, reporting every wall crossed with
    /// its material. Drives the penetration/diffraction loss model.
    pub fn trace(&self, a: Point, b: Point) -> RayObstruction {
        let seg = Segment::new(a, b);
        match &self.index {
            Some(idx) => {
                let mut cand = Vec::new();
                idx.candidates_segment(seg, &mut cand);
                let mut out = RayObstruction::default();
                // Candidates come out ascending, so the report is in the
                // same building order as the full scan.
                for &bi in &cand {
                    let b = &self.buildings[bi as usize];
                    let n = b.wall_crossings(seg);
                    if n > 0 {
                        out.crossings.push((b.material, n));
                    } else if b.contains(seg.a) && b.contains(seg.b) {
                        out.crossings.push((b.material, 0));
                    }
                }
                out
            }
            None => trace_ray(&self.buildings, seg),
        }
    }

    /// Visits every building that might touch `seg`, in ascending
    /// building-index order, reusing `cand` as candidate scratch so the
    /// query allocates nothing at steady state. Returns the number of
    /// buildings visited (callers derive "pruned" from the total).
    ///
    /// The candidate set is conservative: visited buildings may miss the
    /// segment (re-test in `f`), but no intersecting building is skipped.
    pub fn for_buildings_near_segment(
        &self,
        seg: Segment,
        cand: &mut Vec<u32>,
        mut f: impl FnMut(&Building),
    ) -> usize {
        match &self.index {
            Some(idx) => {
                idx.candidates_segment(seg, cand);
                for &bi in cand.iter() {
                    f(&self.buildings[bi as usize]);
                }
                cand.len()
            }
            None => {
                for b in &self.buildings {
                    f(b);
                }
                self.buildings.len()
            }
        }
    }

    /// Bitmap form of the segment-candidate query: fills `words` with
    /// the conservative candidate set for `seg` (bit `w * 64 + b` ⇔
    /// building index, ascending by construction). Returns `false` when
    /// no spatial index is built — the caller must fall back to a full
    /// scan. This is the cheapest candidate form and what the radio
    /// fast path iterates directly.
    pub fn ray_candidates_mask(&self, seg: Segment, words: &mut Vec<u64>) -> bool {
        match &self.index {
            Some(idx) => {
                idx.candidates_segment_mask(seg, words);
                true
            }
            None => false,
        }
    }

    /// Existence scan along `seg` (see
    /// [`SpatialIndex::scan_segment_until`]): streams candidate indices
    /// to `test` (duplicates possible) until it returns `true`; the
    /// return value says whether it did. `None` when no spatial index is
    /// built — the caller must fall back to a full scan.
    pub fn ray_scan_until(&self, seg: Segment, test: impl FnMut(u32) -> bool) -> Option<bool> {
        self.index
            .as_ref()
            .map(|idx| idx.scan_segment_until(seg, test))
    }

    /// Collects (ascending) the indices of every building containing
    /// `p` into `out`, reusing it as scratch.
    pub fn buildings_containing_into(&self, p: Point, out: &mut Vec<u32>) {
        out.clear();
        match &self.index {
            Some(idx) => {
                for &bi in idx.candidates_point(p) {
                    if self.buildings[bi as usize].contains(p) {
                        out.push(bi);
                    }
                }
            }
            None => {
                for (bi, b) in self.buildings.iter().enumerate() {
                    if b.contains(p) {
                        out.push(bi as u32);
                    }
                }
            }
        }
    }

    /// Total road length, metres.
    pub fn total_road_length(&self) -> f64 {
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

    #[test]
    fn indoor_detection() {
        let m = simple_map();
        assert!(m.is_indoor(Point::new(50.0, 50.0)));
        assert!(!m.is_indoor(Point::new(10.0, 10.0)));
    }

    #[test]
    fn los_blocked_by_building() {
        let m = simple_map();
        assert!(!m.has_los(Point::new(30.0, 50.0), Point::new(70.0, 50.0)));
        assert!(m.has_los(Point::new(0.0, 0.0), Point::new(100.0, 0.0)));
    }

    #[test]
    fn trace_reports_material() {
        let m = simple_map();
        let obs = m.trace(Point::new(30.0, 50.0), Point::new(70.0, 50.0));
        assert_eq!(obs.total_walls(), 2);
        assert_eq!(obs.crossings[0].0, Material::Concrete);
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

    /// Strip the index (as external construction without `new` would)
    /// and check every query agrees with the indexed fast path.
    #[test]
    fn indexed_queries_match_full_scan() {
        let indexed = simple_map();
        let plain = CampusMap {
            bounds: indexed.bounds,
            buildings: indexed.buildings.clone(),
            roads: indexed.roads.clone(),
            index: None,
        };
        assert!(indexed.spatial_index().is_some());
        assert!(plain.spatial_index().is_none());
        for k in 0..300u32 {
            let a = Point::new((k as f64 * 7.3) % 100.0, (k as f64 * 13.7) % 100.0);
            let b = Point::new((k as f64 * 31.1) % 100.0, (k as f64 * 3.9) % 100.0);
            assert_eq!(indexed.is_indoor(a), plain.is_indoor(a));
            assert_eq!(indexed.has_los(a, b), plain.has_los(a, b));
            assert_eq!(indexed.trace(a, b), plain.trace(a, b));
        }
        let mut rebuilt = plain;
        rebuilt.ensure_index();
        assert!(rebuilt.spatial_index().is_some());
        assert!(!rebuilt.has_los(Point::new(30.0, 50.0), Point::new(70.0, 50.0)));
    }

    #[test]
    fn for_buildings_near_segment_visits_blockers() {
        let m = simple_map();
        let seg = Segment::new(Point::new(30.0, 50.0), Point::new(70.0, 50.0));
        let mut cand = Vec::new();
        let mut hit = 0;
        let visited = m.for_buildings_near_segment(seg, &mut cand, |b| {
            if b.blocks(seg) {
                hit += 1;
            }
        });
        assert_eq!(hit, 1);
        assert!(visited <= m.buildings.len());
        // A far-away ray prunes everything.
        let far = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        let visited = m.for_buildings_near_segment(far, &mut cand, |_| {});
        assert_eq!(visited, 0);
    }
}
