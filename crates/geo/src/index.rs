//! Uniform-grid spatial index over building footprints.
//!
//! Every propagation query ([`CampusMap::is_indoor`], the buildings
//! holding a point, and the blockage scan from a site to a UE in
//! `fiveg-phy`) needs the set of buildings a point or ray can possibly
//! touch. The naive answer — scan all of them — made each radio sample
//! O(buildings) segment tests. The index buckets building indices into
//! a uniform grid of [`CELL_M`]-metre cells, so a query only visits the
//! buildings registered in the grid cells its point (or the
//! slab-clipped ray) overlaps.
//!
//! The candidate set is **conservative**: it may contain buildings the
//! ray misses (the caller re-tests each candidate exactly), but it never
//! omits one it hits — grid cell ranges are computed from bounding boxes
//! inflated by [`EPS`] so boundary-grazing rays cannot fall through a
//! seam. The list forms (`candidates_point`, and `candidates_segment`
//! in tests) return candidates in ascending building-index order, which keeps
//! every scan-order-dependent caller (e.g. the "last containing building
//! wins" rule in `fiveg-phy`) bit-identical to the full scan; the
//! streaming `scan_segment_until` visits them in grid-walk order.
//!
//! [`CampusMap::is_indoor`]: crate::map::CampusMap::is_indoor

use crate::building::Building;
use crate::point::{Point, Rect, Segment};

/// Grid cell edge length, metres. Campus buildings are ~30–80 m on a
/// side, so one building spans a handful of cells and a typical cell
/// holds at most a few buildings.
pub const CELL_M: f64 = 40.0;

/// Inflation margin applied to footprints and query ranges, metres.
/// Large enough to absorb the 1e-12 epsilons of the exact segment
/// tests, small relative to any feature of the map.
pub const EPS: f64 = 1e-6;

/// A uniform grid over the campus bounding box with per-cell lists of
/// building indices (each list ascending).
#[derive(Debug, Clone)]
pub struct SpatialIndex {
    bounds: Rect,
    cell_m: f64,
    nx: usize,
    ny: usize,
    cells: Vec<Vec<u32>>,
}

const NO_CANDIDATES: &[u32] = &[];

impl SpatialIndex {
    /// Builds the index over `buildings`. `bounds` is a hint; the grid
    /// is extended to cover any footprint that sticks out of it, so the
    /// index is correct for arbitrary maps.
    pub fn build(bounds: Rect, buildings: &[Building]) -> SpatialIndex {
        let mut cover = bounds;
        for b in buildings {
            cover = Rect::new(
                Point::new(
                    cover.min.x.min(b.footprint.min.x),
                    cover.min.y.min(b.footprint.min.y),
                ),
                Point::new(
                    cover.max.x.max(b.footprint.max.x),
                    cover.max.y.max(b.footprint.max.y),
                ),
            );
        }
        let cover = cover.inflate(EPS);
        let cell_m = CELL_M;
        let nx = ((cover.width() / cell_m).ceil() as usize).max(1);
        let ny = ((cover.height() / cell_m).ceil() as usize).max(1);
        let mut cells = vec![Vec::new(); nx * ny];
        let mut idx = SpatialIndex {
            bounds: cover,
            cell_m,
            nx,
            ny,
            cells: Vec::new(),
        };
        for (bi, b) in buildings.iter().enumerate() {
            let fp = b.footprint.inflate(EPS);
            let (ix0, iy0) = idx.cell_floor(fp.min);
            let (ix1, iy1) = idx.cell_floor(fp.max);
            for iy in iy0..=iy1 {
                for ix in ix0..=ix1 {
                    cells[iy * nx + ix].push(bi as u32);
                }
            }
        }
        idx.cells = cells;
        idx
    }

    /// Grid coordinates of `p`, clamped into the grid.
    fn cell_floor(&self, p: Point) -> (usize, usize) {
        let ix = ((p.x - self.bounds.min.x) / self.cell_m).floor();
        let iy = ((p.y - self.bounds.min.y) / self.cell_m).floor();
        let ix = (ix.max(0.0) as usize).min(self.nx - 1);
        let iy = (iy.max(0.0) as usize).min(self.ny - 1);
        (ix, iy)
    }

    /// Building indices whose footprint may contain `p` (ascending).
    /// Points outside the grid return the empty slice.
    pub fn candidates_point(&self, p: Point) -> &[u32] {
        if !self.bounds.contains(p) {
            return NO_CANDIDATES;
        }
        let (ix, iy) = self.cell_floor(p);
        &self.cells[iy * self.nx + ix]
    }

    /// Visits the index of every grid cell the slab-clipped `seg`
    /// overlaps, stopping early when `visit` returns `true`. Both
    /// segment queries below share this walk, so their candidate sets
    /// are identical by construction.
    #[inline]
    fn for_cells_on_segment(&self, seg: Segment, mut visit: impl FnMut(usize) -> bool) {
        let min_x = seg.a.x.min(seg.b.x) - EPS;
        let max_x = seg.a.x.max(seg.b.x) + EPS;
        let min_y = seg.a.y.min(seg.b.y) - EPS;
        let max_y = seg.a.y.max(seg.b.y) + EPS;
        // A segment whose bounding box misses the grid cannot touch any
        // indexed footprint.
        if max_x < self.bounds.min.x
            || min_x > self.bounds.max.x
            || max_y < self.bounds.min.y
            || min_y > self.bounds.max.y
        {
            return;
        }
        let (ix0, _) = self.cell_floor(Point::new(min_x, min_y));
        let (ix1, _) = self.cell_floor(Point::new(max_x, max_y));
        let dx = seg.b.x - seg.a.x;
        for ix in ix0..=ix1 {
            // Clip the segment's parameter range to this column's x-slab
            // and bound the y-range of the clipped piece; any
            // intersection point in this column lies inside that range.
            let slab_lo = self.bounds.min.x + ix as f64 * self.cell_m - EPS;
            let slab_hi = slab_lo + self.cell_m + 2.0 * EPS;
            let (t0, t1) = if dx.abs() > 1e-12 {
                let ta = (slab_lo - seg.a.x) / dx;
                let tb = (slab_hi - seg.a.x) / dx;
                (ta.min(tb).max(0.0), ta.max(tb).min(1.0))
            } else {
                (0.0, 1.0)
            };
            if t0 > t1 {
                continue;
            }
            let ya = seg.a.y + (seg.b.y - seg.a.y) * t0;
            let yb = seg.a.y + (seg.b.y - seg.a.y) * t1;
            let y_lo = ya.min(yb).max(min_y);
            let y_hi = ya.max(yb).min(max_y);
            let (_, iy0) = self.cell_floor(Point::new(0.0, y_lo - EPS));
            let (_, iy1) = self.cell_floor(Point::new(0.0, y_hi + EPS));
            for iy in iy0..=iy1 {
                if visit(iy * self.nx + ix) {
                    return;
                }
            }
        }
    }

    /// Collects into `out` the building indices whose footprint may
    /// touch `seg`, sorted ascending and deduplicated. The set is
    /// conservative (false positives possible, false negatives not).
    /// Test-only: it is the list form the tests hold to full scans.
    #[cfg(test)]
    pub fn candidates_segment(&self, seg: Segment, out: &mut Vec<u32>) {
        out.clear();
        self.for_cells_on_segment(seg, |c| {
            out.extend_from_slice(&self.cells[c]);
            false
        });
        out.sort_unstable();
        out.dedup();
    }

    /// Existence scan: streams candidate building indices to `test` in
    /// grid-walk order (duplicates possible — a footprint spans several
    /// cells; the caller deduplicates if it cares) and stops the walk as
    /// soon as `test` returns `true`. Returns whether it did.
    ///
    /// This is the cheapest form when the caller only needs "does any
    /// candidate satisfy X": a blocked ray stops at its first crossing
    /// after visiting one or two grid cells, skipping the rest of the
    /// walk entirely.
    pub fn scan_segment_until(&self, seg: Segment, mut test: impl FnMut(u32) -> bool) -> bool {
        let mut hit = false;
        self.for_cells_on_segment(seg, |c| {
            for &bi in &self.cells[c] {
                if test(bi) {
                    hit = true;
                    return true;
                }
            }
            false
        });
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::building::Material;

    fn building(x: f64, y: f64, w: f64, h: f64) -> Building {
        Building::new(
            Rect::from_origin_size(Point::new(x, y), w, h),
            Material::Brick,
            15.0,
        )
    }

    fn grid_of_buildings() -> (Rect, Vec<Building>) {
        let bounds = Rect::from_origin_size(Point::new(0.0, 0.0), 500.0, 920.0);
        let mut bs = Vec::new();
        for j in 0..8 {
            for i in 0..5 {
                bs.push(building(
                    20.0 + i as f64 * 95.0,
                    30.0 + j as f64 * 110.0,
                    50.0,
                    60.0,
                ));
            }
        }
        (bounds, bs)
    }

    #[test]
    fn point_candidates_cover_containment() {
        let (bounds, bs) = grid_of_buildings();
        let idx = SpatialIndex::build(bounds, &bs);
        for (bi, b) in bs.iter().enumerate() {
            let c = b.footprint.center();
            assert!(
                idx.candidates_point(c).contains(&(bi as u32)),
                "building {bi} missing at its own centre"
            );
        }
        assert!(idx.candidates_point(Point::new(-50.0, -50.0)).is_empty());
    }

    #[test]
    fn segment_candidates_have_no_false_negatives() {
        let (bounds, bs) = grid_of_buildings();
        let idx = SpatialIndex::build(bounds, &bs);
        let mut cand = Vec::new();
        // A deterministic fan of rays across the whole map.
        for k in 0..200u32 {
            let a = Point::new((k as f64 * 37.0) % 500.0, (k as f64 * 91.0) % 920.0);
            let b = Point::new(
                ((k as f64 * 53.0) + 17.0) % 500.0,
                ((k as f64 * 29.0) + 311.0) % 920.0,
            );
            let seg = Segment::new(a, b);
            idx.candidates_segment(seg, &mut cand);
            for (bi, bld) in bs.iter().enumerate() {
                if bld.blocks(seg) {
                    assert!(
                        cand.contains(&(bi as u32)),
                        "ray {k}: building {bi} intersects but was pruned"
                    );
                }
            }
            // Sorted ascending, no duplicates.
            assert!(cand.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn candidates_prune_most_buildings() {
        let (bounds, bs) = grid_of_buildings();
        let idx = SpatialIndex::build(bounds, &bs);
        let mut cand = Vec::new();
        // A short ray should touch far fewer cells than the whole map.
        idx.candidates_segment(
            Segment::new(Point::new(10.0, 10.0), Point::new(80.0, 80.0)),
            &mut cand,
        );
        assert!(
            cand.len() < bs.len() / 4,
            "short ray kept {} of {} buildings",
            cand.len(),
            bs.len()
        );
    }

    #[test]
    fn buildings_outside_hint_bounds_are_indexed() {
        let bounds = Rect::from_origin_size(Point::new(0.0, 0.0), 100.0, 100.0);
        let stray = building(150.0, 150.0, 20.0, 20.0);
        let idx = SpatialIndex::build(bounds, &[stray]);
        assert!(idx
            .candidates_point(Point::new(160.0, 160.0))
            .contains(&0u32));
        let mut cand = Vec::new();
        idx.candidates_segment(
            Segment::new(Point::new(0.0, 0.0), Point::new(200.0, 200.0)),
            &mut cand,
        );
        assert_eq!(cand, vec![0]);
    }

    /// The streaming scan visits exactly the list-form candidate set
    /// (after dedup) when its test never fires, and stops at the first
    /// candidate that does.
    #[test]
    fn scan_candidates_match_list_candidates() {
        let (bounds, bs) = grid_of_buildings();
        let idx = SpatialIndex::build(bounds, &bs);
        let mut cand = Vec::new();
        for k in 0..200u32 {
            let a = Point::new((k as f64 * 37.0) % 500.0, (k as f64 * 91.0) % 920.0);
            let b = Point::new(
                ((k as f64 * 53.0) + 17.0) % 500.0,
                ((k as f64 * 29.0) + 311.0) % 920.0,
            );
            let seg = Segment::new(a, b);
            idx.candidates_segment(seg, &mut cand);
            let mut seen = Vec::new();
            assert!(!idx.scan_segment_until(seg, |bi| {
                seen.push(bi);
                false
            }));
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(cand, seen, "ray {k}");
            if let Some(&first) = cand.first() {
                let mut fired = false;
                assert!(idx.scan_segment_until(seg, |bi| {
                    assert!(!fired, "ray {k}: scan went on after a hit");
                    fired = bi == first;
                    fired
                }));
            }
        }
    }

    #[test]
    fn vertical_and_degenerate_segments() {
        let (bounds, bs) = grid_of_buildings();
        let idx = SpatialIndex::build(bounds, &bs);
        let mut cand = Vec::new();
        // Perfectly vertical ray through a column of buildings.
        let seg = Segment::new(Point::new(45.0, 0.0), Point::new(45.0, 920.0));
        idx.candidates_segment(seg, &mut cand);
        for (bi, bld) in bs.iter().enumerate() {
            if bld.blocks(seg) {
                assert!(cand.contains(&(bi as u32)));
            }
        }
        // Zero-length segment inside a building.
        let p = bs[0].footprint.center();
        idx.candidates_segment(Segment::new(p, p), &mut cand);
        assert!(cand.contains(&0u32));
    }
}
