//! Hierarchical (tiled) spatial index for city-scale maps.
//!
//! The flat [`SpatialIndex`](crate::index::SpatialIndex) keeps one
//! candidate list per grid cell over the whole bounding box, so its
//! memory grows with the map's area, empty parks and rivers included.
//! This index keeps a coarse **tile directory** (tiles of
//! [`TILE_CELLS`] × [`TILE_CELLS`] grid cells) where each occupied tile
//! owns a local uniform grid of per-cell candidate lists and empty
//! tiles cost nothing: memory is O(tiles + occupied cells + footprint
//! registrations), and a ray walk hops over an empty tile's cells at
//! tile granularity.
//!
//! The query contract is identical to the flat index — candidate sets
//! are **conservative** (false positives possible, never false
//! negatives; ranges inflated by [`EPS`]) and list-form candidates come
//! out in ascending building-index order, which the "last containing
//! building wins" rule in `fiveg-phy` relies on. Property tests in
//! this module pin tiled candidates ⊇ flat candidates and identical
//! hit results on generated cities.

use crate::building::Building;
use crate::index::{CELL_M, EPS};
use crate::point::{Point, Rect, Segment};

/// Grid cells per tile edge: tiles are `TILE_CELLS × CELL_M` = 320 m
/// square, a few city blocks — big enough that a short site→UE ray
/// usually stays inside one or two tiles, small enough that an empty
/// park or river tile costs nothing.
pub const TILE_CELLS: usize = 8;

/// Grid cells per tile.
const TILE_AREA: usize = TILE_CELLS * TILE_CELLS;

/// `tile_base` entry of an unoccupied tile.
const NO_TILE: u32 = u32::MAX;

/// A two-level spatial index: a `tx × ty` directory of tiles over a
/// conceptual uniform grid of [`CELL_M`]-metre cells (the same geometry
/// as the flat index, so the slab walk is shared logic). The candidate
/// lists of occupied tiles are stored flat, in compressed-row form:
/// occupied tile `t`'s local cell `c` lists
/// `items[cell_start[b + c]..cell_start[b + c + 1]]` with
/// `b = tile_base[t]`.
#[derive(Debug, Clone)]
pub struct TiledSpatialIndex {
    bounds: Rect,
    cell_m: f64,
    tx: usize,
    /// Global cell-grid dimensions: `tx * TILE_CELLS` × `ty * TILE_CELLS`.
    gnx: usize,
    gny: usize,
    /// Per tile: offset of its first cell in `cell_start`, or
    /// [`NO_TILE`].
    tile_base: Vec<u32>,
    /// Start of each occupied cell's run in `items` (tile-major,
    /// `TILE_AREA` cells per occupied tile), plus one closing entry.
    cell_start: Vec<u32>,
    /// **Global** building indices, ascending within each cell's run
    /// (buildings register in index order).
    items: Vec<u32>,
}

const NO_CANDIDATES: &[u32] = &[];

/// Index of global cell `(ix, iy)` within its tile.
#[inline]
fn local_cell(ix: usize, iy: usize) -> usize {
    (iy % TILE_CELLS) * TILE_CELLS + ix % TILE_CELLS
}

impl TiledSpatialIndex {
    /// Builds the index over `buildings`. `bounds` is a hint; the grid
    /// is extended to cover any footprint that sticks out of it.
    pub fn build(bounds: Rect, buildings: &[Building]) -> TiledSpatialIndex {
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
        let tile_m = cell_m * TILE_CELLS as f64;
        let tx = ((cover.width() / tile_m).ceil() as usize).max(1);
        let ty = ((cover.height() / tile_m).ceil() as usize).max(1);
        let mut idx = TiledSpatialIndex {
            bounds: cover,
            cell_m,
            tx,
            gnx: tx * TILE_CELLS,
            gny: ty * TILE_CELLS,
            tile_base: vec![NO_TILE; tx * ty],
            cell_start: Vec::new(),
            items: Vec::new(),
        };
        // Every (building, tile, cell within the tile) registration, in
        // building order.
        let mut regs: Vec<(u32, usize, usize)> = Vec::new();
        for (bi, b) in buildings.iter().enumerate() {
            let fp = b.footprint.inflate(EPS);
            let (ix0, iy0) = idx.cell_floor(fp.min);
            let (ix1, iy1) = idx.cell_floor(fp.max);
            for iy in iy0..=iy1 {
                for ix in ix0..=ix1 {
                    regs.push((bi as u32, idx.tile_of(ix, iy), local_cell(ix, iy)));
                }
            }
        }
        // Occupied tiles take consecutive `TILE_AREA` blocks of cells, in
        // tile order.
        for &(_, t, _) in &regs {
            idx.tile_base[t] = 0;
        }
        let mut cells = 0usize;
        for base in idx.tile_base.iter_mut().filter(|b| **b != NO_TILE) {
            assert!(cells < NO_TILE as usize, "tiled index: too many tiles");
            *base = cells as u32;
            cells += TILE_AREA;
        }
        assert!(
            u32::try_from(regs.len()).is_ok(),
            "tiled index: too many registrations"
        );
        // Counting sort of the registrations by cell; it is stable, so
        // every run stays ascending.
        let mut start = vec![0u32; cells + 1];
        for &(_, t, c) in &regs {
            start[idx.tile_base[t] as usize + c + 1] += 1;
        }
        for c in 1..start.len() {
            start[c] += start[c - 1];
        }
        let mut fill = start.clone();
        idx.items = vec![0; regs.len()];
        for &(bi, t, c) in &regs {
            let c = idx.tile_base[t] as usize + c;
            idx.items[fill[c] as usize] = bi;
            fill[c] += 1;
        }
        idx.cell_start = start;
        idx
    }

    /// Tile-directory dimensions `(tx, ty)` and occupied-tile count.
    #[cfg(test)]
    pub fn tile_stats(&self) -> (usize, usize, usize) {
        let occupied = self.tile_base.iter().filter(|&&b| b != NO_TILE).count();
        (self.tx, self.gny / TILE_CELLS, occupied)
    }

    /// Grid coordinates of `p` on the global cell grid, clamped in.
    fn cell_floor(&self, p: Point) -> (usize, usize) {
        let ix = ((p.x - self.bounds.min.x) / self.cell_m).floor();
        let iy = ((p.y - self.bounds.min.y) / self.cell_m).floor();
        let ix = (ix.max(0.0) as usize).min(self.gnx - 1);
        let iy = (iy.max(0.0) as usize).min(self.gny - 1);
        (ix, iy)
    }

    /// Directory index of the tile holding global cell `(ix, iy)`.
    #[inline]
    fn tile_of(&self, ix: usize, iy: usize) -> usize {
        (iy / TILE_CELLS) * self.tx + ix / TILE_CELLS
    }

    /// The candidate list of global cell `(ix, iy)` in the occupied
    /// tile starting at `base`.
    #[inline]
    fn cell_items(&self, base: u32, ix: usize, iy: usize) -> &[u32] {
        let c = base as usize + local_cell(ix, iy);
        &self.items[self.cell_start[c] as usize..self.cell_start[c + 1] as usize]
    }

    /// The candidate list of global cell `(ix, iy)` — empty for cells
    /// in unoccupied tiles.
    fn cell(&self, ix: usize, iy: usize) -> &[u32] {
        match self.tile_base[self.tile_of(ix, iy)] {
            NO_TILE => NO_CANDIDATES,
            base => self.cell_items(base, ix, iy),
        }
    }

    /// Building indices whose footprint may contain `p` (ascending).
    /// Points outside the grid return the empty slice.
    pub fn candidates_point(&self, p: Point) -> &[u32] {
        if !self.bounds.contains(p) {
            return NO_CANDIDATES;
        }
        let (ix, iy) = self.cell_floor(p);
        self.cell(ix, iy)
    }

    /// Passes the candidate list of every global cell the slab-clipped
    /// `seg` overlaps to `visit` — the same column walk as the flat
    /// index, but a whole run of cells inside an unoccupied tile is
    /// skipped at tile granularity. Stops early when `visit` returns
    /// `true`.
    #[inline]
    fn for_cells_on_segment(&self, seg: Segment, mut visit: impl FnMut(&[u32]) -> bool) {
        let min_x = seg.a.x.min(seg.b.x) - EPS;
        let max_x = seg.a.x.max(seg.b.x) + EPS;
        let min_y = seg.a.y.min(seg.b.y) - EPS;
        let max_y = seg.a.y.max(seg.b.y) + EPS;
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
            let mut iy = iy0;
            while iy <= iy1 {
                // Empty tile: hop straight past its remaining cell rows.
                let base = self.tile_base[self.tile_of(ix, iy)];
                if base == NO_TILE {
                    iy = (iy / TILE_CELLS + 1) * TILE_CELLS;
                    continue;
                }
                if visit(self.cell_items(base, ix, iy)) {
                    return;
                }
                iy += 1;
            }
        }
    }

    /// Collects into `out` the building indices whose footprint may
    /// touch `seg`, sorted ascending and deduplicated. Conservative —
    /// same contract as `SpatialIndex::candidates_segment`. Test-only.
    #[cfg(test)]
    pub fn candidates_segment(&self, seg: Segment, out: &mut Vec<u32>) {
        out.clear();
        self.for_cells_on_segment(seg, |run| {
            out.extend_from_slice(run);
            false
        });
        out.sort_unstable();
        out.dedup();
    }

    /// Existence scan: streams candidate building indices to `test` in
    /// grid-walk order (duplicates possible) and stops the walk as soon
    /// as `test` returns `true`. Returns whether it did — same contract
    /// as [`crate::index::SpatialIndex::scan_segment_until`].
    pub fn scan_segment_until(&self, seg: Segment, mut test: impl FnMut(u32) -> bool) -> bool {
        let mut hit = false;
        self.for_cells_on_segment(seg, |run| {
            hit = run.iter().any(|&bi| test(bi));
            hit
        });
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::building::Material;
    use crate::index::SpatialIndex;
    use fiveg_simcore::SimRng;

    /// A random city-block layout spanning several tiles, with gaps so
    /// some tiles stay unoccupied.
    fn random_city(seed: u64, span_m: f64, n: usize) -> (Rect, Vec<Building>) {
        let mut rng = SimRng::new(seed);
        let bounds = Rect::from_origin_size(Point::new(0.0, 0.0), span_m, span_m);
        let mut bs = Vec::new();
        for _ in 0..n {
            // Cluster buildings in the lower-left 60% so upper tiles
            // stay empty and the tile-skip path is exercised.
            let x = rng.range_f64(0.0, span_m * 0.6);
            let y = rng.range_f64(0.0, span_m * 0.6);
            let w = rng.range_f64(12.0, 70.0);
            let h = rng.range_f64(12.0, 70.0);
            let mat = if rng.chance(0.4) {
                Material::Concrete
            } else {
                Material::Brick
            };
            bs.push(Building::new(
                Rect::from_origin_size(Point::new(x, y), w, h),
                mat,
                rng.range_f64(10.0, 40.0),
            ));
        }
        (bounds, bs)
    }

    fn ray(rng: &mut SimRng, span: f64) -> Segment {
        Segment::new(
            Point::new(
                rng.range_f64(-50.0, span + 50.0),
                rng.range_f64(-50.0, span + 50.0),
            ),
            Point::new(
                rng.range_f64(-50.0, span + 50.0),
                rng.range_f64(-50.0, span + 50.0),
            ),
        )
    }

    /// Property: tiled candidate sets contain every flat-grid candidate
    /// (and therefore every true hit), and exact hit results computed
    /// from them are identical, on random cities and random rays.
    #[test]
    fn tiled_candidates_superset_of_flat_and_hits_identical() {
        for seed in [1u64, 7, 42] {
            let (bounds, bs) = random_city(seed, 1600.0, 120);
            let flat = SpatialIndex::build(bounds, &bs);
            let tiled = TiledSpatialIndex::build(bounds, &bs);
            let mut rng = SimRng::new(seed ^ 0xbeef);
            let (mut fc, mut tc) = (Vec::new(), Vec::new());
            for _ in 0..300 {
                let seg = ray(&mut rng, 1600.0);
                flat.candidates_segment(seg, &mut fc);
                tiled.candidates_segment(seg, &mut tc);
                for bi in &fc {
                    assert!(tc.contains(bi), "seed {seed}: flat candidate {bi} missing");
                }
                // Exact hits agree (the caller always re-tests).
                let hits = |cand: &[u32]| -> Vec<u32> {
                    cand.iter()
                        .copied()
                        .filter(|&bi| bs[bi as usize].blocks(seg))
                        .collect()
                };
                assert_eq!(hits(&fc), hits(&tc), "seed {seed}");
                assert!(tc.windows(2).all(|w| w[0] < w[1]), "ascending, deduped");
            }
        }
    }

    #[test]
    fn point_candidates_cover_containment() {
        let (bounds, bs) = random_city(3, 1600.0, 120);
        let tiled = TiledSpatialIndex::build(bounds, &bs);
        for (bi, b) in bs.iter().enumerate() {
            assert!(tiled
                .candidates_point(b.footprint.center())
                .contains(&(bi as u32)));
        }
        assert!(tiled
            .candidates_point(Point::new(-100.0, -100.0))
            .is_empty());
        // A point in an empty tile region returns the empty slice.
        assert!(tiled
            .candidates_point(Point::new(1590.0, 1590.0))
            .is_empty());
    }

    #[test]
    fn scan_form_matches_list_form() {
        let (bounds, bs) = random_city(11, 1600.0, 120);
        let tiled = TiledSpatialIndex::build(bounds, &bs);
        let mut rng = SimRng::new(0xabcd);
        let mut cand = Vec::new();
        for _ in 0..200 {
            let seg = ray(&mut rng, 1600.0);
            tiled.candidates_segment(seg, &mut cand);
            // The streaming scan visits exactly the candidate set (after
            // dedup) when the test never fires.
            let mut seen = Vec::new();
            assert!(!tiled.scan_segment_until(seg, |bi| {
                seen.push(bi);
                false
            }));
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(cand, seen);
        }
    }

    #[test]
    fn empty_tiles_cost_nothing_and_strays_are_indexed() {
        let bounds = Rect::from_origin_size(Point::new(0.0, 0.0), 3200.0, 3200.0);
        // Fully inside one 320 m tile (no boundary straddle), outside
        // the hint bounds.
        let stray = Building::new(
            Rect::from_origin_size(Point::new(3300.0, 3300.0), 12.0, 12.0),
            Material::Brick,
            12.0,
        );
        let tiled = TiledSpatialIndex::build(bounds, &[stray]);
        let (_, _, occupied) = tiled.tile_stats();
        assert_eq!(occupied, 1, "one stray building occupies one tile");
        assert!(tiled
            .candidates_point(Point::new(3306.0, 3306.0))
            .contains(&0u32));
        let mut cand = Vec::new();
        tiled.candidates_segment(
            Segment::new(Point::new(0.0, 0.0), Point::new(3600.0, 3600.0)),
            &mut cand,
        );
        assert_eq!(cand, vec![0]);
    }
}
