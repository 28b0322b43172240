//! Deterministic procedural city generator.
//!
//! The paper's campus is one 0.46 km² block ([`crate::campus`]); the
//! city generator tiles that block grammar over an arbitrary
//! `tiles_x × tiles_y` footprint so the same calibrated radio models
//! can run at metro scale (the ROADMAP's "millions of users" item).
//! Every tile draws its buildings and sites from its own
//! [`SimRng::substream_idx`] substream keyed by tile index, so a tile's
//! content is independent of generation order *and* of the city
//! dimensions — growing a 2×2 city to 4×4 leaves the original four
//! tiles byte-identical.
//!
//! Three presets approximate the 3GPP reference scenarios the 5G-LENA
//! calibration paper instantiates (38.913 §6): Dense Urban, Rural and
//! Indoor Hotspot. They differ in tile size, site density, building
//! fill and height profile; all stay NSA (every gNB co-sited with an
//! eNB) to match the paper's deployment.

use crate::building::{Building, Material};
use crate::campus::{Campus, Site, SitePlan};
use crate::map::{CampusMap, Road};
use crate::point::{Point, Rect};
use fiveg_simcore::SimRng;
use serde::Serialize;

/// A named [`CitySpec`] preset, as scenario files write it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CityPreset {
    /// [`CitySpec::dense_urban`].
    DenseUrban,
    /// [`CitySpec::rural`].
    Rural,
    /// [`CitySpec::indoor_hotspot`].
    IndoorHotspot,
}

impl CityPreset {
    /// Every preset.
    pub const ALL: [CityPreset; 3] = [
        CityPreset::DenseUrban,
        CityPreset::Rural,
        CityPreset::IndoorHotspot,
    ];

    /// The preset's name: `dense_urban`, `rural` or `indoor_hotspot`.
    pub fn name(self) -> &'static str {
        match self {
            CityPreset::DenseUrban => "dense_urban",
            CityPreset::Rural => "rural",
            CityPreset::IndoorHotspot => "indoor_hotspot",
        }
    }

    /// The preset called `name`, if there is one.
    pub fn from_name(name: &str) -> Option<CityPreset> {
        CityPreset::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// Parameters for the city generator: a rectangular grid of square
/// tiles, each carrying the same block grammar and site lattice.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CitySpec {
    /// Tiles east-west.
    pub tiles_x: usize,
    /// Tiles north-south.
    pub tiles_y: usize,
    /// Square tile edge, metres.
    pub tile_m: f64,
    /// LTE eNB sites per tile (3-sector macros).
    pub enb_per_tile: usize,
    /// NR gNB sites per tile (≤ `enb_per_tile`; NSA co-sited).
    pub gnb_per_tile: usize,
    /// Building blocks per tile edge (a `blocks × blocks` lattice).
    pub blocks_per_tile: usize,
    /// Fraction of concrete (vs brick) buildings.
    pub concrete_fraction: f64,
    /// Building height range, metres.
    pub height_min_m: f64,
    /// See `height_min_m`.
    pub height_max_m: f64,
}

impl CitySpec {
    /// 3GPP Dense Urban-ish preset: 400 m tiles at roughly the paper
    /// campus's site density (≈28 eNB / 13 gNB per km²), tall blocks.
    pub fn dense_urban() -> CitySpec {
        CitySpec {
            tiles_x: 2,
            tiles_y: 2,
            tile_m: 400.0,
            enb_per_tile: 4,
            gnb_per_tile: 2,
            blocks_per_tile: 3,
            concrete_fraction: 0.5,
            height_min_m: 12.0,
            height_max_m: 45.0,
        }
    }

    /// 3GPP Rural-ish preset: 1 km tiles, one co-sited macro per tile
    /// (≈1.7 km ISD), sparse low buildings.
    pub fn rural() -> CitySpec {
        CitySpec {
            tiles_x: 2,
            tiles_y: 2,
            tile_m: 1000.0,
            enb_per_tile: 1,
            gnb_per_tile: 1,
            blocks_per_tile: 2,
            concrete_fraction: 0.1,
            height_min_m: 5.0,
            height_max_m: 10.0,
        }
    }

    /// 3GPP Indoor Hotspot-ish preset: one 120 m office tile packed
    /// with low concrete structures and dense co-sited small cells.
    pub fn indoor_hotspot() -> CitySpec {
        CitySpec {
            tiles_x: 1,
            tiles_y: 1,
            tile_m: 120.0,
            enb_per_tile: 4,
            gnb_per_tile: 4,
            blocks_per_tile: 2,
            concrete_fraction: 0.9,
            height_min_m: 4.0,
            height_max_m: 8.0,
        }
    }

    /// The spec of `preset`.
    pub fn preset(preset: CityPreset) -> CitySpec {
        match preset {
            CityPreset::DenseUrban => CitySpec::dense_urban(),
            CityPreset::Rural => CitySpec::rural(),
            CityPreset::IndoorHotspot => CitySpec::indoor_hotspot(),
        }
    }

    /// City width / height, metres.
    pub fn dims(&self) -> (f64, f64) {
        (
            self.tiles_x as f64 * self.tile_m,
            self.tiles_y as f64 * self.tile_m,
        )
    }

    /// Total site counts `(enb, gnb)`.
    #[cfg(test)]
    fn site_counts(&self) -> (usize, usize) {
        let tiles = self.tiles_x * self.tiles_y;
        (self.enb_per_tile * tiles, self.gnb_per_tile * tiles)
    }

    /// First violated invariant, if any (mirrors
    /// `CampusConfig`'s implicit asserts, but recoverable).
    pub fn validate(&self) -> Result<(), String> {
        if self.tiles_x == 0 || self.tiles_y == 0 {
            return Err("city needs at least one tile per axis".into());
        }
        if self.tile_m < 50.0 {
            return Err(format!("tile_m {} too small (min 50 m)", self.tile_m));
        }
        if self.gnb_per_tile > self.enb_per_tile {
            return Err(format!(
                "gnb_per_tile {} exceeds enb_per_tile {} (every gNB co-sits with an eNB)",
                self.gnb_per_tile, self.enb_per_tile
            ));
        }
        if self.enb_per_tile == 0 {
            return Err("enb_per_tile must be at least 1".into());
        }
        if self.blocks_per_tile == 0 {
            return Err("blocks_per_tile must be at least 1".into());
        }
        if !(0.0..=1.0).contains(&self.concrete_fraction) {
            return Err(format!(
                "concrete_fraction {} outside [0, 1]",
                self.concrete_fraction
            ));
        }
        if !(self.height_min_m > 0.0 && self.height_max_m >= self.height_min_m) {
            return Err(format!(
                "height range [{}, {}] invalid",
                self.height_min_m, self.height_max_m
            ));
        }
        Ok(())
    }
}

/// Generates a city deterministically from `rng`'s seed. Returns a
/// [`Campus`] (map + site plan), so the whole radio stack — including
/// [`CampusMap`]'s automatic flat/tiled index selection — works on a
/// city exactly as on the paper campus.
///
/// # Panics
/// On an invalid spec; call [`CitySpec::validate`] first for a
/// recoverable error.
pub fn generate_city(spec: &CitySpec, rng: &SimRng) -> Campus {
    if let Err(e) = spec.validate() {
        panic!("invalid CitySpec: {e}");
    }
    let (w, h) = spec.dims();
    let bounds = Rect::from_origin_size(Point::new(0.0, 0.0), w, h);
    let mut buildings = Vec::new();
    let mut roads = Vec::new();
    let mut enb_sites = Vec::new();
    let mut gnb_sites = Vec::new();
    let mut gnb_cosite = Vec::new();
    for tj in 0..spec.tiles_y {
        for ti in 0..spec.tiles_x {
            let idx = (tj * spec.tiles_x + ti) as u64;
            let origin = Point::new(ti as f64 * spec.tile_m, tj as f64 * spec.tile_m);
            let mut trng = rng.substream_idx("city-tile", idx);
            tile_buildings(spec, origin, &mut trng, &mut buildings);
            // Each tile's eNB lattice; the first `gnb_per_tile` are the
            // NSA co-sites, like the campus generator.
            let enb_base = enb_sites.len();
            let mut srng = rng.substream_idx("city-sites", idx);
            tile_sites(spec, origin, &mut srng, &mut enb_sites);
            for g in 0..spec.gnb_per_tile {
                let host = enb_base + g;
                gnb_sites.push(Site {
                    pos: enb_sites[host].pos,
                    sector_azimuths: enb_sites[host].sector_azimuths.clone(),
                });
                gnb_cosite.push(host);
            }
        }
    }
    // One boundary road per tile seam plus the outer ring: enough for
    // road-survey mobility without modelling every street.
    for ti in 0..=spec.tiles_x {
        let x = (ti as f64 * spec.tile_m).clamp(2.0, w - 2.0);
        roads.push(Road::new(vec![Point::new(x, 2.0), Point::new(x, h - 2.0)]));
    }
    for tj in 0..=spec.tiles_y {
        let y = (tj as f64 * spec.tile_m).clamp(2.0, h - 2.0);
        roads.push(Road::new(vec![Point::new(2.0, y), Point::new(w - 2.0, y)]));
    }
    Campus {
        map: CampusMap::new(bounds, buildings, roads),
        plan: SitePlan {
            enb_sites,
            gnb_sites,
            gnb_cosite,
        },
    }
}

/// Fills one tile with the campus block grammar: a
/// `blocks × blocks` lattice of blocks, each holding up to 2×2
/// jittered buildings with street margins kept clear.
fn tile_buildings(spec: &CitySpec, origin: Point, rng: &mut SimRng, out: &mut Vec<Building>) {
    let n = spec.blocks_per_tile;
    let block_m = spec.tile_m / n as f64;
    let margin = (block_m * 0.06).clamp(4.0, 12.0);
    let gap = (block_m * 0.04).clamp(3.0, 8.0);
    for col in 0..n {
        for row in 0..n {
            let block = Rect::new(
                Point::new(
                    origin.x + col as f64 * block_m + margin,
                    origin.y + row as f64 * block_m + margin,
                ),
                Point::new(
                    origin.x + (col + 1) as f64 * block_m - margin,
                    origin.y + (row + 1) as f64 * block_m - margin,
                ),
            );
            for bi in 0..2 {
                for bj in 0..2 {
                    let cell_w = block.width() / 2.0;
                    let cell_h = block.height() / 2.0;
                    let bw = (cell_w - 2.0 * gap) * rng.range_f64(0.55, 0.9);
                    let bh = (cell_h - 2.0 * gap) * rng.range_f64(0.55, 0.9);
                    if bw < 8.0 || bh < 8.0 {
                        continue;
                    }
                    let ox = block.min.x + bi as f64 * cell_w + gap;
                    let oy = block.min.y + bj as f64 * cell_h + gap;
                    let material = if rng.chance(spec.concrete_fraction) {
                        Material::Concrete
                    } else {
                        Material::Brick
                    };
                    let height = rng.range_f64(spec.height_min_m, spec.height_max_m);
                    out.push(Building::new(
                        Rect::from_origin_size(Point::new(ox, oy), bw, bh),
                        material,
                        height,
                    ));
                }
            }
        }
    }
}

/// Places one tile's eNB sites on a jittered lattice (3-sector macros,
/// rooftop masts like the campus generator).
fn tile_sites(spec: &CitySpec, origin: Point, rng: &mut SimRng, out: &mut Vec<Site>) {
    let n = spec.enb_per_tile;
    // Near-square lattice: columns × rows ≥ n, walked row-major.
    let cols = (n as f64).sqrt().ceil() as usize;
    let rows = n.div_ceil(cols);
    let t = spec.tile_m;
    let mut placed = 0;
    for r in 0..rows {
        for c in 0..cols {
            if placed == n {
                return;
            }
            let fx = (c as f64 + 0.5) / cols as f64;
            let fy = (r as f64 + 0.5) / rows as f64;
            let x = origin.x + fx * t + rng.range_f64(-0.05, 0.05) * t;
            let y = origin.y + fy * t + rng.range_f64(-0.05, 0.05) * t;
            let rot = rng.range_f64(0.0, 120.0);
            out.push(Site {
                pos: Point::new(
                    x.clamp(origin.x + 5.0, origin.x + t - 5.0),
                    y.clamp(origin.y + 5.0, origin.y + t - 5.0),
                ),
                sector_azimuths: vec![rot, (rot + 120.0) % 360.0, (rot + 240.0) % 360.0],
            });
            placed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate_and_generate() {
        for preset in CityPreset::ALL {
            let name = preset.name();
            assert_eq!(CityPreset::from_name(name), Some(preset));
            let spec = CitySpec::preset(preset);
            spec.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            let city = generate_city(&spec, &SimRng::new(2020));
            let (enb, gnb) = spec.site_counts();
            assert_eq!(city.plan.enb_sites.len(), enb, "{name}");
            assert_eq!(city.plan.gnb_sites.len(), gnb, "{name}");
            assert!(!city.map.buildings.is_empty(), "{name}");
            for (g, &e) in city.plan.gnb_sites.iter().zip(&city.plan.gnb_cosite) {
                assert_eq!(g.pos, city.plan.enb_sites[e].pos, "{name}: NSA co-siting");
            }
        }
    }

    #[test]
    fn unknown_preset_is_none() {
        assert!(CityPreset::from_name("urban_macro").is_none());
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = CitySpec::dense_urban();
        let a = generate_city(&spec, &SimRng::new(7));
        let b = generate_city(&spec, &SimRng::new(7));
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.map.buildings, b.map.buildings);
    }

    /// Growing the city keeps the original tiles byte-identical: tile
    /// content depends only on (seed, tile index), not city dims.
    #[test]
    fn tiles_are_stable_under_growth() {
        let small = CitySpec {
            tiles_x: 2,
            tiles_y: 1,
            ..CitySpec::dense_urban()
        };
        let big = CitySpec {
            tiles_x: 2,
            tiles_y: 2,
            ..CitySpec::dense_urban()
        };
        let rng = SimRng::new(2020);
        let a = generate_city(&small, &rng);
        let b = generate_city(&big, &rng);
        // The small city's tiles are indices 0..2, which are also the
        // first row of the big city.
        let in_row0 = |bld: &Building| bld.footprint.max.y <= small.tile_m + 1.0;
        let row0_a: Vec<_> = a.map.buildings.iter().filter(|b| in_row0(b)).collect();
        let row0_b: Vec<_> = b.map.buildings.iter().filter(|b| in_row0(b)).collect();
        assert_eq!(row0_a, row0_b);
        assert_eq!(
            &a.plan.enb_sites[..],
            &b.plan.enb_sites[..a.plan.enb_sites.len()]
        );
    }

    #[test]
    fn density_scales_with_spec() {
        let spec = CitySpec {
            tiles_x: 3,
            tiles_y: 3,
            ..CitySpec::dense_urban()
        };
        let city = generate_city(&spec, &SimRng::new(2020));
        let area = city.map.area_km2();
        let enb_density = city.plan.enb_sites.len() as f64 / area;
        // dense_urban: 4 eNB per 0.16 km² tile = 25 /km².
        assert!((enb_density - 25.0).abs() < 1e-9, "enb {enb_density}");
        // Big enough to trip the tiled index auto-selection.
        assert!(city.map.buildings.len() > crate::map::TILED_INDEX_THRESHOLD);
        assert!(city.map.spatial_index().is_tiled());
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let mut s = CitySpec::dense_urban();
        s.gnb_per_tile = s.enb_per_tile + 1;
        assert!(s.validate().is_err());
        let mut s = CitySpec::dense_urban();
        s.tiles_x = 0;
        assert!(s.validate().is_err());
        let mut s = CitySpec::dense_urban();
        s.concrete_fraction = 1.5;
        assert!(s.validate().is_err());
    }

    #[test]
    fn roads_stay_outdoor() {
        let city = generate_city(&CitySpec::dense_urban(), &SimRng::new(2020));
        for road in &city.map.roads {
            let len = road.length();
            let mut s = 0.0;
            while s < len {
                assert!(!city.map.is_indoor(road.at_distance(s)));
                s += 15.0;
            }
        }
    }
}
