//! Deterministic synthetic campus generator.
//!
//! Reproduces the measurement environment of the paper's Sec. 2–3:
//! a 0.5 km × 0.92 km dense urban campus with brick/concrete buildings
//! and a ~6 km road network, covered by 13 LTE eNB sites (34 cells,
//! 28.14 sites/km²) of which 6 also host NSA gNBs (13 NR cells,
//! 12.99 sites/km²). Building layout and site jitter are seeded, so a
//! given seed always yields the identical campus.

use crate::building::{Building, Material};
use crate::map::{CampusMap, Road};
use crate::point::{Point, Rect};
use fiveg_simcore::SimRng;
use serde::Serialize;

/// A base-station site: a position plus the boresight azimuth of each
/// sector (cell) it hosts.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Site {
    /// Site position (antenna mast), metres.
    pub pos: Point,
    /// One boresight azimuth per sector, degrees CCW from east.
    pub sector_azimuths: Vec<f64>,
}

impl Site {
    /// Number of sectors (cells) at the site.
    pub fn num_sectors(&self) -> usize {
        self.sector_azimuths.len()
    }
}

/// The deployment plan: all 4G sites plus the subset that also hosts 5G.
///
/// Under NSA every gNB co-sits with an eNB (paper Sec. 3.1), but not every
/// eNB has a 5G companion.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SitePlan {
    /// All LTE eNB sites.
    pub enb_sites: Vec<Site>,
    /// NR gNB sites; `gnb_cosite[i]` gives the index of the eNB each
    /// co-sits with.
    pub gnb_sites: Vec<Site>,
    /// For each gNB, the index into `enb_sites` it shares a mast with.
    pub gnb_cosite: Vec<usize>,
}

impl SitePlan {
    /// Total number of 4G cells.
    #[cfg(test)]
    fn num_enb_cells(&self) -> usize {
        self.enb_sites.iter().map(Site::num_sectors).sum()
    }

    /// Total number of 5G cells.
    #[cfg(test)]
    fn num_gnb_cells(&self) -> usize {
        self.gnb_sites.iter().map(Site::num_sectors).sum()
    }
}

/// Parameters for the campus generator.
#[derive(Debug, Clone, Serialize)]
pub struct CampusConfig {
    /// Campus width (east-west), metres. Paper: 500.
    pub width: f64,
    /// Campus height (north-south), metres. Paper: 920.
    pub height: f64,
    /// Number of eNB sites. Paper: 13.
    pub num_enb_sites: usize,
    /// Number of gNB sites (must be ≤ eNB sites). Paper: 6.
    pub num_gnb_sites: usize,
    /// Fraction of concrete (vs brick) buildings.
    pub concrete_fraction: f64,
}

impl Default for CampusConfig {
    fn default() -> Self {
        CampusConfig {
            width: 500.0,
            height: 920.0,
            num_enb_sites: 13,
            num_gnb_sites: 6,
            concrete_fraction: 0.35,
        }
    }
}

/// A generated campus: the map plus the site plan.
#[derive(Debug, Clone, Serialize)]
pub struct Campus {
    /// The geometric map.
    pub map: CampusMap,
    /// Base-station deployment.
    pub plan: SitePlan,
}

impl Campus {
    /// Generates the campus deterministically from `rng`.
    pub fn generate(cfg: &CampusConfig, rng: &mut SimRng) -> Campus {
        assert!(
            cfg.num_gnb_sites <= cfg.num_enb_sites,
            "every gNB must co-sit with an eNB (NSA)"
        );
        let bounds = Rect::from_origin_size(Point::new(0.0, 0.0), cfg.width, cfg.height);
        let roads = Self::road_grid(cfg);
        let buildings = Self::buildings(cfg, rng);
        let plan = Self::site_plan(cfg, &buildings, rng);
        Campus {
            map: CampusMap::new(bounds, buildings, roads),
            plan,
        }
    }

    /// Generates the paper's campus with the default configuration.
    #[cfg(test)]
    fn paper_campus(rng: &mut SimRng) -> Campus {
        Campus::generate(&CampusConfig::default(), rng)
    }

    /// Road grid: 4 north-south avenues + 5 east-west streets, matching
    /// the paper's 6.019 km total road length to within a few percent.
    fn road_grid(cfg: &CampusConfig) -> Vec<Road> {
        let w = cfg.width;
        let h = cfg.height;
        let mut roads = Vec::new();
        let vx = [0.02 * w, 0.34 * w, 0.66 * w, 0.98 * w];
        for &x in &vx {
            roads.push(Road::new(vec![
                Point::new(x, 0.01 * h),
                Point::new(x, 0.99 * h),
            ]));
        }
        let hy = [0.01 * h, 0.255 * h, 0.50 * h, 0.745 * h, 0.99 * h];
        for &y in &hy {
            roads.push(Road::new(vec![
                Point::new(0.02 * w, y),
                Point::new(0.98 * w, y),
            ]));
        }
        roads
    }

    /// Fills the blocks between roads with buildings, leaving street
    /// margins so roads stay outdoor.
    fn buildings(cfg: &CampusConfig, rng: &mut SimRng) -> Vec<Building> {
        let w = cfg.width;
        let h = cfg.height;
        let mut out = Vec::new();
        // Blocks are the cells of the road grid (3 columns × 4 rows).
        let xs = [0.02 * w, 0.34 * w, 0.66 * w, 0.98 * w];
        let ys = [0.01 * h, 0.255 * h, 0.50 * h, 0.745 * h, 0.99 * h];
        for col in 0..xs.len() - 1 {
            for row in 0..ys.len() - 1 {
                let margin = 12.0;
                let block = Rect::new(
                    Point::new(xs[col] + margin, ys[row] + margin),
                    Point::new(xs[col + 1] - margin, ys[row + 1] - margin),
                );
                // 2×2 buildings per block with jittered footprints.
                for bi in 0..2 {
                    for bj in 0..2 {
                        let cell_w = block.width() / 2.0;
                        let cell_h = block.height() / 2.0;
                        let gap = 8.0;
                        let bw = (cell_w - 2.0 * gap) * rng.range_f64(0.55, 0.9);
                        let bh = (cell_h - 2.0 * gap) * rng.range_f64(0.55, 0.9);
                        if bw < 10.0 || bh < 10.0 {
                            continue;
                        }
                        let ox = block.min.x + bi as f64 * cell_w + gap;
                        let oy = block.min.y + bj as f64 * cell_h + gap;
                        let material = if rng.chance(cfg.concrete_fraction) {
                            Material::Concrete
                        } else {
                            Material::Brick
                        };
                        let height = rng.range_f64(12.0, 45.0); // "tall buildings"
                        out.push(Building::new(
                            Rect::from_origin_size(Point::new(ox, oy), bw, bh),
                            material,
                            height,
                        ));
                    }
                }
            }
        }
        out
    }

    /// Places eNB sites on a jittered lattice (rooftop masts, so the mast
    /// point may fall on a building; propagation treats the site as
    /// elevated and only obstructs rays by *other* buildings). Sector
    /// counts are chosen so totals match the paper: 34 LTE cells over 13
    /// sites, 13 NR cells over 6 sites.
    fn site_plan(cfg: &CampusConfig, _buildings: &[Building], rng: &mut SimRng) -> SitePlan {
        let w = cfg.width;
        let h = cfg.height;
        let n = cfg.num_enb_sites;
        // The first `num_gnb_sites` eNB positions are the NSA co-sites.
        // The operator chooses them to tile the campus with the ≈230 m
        // NR cells (a jittered 2×3 lattice keeps every point within
        // ≈200 m of a gNB); the remaining eNBs fill interstitial spots —
        // 4G's ≈520 m radius covers the campus from anywhere.
        let mut positions = Vec::with_capacity(n);
        let gnb_frac: &[(f64, f64)] = &[
            (0.25, 0.17),
            (0.75, 0.17),
            (0.25, 0.50),
            (0.75, 0.50),
            (0.25, 0.83),
            (0.75, 0.83),
        ];
        let extra_frac: &[(f64, f64)] = &[
            (0.50, 0.06),
            (0.06, 0.33),
            (0.94, 0.33),
            (0.50, 0.60),
            (0.06, 0.72),
            (0.94, 0.72),
            (0.50, 0.94),
        ];
        for &(fx, fy) in gnb_frac.iter().take(cfg.num_gnb_sites) {
            let x = fx * w + rng.range_f64(-0.04, 0.04) * w;
            let y = fy * h + rng.range_f64(-0.03, 0.03) * h;
            positions.push(Point::new(x.clamp(10.0, w - 10.0), y.clamp(10.0, h - 10.0)));
        }
        let mut k = 0usize;
        while positions.len() < n {
            let (fx, fy) = extra_frac[k % extra_frac.len()];
            let x = fx * w + rng.range_f64(-0.06, 0.06) * w;
            let y = fy * h + rng.range_f64(-0.04, 0.04) * h;
            positions.push(Point::new(x.clamp(10.0, w - 10.0), y.clamp(10.0, h - 10.0)));
            k += 1;
        }
        // Sector layout for eNBs: enough 3-sector sites to reach 34 cells
        // when the remainder have 2 (13 sites: 8×3 + 5×2 = 34).
        let three_sector_enbs = (34usize).saturating_sub(2 * n);
        let enb_sites: Vec<Site> = positions
            .iter()
            .enumerate()
            .map(|(i, &pos)| {
                let rot = rng.range_f64(0.0, 120.0);
                let azimuths = if i < three_sector_enbs {
                    vec![rot, rot + 120.0, rot + 240.0]
                } else {
                    vec![rot, rot + 180.0]
                };
                Site {
                    pos,
                    sector_azimuths: azimuths.into_iter().map(|a| a % 360.0).collect(),
                }
            })
            .collect();
        // gNBs co-sit with the first `num_gnb_sites` eNBs (the coverage
        // lattice above); one gets 3 sectors so totals match the paper
        // (6 sites: 1×3 + 5×2 = 13 NR cells).
        let chosen: Vec<usize> = (0..cfg.num_gnb_sites).collect();
        let mut gnb_sites = Vec::new();
        let mut gnb_cosite = Vec::new();
        for (g, &idx) in chosen.iter().enumerate() {
            let rot = rng.range_f64(0.0, 120.0);
            let azimuths = if g == 0 {
                vec![rot, rot + 120.0, rot + 240.0]
            } else {
                vec![rot, rot + 180.0]
            };
            gnb_sites.push(Site {
                pos: enb_sites[idx].pos,
                sector_azimuths: azimuths.into_iter().map(|a| a % 360.0).collect(),
            });
            gnb_cosite.push(idx);
        }
        SitePlan {
            enb_sites,
            gnb_sites,
            gnb_cosite,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn campus() -> Campus {
        Campus::paper_campus(&mut SimRng::new(2020))
    }

    #[test]
    fn dimensions_match_paper() {
        let c = campus();
        assert_eq!(c.map.bounds.width(), 500.0);
        assert_eq!(c.map.bounds.height(), 920.0);
        assert!((c.map.area_km2() - 0.46).abs() < 1e-9);
    }

    #[test]
    fn road_length_close_to_paper() {
        let c = campus();
        let len = c.map.total_road_length();
        // Paper: 6.019 km of roads.
        assert!((5_400.0..6_700.0).contains(&len), "road length {len}");
    }

    #[test]
    fn cell_counts_match_table1() {
        let c = campus();
        assert_eq!(c.plan.enb_sites.len(), 13);
        assert_eq!(c.plan.gnb_sites.len(), 6);
        assert_eq!(c.plan.num_enb_cells(), 34);
        assert_eq!(c.plan.num_gnb_cells(), 13);
    }

    #[test]
    fn gnbs_cosit_with_enbs() {
        let c = campus();
        for (g, &e) in c.plan.gnb_sites.iter().zip(&c.plan.gnb_cosite) {
            assert_eq!(g.pos, c.plan.enb_sites[e].pos);
        }
        // gNBs co-sit with *distinct* eNBs.
        let mut idx = c.plan.gnb_cosite.clone();
        idx.sort_unstable();
        idx.dedup();
        assert_eq!(idx.len(), 6);
    }

    #[test]
    fn densities_match_paper_scale() {
        let c = campus();
        let gnb_density = c.plan.gnb_sites.len() as f64 / c.map.area_km2();
        let enb_density = c.plan.enb_sites.len() as f64 / c.map.area_km2();
        // Paper: 12.99 gNBs/km^2 and 28.14 eNBs/km^2.
        assert!((gnb_density - 13.04).abs() < 0.2, "gnb {gnb_density}");
        assert!((enb_density - 28.26).abs() < 0.3, "enb {enb_density}");
    }

    #[test]
    fn buildings_present_and_inside_bounds() {
        let c = campus();
        assert!(c.plan.enb_sites.len() < c.map.buildings.len());
        for b in &c.map.buildings {
            assert!(c.map.bounds.contains(b.footprint.min));
            assert!(c.map.bounds.contains(b.footprint.max));
            assert!(b.height >= 12.0 && b.height <= 45.0);
        }
        // Reasonable built-up fraction (dense urban campus).
        let built: f64 = c.map.buildings.iter().map(|b| b.footprint.area()).sum();
        let frac = built / c.map.bounds.area();
        assert!((0.1..0.6).contains(&frac), "built fraction {frac}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Campus::paper_campus(&mut SimRng::new(99));
        let b = Campus::paper_campus(&mut SimRng::new(99));
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.map.buildings, b.map.buildings);
    }

    #[test]
    fn roads_are_outdoor() {
        let c = campus();
        for road in &c.map.roads {
            let len = road.length();
            let mut s = 0.0;
            let mut indoor = 0;
            let mut total = 0;
            while s < len {
                if c.map.is_indoor(road.at_distance(s)) {
                    indoor += 1;
                }
                total += 1;
                s += 10.0;
            }
            assert_eq!(indoor, 0, "road has {indoor}/{total} indoor samples");
        }
    }
}
