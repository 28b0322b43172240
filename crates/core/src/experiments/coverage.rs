//! Coverage experiments: Tab. 1, Tab. 2, Fig. 2a, Fig. 2b, Fig. 3.

use crate::par;
use crate::report;
use crate::scenario::Scenario;
use fiveg_geo::{Point, RoadSurvey};
use fiveg_phy::{MeasureScratch, RadioEnv, Tech};
use fiveg_simcore::{Cdf, Histogram, OnlineStats, SimRng};
use serde::Serialize;

/// The paper's Tab. 2 RSRP bucket edges, ascending.
pub const RSRP_EDGES: [f64; 7] = [-140.0, -105.0, -90.0, -80.0, -70.0, -60.0, -40.0];

/// Tab. 1: basic physical info per technology.
#[derive(Debug, Clone, Serialize)]
pub struct Table1 {
    /// Number of 4G cells.
    pub cells_4g: usize,
    /// Number of 5G cells.
    pub cells_5g: usize,
    /// Road-survey RSRP mean/std for 4G, dBm/dB.
    pub rsrp_4g: (f64, f64),
    /// Road-survey RSRP mean/std for 5G, dBm/dB.
    pub rsrp_5g: (f64, f64),
    /// Samples in the survey.
    pub samples: usize,
}

impl Table1 {
    /// Renders the table with the paper's values alongside.
    pub fn to_text(&self) -> String {
        let mut s = String::from("== Table 1: basic physical info ==\n");
        s += &report::compare(
            "4G cells",
            crate::calib::PAPER_NUM_CELLS_4G as f64,
            self.cells_4g as f64,
            "",
        );
        s.push('\n');
        s += &report::compare(
            "5G cells",
            crate::calib::PAPER_NUM_CELLS_5G as f64,
            self.cells_5g as f64,
            "",
        );
        s.push('\n');
        s += &report::compare(
            "4G mean RSRP",
            crate::calib::PAPER_MEAN_RSRP_4G,
            self.rsrp_4g.0,
            "dBm",
        );
        s.push('\n');
        s += &report::compare(
            "4G RSRP std",
            crate::calib::PAPER_STD_RSRP_4G,
            self.rsrp_4g.1,
            "dB",
        );
        s.push('\n');
        s += &report::compare(
            "5G mean RSRP",
            crate::calib::PAPER_MEAN_RSRP_5G,
            self.rsrp_5g.0,
            "dBm",
        );
        s.push('\n');
        s += &report::compare(
            "5G RSRP std",
            crate::calib::PAPER_STD_RSRP_5G,
            self.rsrp_5g.1,
            "dB",
        );
        s.push('\n');
        s
    }
}

/// Runs the blanket road survey and produces Tab. 1, measuring on
/// `threads` sweep threads (the result does not depend on them).
pub fn table1(sc: &Scenario, threads: usize) -> Table1 {
    table1_with(sc, &RoadSurvey::paper_default(), threads)
}

/// [`table1`] with an explicit survey configuration — the scenario DSL's
/// `survey` workload runs through here, so a paper-default scenario file
/// is byte-faithful to the registry's `table1` job.
pub fn table1_with(sc: &Scenario, survey: &RoadSurvey, threads: usize) -> Table1 {
    let trace = survey.generate(&sc.campus.map);
    // Measure in parallel (order-preserved), then reduce serially —
    // `OnlineStats` accumulation is float-order-sensitive.
    let measured = par::par_map_with(&trace.points, threads, MeasureScratch::new, |s, _, p| {
        (
            sc.env
                .serving_into(p.pos, Tech::Lte, s)
                .map(|m| m.rsrp.value()),
            sc.env
                .serving_into(p.pos, Tech::Nr, s)
                .map(|m| m.rsrp.value()),
        )
    });
    let mut s4 = OnlineStats::new();
    let mut s5 = OnlineStats::new();
    for (m4, m5) in measured {
        if let Some(v) = m4 {
            s4.push(v);
        }
        if let Some(v) = m5 {
            s5.push(v);
        }
    }
    Table1 {
        cells_4g: sc.env.num_cells(Tech::Lte),
        cells_5g: sc.env.num_cells(Tech::Nr),
        rsrp_4g: (s4.mean(), s4.std_dev()),
        rsrp_5g: (s5.mean(), s5.std_dev()),
        samples: trace.len(),
    }
}

/// Tab. 2: RSRP bucket distribution.
#[derive(Debug, Clone, Serialize)]
pub struct Table2 {
    /// Fraction per bucket for 4G (all 13 eNBs).
    pub frac_4g: [f64; 6],
    /// Fraction per bucket for 5G.
    pub frac_5g: [f64; 6],
    /// Fraction per bucket for 4G restricted to the 6 co-sited eNBs.
    pub frac_4g_cosited: [f64; 6],
    /// Number of sampled locations (paper: 4630).
    pub samples: usize,
}

impl Table2 {
    /// Coverage-hole fraction (RSRP < −105 dBm), per column.
    #[cfg(test)]
    fn holes(&self) -> (f64, f64, f64) {
        (self.frac_4g[0], self.frac_5g[0], self.frac_4g_cosited[0])
    }

    /// Renders the table.
    pub fn to_text(&self) -> String {
        let labels = [
            "[-140,-105)",
            "[-105,-90)",
            "[-90,-80)",
            "[-80,-70)",
            "[-70,-60)",
            "[-60,-40)",
        ];
        let rows: Vec<Vec<String>> = (0..6)
            .map(|i| {
                vec![
                    labels[i].to_owned(),
                    format!(
                        "{:.2}% ({:.2}%)",
                        self.frac_4g[i] * 100.0,
                        crate::calib::PAPER_TAB2_4G[5 - i] * 100.0
                    ),
                    format!(
                        "{:.2}% ({:.2}%)",
                        self.frac_5g[i] * 100.0,
                        crate::calib::PAPER_TAB2_5G[5 - i] * 100.0
                    ),
                    format!("{:.2}%", self.frac_4g_cosited[i] * 100.0),
                ]
            })
            .collect();
        report::table(
            "Table 2: RSRP distribution — measured (paper)",
            &["RSRP dBm", "4G", "5G", "4G (6 eNBs)"],
            &rows,
        )
    }
}

/// Samples `n` random outdoor/indoor mixed locations and buckets RSRP —
/// the paper sampled 4630 locations along roads. Measures on `threads`
/// sweep threads.
pub fn table2(sc: &Scenario, n: usize, threads: usize) -> Table2 {
    let mut rng = sc.rng("table2");
    let trace = RoadSurvey::paper_default().generate(&sc.campus.map);
    let mut h4 = Histogram::new(RSRP_EDGES.to_vec());
    let mut h5 = Histogram::new(RSRP_EDGES.to_vec());
    let mut h4c = Histogram::new(RSRP_EDGES.to_vec());
    // The 6 co-sited eNBs are the first `num_gnb_sites` sites; their
    // cells carry the lowest LTE PCIs. Compute which PCIs belong to them.
    let cosited_sectors: usize = sc
        .campus
        .plan
        .gnb_cosite
        .iter()
        .map(|&i| sc.campus.plan.enb_sites[i].num_sectors())
        .sum();
    let cosited_max_pci = 200 + cosited_sectors as u16;
    // Draw every sampled position first (keeping the RNG stream serial
    // and unchanged), then measure the batch in parallel.
    let positions: Vec<Point> = (0..n)
        .map(|_| trace.points[rng.index(trace.len())].pos)
        .collect();
    let measured = par::par_map_with(&positions, threads, MeasureScratch::new, |s, _, &p| {
        // One LTE sweep serves both columns: the serving cell is the
        // first entry, the density-matched 4G column the best cell
        // among the co-sited eNBs only.
        let (m4, m4c) = {
            let all = sc.env.measure_all_into(p, Tech::Lte, s);
            (
                all.first().map(|m| m.rsrp.value()),
                all.iter()
                    .find(|m| m.pci < cosited_max_pci)
                    .map(|m| m.rsrp.value()),
            )
        };
        let m5 = sc.env.serving_into(p, Tech::Nr, s).map(|m| m.rsrp.value());
        (m4, m5, m4c)
    });
    for (m4, m5, m4c) in measured {
        if let Some(v) = m4 {
            h4.push(v);
        }
        if let Some(v) = m5 {
            h5.push(v);
        }
        if let Some(v) = m4c {
            h4c.push(v);
        }
    }
    let frac = |h: &Histogram| -> [f64; 6] {
        let mut out = [0.0; 6];
        for (i, v) in out.iter_mut().enumerate() {
            *v = h.fraction(i);
        }
        out
    };
    Table2 {
        frac_4g: frac(&h4),
        frac_5g: frac(&h5),
        frac_4g_cosited: frac(&h4c),
        samples: n,
    }
}

/// Fig. 2a: the campus RSRP map — strongest-cell RSRP on a grid.
#[derive(Debug, Clone, Serialize)]
pub struct Fig2a {
    /// Grid spacing, metres.
    pub step_m: f64,
    /// `(x, y, rsrp_dbm, serving_pci)` per outdoor grid point.
    pub points: Vec<(f64, f64, f64, u16)>,
    /// Fraction of grid points that are coverage holes.
    pub hole_fraction: f64,
}

impl Fig2a {
    /// Renders a coarse ASCII map (holes = '!', strong = '#').
    pub fn to_text(&self) -> String {
        let mut s = format!(
            "== Fig. 2a: campus 5G RSRP map ==\n{} outdoor points, hole fraction {:.2}%\n",
            self.points.len(),
            self.hole_fraction * 100.0
        );
        // 26 × 24 ASCII raster.
        let (w, h) = (500.0, 920.0);
        let (cols, rows) = (26usize, 24usize);
        let mut grid = vec![vec![' '; cols]; rows];
        for &(x, y, rsrp, _) in &self.points {
            let c = ((x / w * cols as f64) as usize).min(cols - 1);
            let r = ((y / h * rows as f64) as usize).min(rows - 1);
            grid[rows - 1 - r][c] = match rsrp {
                v if v >= -70.0 => '#',
                v if v >= -90.0 => '+',
                v if v >= -105.0 => '.',
                _ => '!',
            };
        }
        for row in grid {
            s.push_str(&row.into_iter().collect::<String>());
            s.push('\n');
        }
        s.push_str("legend: '#' ≥ -70 dBm, '+' ≥ -90, '.' ≥ -105, '!' hole\n");
        s
    }
}

/// Computes the Fig. 2a grid map for 5G on `threads` sweep threads.
pub fn fig2a(sc: &Scenario, step_m: f64, threads: usize) -> Fig2a {
    let samples = sc.campus.map.grid_samples(step_m, true);
    let measured = par::par_map_with(&samples, threads, MeasureScratch::new, |s, _, &p| {
        sc.env
            .serving_into(p, Tech::Nr, s)
            .map(|m| (p.x, p.y, m.rsrp.value(), m.pci))
    });
    let mut points = Vec::with_capacity(samples.len());
    let mut holes = 0usize;
    for m in measured.into_iter().flatten() {
        if m.2 < -105.0 {
            holes += 1;
        }
        points.push(m);
    }
    let hole_fraction = holes as f64 / points.len().max(1) as f64;
    Fig2a {
        step_m,
        points,
        hole_fraction,
    }
}

/// Fig. 2b: bit-rate contour of a single cell (the paper's cell 72
/// analogue: the first NR cell), sampled on a 20 m grid around the site.
#[derive(Debug, Clone, Serialize)]
pub struct Fig2b {
    /// The locked cell's PCI.
    pub pci: u16,
    /// Site position.
    pub site: (f64, f64),
    /// `(x, y, bitrate_mbps)` samples.
    pub samples: Vec<(f64, f64, f64)>,
    /// Estimated service radius along the boresight, metres.
    pub boresight_radius_m: f64,
}

impl Fig2b {
    /// Renders summary statistics.
    pub fn to_text(&self) -> String {
        let rates: Vec<f64> = self.samples.iter().map(|&(.., r)| r).collect();
        let max = rates.iter().copied().fold(0.0, f64::max);
        let served = rates.iter().filter(|&&r| r > 0.0).count();
        format!(
            "== Fig. 2b: cell {} bit-rate contour ==\n\
             {} grid samples, {} in service, peak {:.0} Mbps\n{}\n",
            self.pci,
            self.samples.len(),
            served,
            max,
            report::compare(
                "boresight service radius",
                crate::calib::PAPER_5G_CELL_RADIUS_M,
                self.boresight_radius_m,
                "m"
            )
        )
    }
}

/// Computes Fig. 2b for the first NR cell on `threads` sweep threads.
pub fn fig2b(sc: &Scenario, threads: usize) -> Fig2b {
    let env: &RadioEnv = &sc.env;
    // PCI 60 is the first NR cell of every paper deployment; if a
    // variant scenario drops it, degrade to cell 0 instead of aborting
    // the whole campaign.
    let idx = env.cell_index(Tech::Nr, 60).unwrap_or(0);
    let cell = env.cells[idx];
    // 20 m grid out to 320 m around the site, as the paper partitioned
    // the neighbourhood of cell 72. Enumerate the grid serially, sweep
    // it in parallel.
    let step = 20.0;
    let reach = 320.0;
    let mut grid = Vec::new();
    let mut y = cell.pos.y - reach;
    while y <= cell.pos.y + reach {
        let mut x = cell.pos.x - reach;
        while x <= cell.pos.x + reach {
            let p = Point::new(x, y);
            if sc.campus.map.bounds.contains(p) {
                grid.push(p);
            }
            x += step;
        }
        y += step;
    }
    let samples: Vec<(f64, f64, f64)> =
        par::par_map_with(&grid, threads, MeasureScratch::new, |s, _, &p| {
            env.measure_pci_into(p, cell.tech(), cell.pci, s).map(|m| {
                let kpi = env.kpi_for(m, p, 1.0);
                (p.x, p.y, kpi.bitrate.mbps())
            })
        })
        .into_iter()
        .flatten()
        .collect();
    // Boresight walk until the cell drops out of service (paper: the
    // LoS walk to location A at ≈230 m).
    let az = cell.antenna.azimuth_deg.to_radians();
    let dir = Point::new(az.cos(), az.sin());
    let mut scratch = MeasureScratch::new();
    let mut radius: f64 = 0.0;
    let mut d = 10.0;
    while d < 600.0 {
        let p = cell.pos + dir * d;
        if !sc.campus.map.bounds.contains(p) {
            break;
        }
        match env.measure_pci_into(p, cell.tech(), cell.pci, &mut scratch) {
            Some(m) if m.rsrp.value() >= -105.0 => radius = d,
            _ => {}
        }
        d += 10.0;
    }
    Fig2b {
        pci: cell.pci,
        site: (cell.pos.x, cell.pos.y),
        samples,
        boresight_radius_m: radius,
    }
}

/// Fig. 3: indoor vs outdoor bit-rate CDFs and the relative drop.
#[derive(Debug, Clone, Serialize)]
pub struct Fig3 {
    /// Outdoor bitrates, Mbps, per tech.
    pub outdoor_5g: Vec<f64>,
    /// Indoor bitrates, Mbps.
    pub indoor_5g: Vec<f64>,
    /// Outdoor 4G bitrates.
    pub outdoor_4g: Vec<f64>,
    /// Indoor 4G bitrates.
    pub indoor_4g: Vec<f64>,
}

impl Fig3 {
    /// Mean relative indoor drop for 5G.
    pub fn drop_5g(&self) -> f64 {
        1.0 - mean(&self.indoor_5g) / mean(&self.outdoor_5g)
    }

    /// Mean relative indoor drop for 4G.
    pub fn drop_4g(&self) -> f64 {
        1.0 - mean(&self.indoor_4g) / mean(&self.outdoor_4g)
    }

    /// Renders the comparison.
    pub fn to_text(&self) -> String {
        let mut s = String::from("== Fig. 3: indoor-outdoor bit-rate gap ==\n");
        s += &report::cdf_line(
            "5G outdoor",
            &Cdf::from_samples(self.outdoor_5g.clone()),
            "Mbps",
        );
        s.push('\n');
        s += &report::cdf_line(
            "5G indoor ",
            &Cdf::from_samples(self.indoor_5g.clone()),
            "Mbps",
        );
        s.push('\n');
        s += &report::cdf_line(
            "4G outdoor",
            &Cdf::from_samples(self.outdoor_4g.clone()),
            "Mbps",
        );
        s.push('\n');
        s += &report::cdf_line(
            "4G indoor ",
            &Cdf::from_samples(self.indoor_4g.clone()),
            "Mbps",
        );
        s.push('\n');
        s += &report::compare(
            "5G indoor drop",
            crate::calib::PAPER_INDOOR_DROP_5G * 100.0,
            self.drop_5g() * 100.0,
            "%",
        );
        s.push('\n');
        s += &report::compare(
            "4G indoor drop",
            crate::calib::PAPER_INDOOR_DROP_4G * 100.0,
            self.drop_4g() * 100.0,
            "%",
        );
        s.push('\n');
        s
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Measures immediately-adjacent indoor/outdoor spot pairs around
/// buildings ~100 m from gNB sites (the paper's F/G/H/I locations).
pub fn fig3(sc: &Scenario) -> Fig3 {
    let mut out = Fig3 {
        outdoor_5g: Vec::new(),
        indoor_5g: Vec::new(),
        outdoor_4g: Vec::new(),
        indoor_4g: Vec::new(),
    };
    let mut rng: SimRng = sc.rng("fig3");
    let mut scratch = MeasureScratch::new();
    for b in &sc.campus.map.buildings {
        let c = b.footprint.center();
        // Keep buildings within 60–160 m of some gNB (the paper measured
        // ≈100 m from the site).
        let nearest = sc
            .campus
            .plan
            .gnb_sites
            .iter()
            .map(|s| s.pos.distance(c))
            .fold(f64::INFINITY, f64::min);
        if !(60.0..=160.0).contains(&nearest) {
            continue;
        }
        // Several adjacent spot pairs straddling the west wall: indoor
        // just inside, outdoor just outside, at the same height along
        // the wall. Keeping the pair a few metres apart isolates the
        // penetration loss — comparing the wall spot against the
        // building *centre* would fold tens of metres of path-loss and
        // shadowing difference into the "indoor drop".
        let half_h = (b.footprint.max.y - b.footprint.min.y) / 2.0;
        for _ in 0..3 {
            let y = c.y + rng.range_f64(-half_h * 0.6, half_h * 0.6);
            let indoor = Point::new(b.footprint.min.x + 3.0, y);
            let outdoor = Point::new(b.footprint.min.x - 4.0, y);
            if !sc.campus.map.is_indoor(indoor) || sc.campus.map.is_indoor(outdoor) {
                continue;
            }
            for (tech, ovec, ivec) in [
                (Tech::Nr, &mut out.outdoor_5g, &mut out.indoor_5g),
                (Tech::Lte, &mut out.outdoor_4g, &mut out.indoor_4g),
            ] {
                let o = sc.env.kpi_sample_into(outdoor, tech, 1.0, &mut scratch);
                let i = sc.env.kpi_sample_into(indoor, tech, 1.0, &mut scratch);
                if let (Some(o), Some(i)) = (o, i) {
                    ovec.push(o.bitrate.mbps());
                    ivec.push(i.bitrate.mbps());
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sc() -> Scenario {
        Scenario::paper(2020)
    }

    #[test]
    fn table1_matches_paper_scale() {
        let t = table1(&sc(), 2);
        assert_eq!(t.cells_4g, 34);
        assert_eq!(t.cells_5g, 13);
        assert!(
            (t.rsrp_4g.0 - crate::calib::PAPER_MEAN_RSRP_4G).abs() < 4.0,
            "{:?}",
            t.rsrp_4g
        );
        assert!(
            (t.rsrp_5g.0 - crate::calib::PAPER_MEAN_RSRP_5G).abs() < 6.0,
            "{:?}",
            t.rsrp_5g
        );
        assert!(!t.to_text().is_empty());
    }

    #[test]
    fn table2_reproduces_hole_ordering() {
        let t = table2(&sc(), 4630, 2);
        let (h4, h5, h4c) = t.holes();
        // The paper's key observations: 5G holes ≫ 4G holes, and the
        // density-matched 4G subset still beats 5G.
        assert!(h5 > 0.02, "5G holes {h5}");
        assert!(h5 > h4 + 0.02, "5G {h5} vs 4G {h4}");
        assert!(h4c < h5, "co-sited 4G {h4c} vs 5G {h5}");
        assert!(h4c >= h4, "densifying can only help: {h4c} vs {h4}");
        // Distributions sum to one.
        assert!((t.frac_5g.iter().sum::<f64>() - 1.0).abs() < 0.02);
        assert!(!t.to_text().is_empty());
    }

    #[test]
    fn fig2a_has_holes_and_renders() {
        let f = fig2a(&sc(), 25.0, 2);
        assert!(f.points.len() > 200);
        assert!(
            f.hole_fraction > 0.01 && f.hole_fraction < 0.30,
            "{}",
            f.hole_fraction
        );
        let txt = f.to_text();
        assert!(txt.contains("legend"));
    }

    #[test]
    fn fig2b_radius_near_230m() {
        let f = fig2b(&sc(), 2);
        assert!(
            (150.0..320.0).contains(&f.boresight_radius_m),
            "radius {}",
            f.boresight_radius_m
        );
        assert!(f.samples.len() > 100);
        // Peak bitrate should approach the PHY max near the site.
        let peak = f.samples.iter().map(|&(.., r)| r).fold(0.0, f64::max);
        assert!(peak > 700.0, "peak {peak}");
    }

    #[test]
    fn fig3_indoor_drop_ordering() {
        let f = fig3(&sc());
        assert!(f.outdoor_5g.len() >= 5, "only {} pairs", f.outdoor_5g.len());
        let d5 = f.drop_5g();
        let d4 = f.drop_4g();
        // 5G suffers roughly twice the indoor drop (paper: 50.6 % vs
        // 20.4 %).
        assert!(d5 > d4, "5G {d5} vs 4G {d4}");
        assert!(d5 > 0.25, "5G drop {d5}");
        assert!((0.0..0.6).contains(&d4), "4G drop {d4}");
    }
}
