//! Propagation loss and shadowing.
//!
//! The model is a log-distance urban form with an explicit LoS/NLoS
//! branch and a frequency-dependent *street clutter* term (foliage,
//! vehicles, street furniture) that grows linearly with distance:
//!
//! ```text
//! PL_LoS(d)  = PL0(f) + 10·n_los ·log10(d/d0) + γ(f)·d/100
//! PL_NLoS(d) = max(PL_LoS, PL0(f) + Δ_nlos + 10·n_nlos·log10(d/d0) + γ(f)·d/100)
//! ```
//!
//! with `d0 = 10 m` and `PL0(f)` the free-space loss at `d0` plus a fixed
//! clutter offset. The linear clutter term is what limits urban street
//! range far more than the log term alone; its frequency slope is why the
//! 3.5 GHz NR cell dies at ≈230 m where the 1.85 GHz LTE cell reaches
//! ≈520 m (paper Sec. 3.2) — those two radii are the calibration anchors
//! for [`PropagationParams::default_urban`].
//!
//! Shadowing is a deterministic, spatially-correlated log-normal field:
//! Gaussian values on a 50 m lattice (hashed from the seed and lattice
//! coordinates) interpolated bilinearly. Determinism keeps the coverage
//! map stable across queries — the same location always sees the same
//! shadowing, as in reality — while different cells get independent
//! fields.

use fiveg_simcore::{Db, Frequency};
use serde::Serialize;

/// Free-space path loss at distance `d` metres and frequency `f`.
pub fn free_space_db(d_m: f64, f: Frequency) -> Db {
    // FSPL(dB) = 20 log10(d_km) + 20 log10(f_MHz) + 32.44
    let d_km = (d_m.max(1.0)) / 1000.0;
    Db::new(20.0 * d_km.log10() + 20.0 * f.mhz().log10() + 32.44)
}

/// Parameters of the urban log-distance + clutter model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PropagationParams {
    /// Reference distance, metres.
    pub d0_m: f64,
    /// Fixed clutter offset added to free-space loss at `d0`, dB.
    pub clutter_offset_db: f64,
    /// LoS path-loss exponent.
    pub n_los: f64,
    /// NLoS path-loss exponent.
    pub n_nlos: f64,
    /// Additional fixed NLoS loss (diffraction around blockage), dB.
    pub nlos_extra_db: f64,
    /// Street-clutter attenuation at 1 GHz, dB per 100 m.
    pub clutter_per_100m_at_1ghz: f64,
    /// Frequency slope of the clutter attenuation, dB per 100 m per GHz.
    pub clutter_slope_per_ghz: f64,
    /// Shadowing standard deviation on LoS paths, dB.
    pub shadow_sigma_los: f64,
    /// Shadowing standard deviation on NLoS paths, dB.
    pub shadow_sigma_nlos: f64,
}

impl PropagationParams {
    /// Dense-urban parameters calibrated to the paper's observed cell
    /// radii (5G ≈230 m, 4G ≈520 m for the same −105 dBm service
    /// threshold).
    pub fn default_urban() -> Self {
        // The clutter line is solved through two anchors from the paper:
        // the −105 dBm contour must sit at ≈230 m for the 3.55 GHz NR
        // cell (per-RE EIRP ≈43.9 dBm, see carrier.rs) and ≈520 m for
        // the 1.85 GHz LTE cell (≈12.2 dBm), giving γ(1.85) ≈ 1.8 and
        // γ(3.55) ≈ 21.0 dB/100 m. The steep frequency slope folds in
        // everything that punishes 3.5 GHz street-level reception in
        // dense clutter (foliage, vehicles, body loss, beam
        // misalignment).
        PropagationParams {
            d0_m: 10.0,
            clutter_offset_db: 2.0,
            n_los: 2.8,
            n_nlos: 2.9,
            nlos_extra_db: 6.0,
            clutter_per_100m_at_1ghz: -19.10,
            clutter_slope_per_ghz: 11.29,
            shadow_sigma_los: 5.0,
            shadow_sigma_nlos: 9.0,
        }
    }

    /// Street-clutter attenuation for a given frequency, dB per 100 m
    /// (floored at 1 dB/100 m for low frequencies).
    pub fn clutter_per_100m(&self, f: Frequency) -> f64 {
        (self.clutter_per_100m_at_1ghz + self.clutter_slope_per_ghz * f.ghz()).max(1.0)
    }

    /// Reference loss at `d0`: free-space loss plus the clutter offset.
    /// Frequency-only, so per-cell callers hoist it out of the hot loop.
    pub fn pl0_db(&self, f: Frequency) -> f64 {
        free_space_db(self.d0_m, f).value() + self.clutter_offset_db
    }

    /// [`PropagationParams::loss_los_from`] with the frequency terms
    /// computed in place.
    #[cfg(test)]
    pub(crate) fn loss_los(&self, d_m: f64, f: Frequency) -> Db {
        Db::new(self.loss_los_from(self.pl0_db(f), self.clutter_per_100m(f), d_m))
    }

    /// Median (shadowing-free) LoS path loss at distance `d_m`, from the
    /// precomputed frequency terms [`PropagationParams::pl0_db`] and
    /// [`PropagationParams::clutter_per_100m`].
    pub fn loss_los_from(&self, pl0: f64, clutter_per_100m: f64, d_m: f64) -> f64 {
        let d = d_m.max(self.d0_m);
        pl0 + 10.0 * self.n_los * (d / self.d0_m).log10() + clutter_per_100m * d / 100.0
    }

    /// [`PropagationParams::loss_nlos_from`] with the frequency terms
    /// computed in place.
    #[cfg(test)]
    pub(crate) fn loss_nlos(&self, d_m: f64, f: Frequency) -> Db {
        Db::new(self.loss_nlos_from(self.pl0_db(f), self.clutter_per_100m(f), d_m))
    }

    /// Median NLoS path loss at distance `d_m` from the precomputed
    /// frequency terms, never below
    /// [`PropagationParams::loss_los_from`].
    pub fn loss_nlos_from(&self, pl0: f64, clutter_per_100m: f64, d_m: f64) -> f64 {
        let d = d_m.max(self.d0_m);
        let nlos = pl0
            + self.nlos_extra_db
            + 10.0 * self.n_nlos * (d / self.d0_m).log10()
            + clutter_per_100m * d / 100.0;
        nlos.max(self.loss_los_from(pl0, clutter_per_100m, d_m))
    }
}

/// Deterministic spatially-correlated shadowing field.
///
/// Values at 50 m lattice points are standard Gaussians derived by
/// hashing `(seed, i, j)`; queries interpolate bilinearly and scale by
/// the configured sigma. Correlation length is therefore ≈ the lattice
/// spacing, in line with the 30–70 m decorrelation distances reported
/// for urban macro cells.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ShadowingField {
    seed: u64,
    /// Lattice spacing, metres.
    pub grid_m: f64,
}

impl ShadowingField {
    /// Creates a field with the given per-cell seed and a 50 m lattice.
    pub fn new(seed: u64) -> Self {
        ShadowingField { seed, grid_m: 50.0 }
    }

    /// splitmix64-style integer hash.
    fn hash(&self, i: i64, j: i64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add((j as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Standard Gaussian at a lattice point via Box–Muller over two
    /// hashed uniforms.
    fn gaussian_at(&self, i: i64, j: i64) -> f64 {
        let h1 = self.hash(i, j);
        let h2 = self.hash(j.wrapping_add(0x5bd1), i.wrapping_sub(0x27d4));
        let u1 = ((h1 >> 11) as f64 + 1.0) / (1u64 << 53) as f64; // (0,1]
        let u2 = (h2 >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// The four lattice Gaussians around `p`, in [`LatticePoint`]
    /// corner order.
    fn corners(&self, p: &LatticePoint) -> [f64; 4] {
        [
            self.gaussian_at(p.i0, p.j0),
            self.gaussian_at(p.i0 + 1, p.j0),
            self.gaussian_at(p.i0, p.j0 + 1),
            self.gaussian_at(p.i0 + 1, p.j0 + 1),
        ]
    }

    /// Standard-normal shadowing value at `(x, y)` metres (multiply by
    /// sigma to get dB).
    pub fn standard_value(&self, x: f64, y: f64) -> f64 {
        let p = LatticePoint::new(x, y, self.grid_m);
        p.interpolate(self.corners(&p))
    }

    /// Shadowing loss in dB at `(x, y)` with the given sigma.
    #[cfg(test)]
    pub(crate) fn value_db(&self, x: f64, y: f64, sigma: f64) -> Db {
        Db::new(self.standard_value(x, y) * sigma)
    }

    /// Precomputes every lattice Gaussian this field can need for
    /// queries inside `[min_x, max_x] × [min_y, max_y]` (inclusive of
    /// the +1 lattice corners bilinear interpolation reads). The cached
    /// values are the exact `gaussian_at` outputs, so cached queries are
    /// bit-identical to uncached ones.
    pub fn grid_for(&self, min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> ShadowGrid {
        let i0 = (min_x / self.grid_m).floor() as i64;
        let j0 = (min_y / self.grid_m).floor() as i64;
        let i1 = (max_x / self.grid_m).floor() as i64 + 1;
        let j1 = (max_y / self.grid_m).floor() as i64 + 1;
        let nx = (i1 - i0 + 1).max(1) as usize;
        let ny = (j1 - j0 + 1).max(1) as usize;
        let mut vals = Vec::with_capacity(nx * ny);
        for j in 0..ny as i64 {
            for i in 0..nx as i64 {
                vals.push(self.gaussian_at(i0 + i, j0 + j));
            }
        }
        ShadowGrid {
            grid_m: self.grid_m,
            i0,
            j0,
            nx,
            ny,
            vals,
        }
    }

    /// Shadowing loss in dB with the given sigma
    /// ([`ShadowingField::standard_value`] times `sigma`) at a point
    /// located once with `LatticePoint::new` (and
    /// `LatticePoint::in_grid`): the lattice Gaussians come from `grid`
    /// when the point's corners lie inside it, else from direct
    /// evaluation. Same arithmetic, same bits as a direct query — the
    /// Gaussian evaluation (two hashes, `ln`, `sqrt`, `cos` per corner)
    /// dominates one, and the grid replaces it with four loads. `grid` must be this field's grid with the
    /// extent `p` was located against.
    pub fn value_db_at(&self, p: &LatticePoint, sigma: f64, grid: &ShadowGrid) -> Db {
        let v = match p.slot {
            Some(s) => grid.corners(s),
            None => self.corners(p),
        };
        Db::new(p.interpolate(v) * sigma)
    }
}

/// Where a query point sits on a shadowing lattice: its lower-left
/// lattice corner and the normalised bilinear weights. Every field on
/// the same lattice spacing shares them, so a caller querying many
/// fields at one point locates it once.
#[derive(Debug, Clone, Copy)]
pub struct LatticePoint {
    i0: i64,
    j0: i64,
    /// Weights of corners `(i0, j0)`, `(i0 + 1, j0)`, `(i0, j0 + 1)`,
    /// `(i0 + 1, j0 + 1)`.
    w: [f64; 4],
    /// L2 norm of `w`.
    norm: f64,
    /// Offset of corner `(i0, j0)` in a [`ShadowGrid`] that holds all
    /// four corners (see [`LatticePoint::in_grid`]).
    slot: Option<usize>,
}

impl LatticePoint {
    /// Locates `(x, y)` metres on a lattice of `grid_m` spacing.
    pub fn new(x: f64, y: f64, grid_m: f64) -> Self {
        let gx = x / grid_m;
        let gy = y / grid_m;
        let i0 = gx.floor() as i64;
        let j0 = gy.floor() as i64;
        let fx = gx - i0 as f64;
        let fy = gy - j0 as f64;
        let w00 = (1.0 - fx) * (1.0 - fy);
        let w10 = fx * (1.0 - fy);
        let w01 = (1.0 - fx) * fy;
        let w11 = fx * fy;
        // Normalise by the L2 norm of the weights so the interpolated
        // field keeps unit marginal variance everywhere (plain bilinear
        // interpolation of iid Gaussians would shrink variance to 4/9 at
        // cell centres).
        let norm = (w00 * w00 + w10 * w10 + w01 * w01 + w11 * w11).sqrt();
        LatticePoint {
            i0,
            j0,
            w: [w00, w10, w01, w11],
            norm,
            slot: None,
        }
    }

    /// Resolves the point's corners in `grid`'s layout. The result is
    /// valid for every grid with the same extent (see
    /// [`ShadowGrid::same_extent`]); outside the grid the point falls
    /// back to direct evaluation.
    pub fn in_grid(mut self, grid: &ShadowGrid) -> Self {
        self.slot = grid.slot(self.i0, self.j0);
        self
    }

    /// Whether [`LatticePoint::in_grid`] found all four corners in the
    /// grid (else they are evaluated directly).
    #[cfg(test)]
    pub(crate) fn cached(&self) -> bool {
        self.slot.is_some()
    }

    /// Normalised bilinear combination of the four corner values.
    fn interpolate(&self, v: [f64; 4]) -> f64 {
        let w = &self.w;
        (v[0] * w[0] + v[1] * w[1] + v[2] * w[2] + v[3] * w[3]) / self.norm
    }
}

/// Dense cache of one [`ShadowingField`]'s lattice Gaussians over a
/// rectangle (see [`ShadowingField::grid_for`]).
#[derive(Debug, Clone)]
pub struct ShadowGrid {
    grid_m: f64,
    i0: i64,
    j0: i64,
    nx: usize,
    ny: usize,
    vals: Vec<f64>,
}

impl ShadowGrid {
    /// Whether `other` covers the same lattice points at the same
    /// spacing, so one [`LatticePoint`] slot indexes both.
    pub fn same_extent(&self, other: &ShadowGrid) -> bool {
        self.grid_m.to_bits() == other.grid_m.to_bits()
            && (self.i0, self.j0, self.nx, self.ny) == (other.i0, other.j0, other.nx, other.ny)
    }

    /// Offset of lattice point `(i, j)` when it and its `+1` neighbours
    /// all lie inside the grid.
    fn slot(&self, i: i64, j: i64) -> Option<usize> {
        let di = i - self.i0;
        let dj = j - self.j0;
        if di < 0 || dj < 0 || di + 1 >= self.nx as i64 || dj + 1 >= self.ny as i64 {
            return None;
        }
        Some(dj as usize * self.nx + di as usize)
    }

    /// The four cached corners at `slot`, in [`LatticePoint`] order.
    #[inline]
    fn corners(&self, slot: usize) -> [f64; 4] {
        let up = slot + self.nx;
        [
            self.vals[slot],
            self.vals[slot + 1],
            self.vals[up],
            self.vals[up + 1],
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiveg_simcore::OnlineStats;
    use proptest::prelude::*;

    fn f5g() -> Frequency {
        Frequency::from_mhz(3550.0)
    }
    fn f4g() -> Frequency {
        Frequency::from_mhz(1850.0)
    }

    proptest! {
        /// Path loss grows with distance on both branches, and NLoS never
        /// undercuts LoS.
        #[test]
        fn pathloss_monotone(d1 in 1.0f64..2000.0, d2 in 1.0f64..2000.0, ghz in 0.7f64..6.0) {
            let p = PropagationParams::default_urban();
            let f = Frequency::from_mhz(ghz * 1e3);
            let (lo, hi) = if d1 < d2 { (d1, d2) } else { (d2, d1) };
            prop_assert!(p.loss_los(hi, f).value() >= p.loss_los(lo, f).value());
            prop_assert!(p.loss_nlos(hi, f).value() >= p.loss_nlos(lo, f).value());
            prop_assert!(p.loss_nlos(d1, f).value() >= p.loss_los(d1, f).value() - 1e-9);
        }

        /// Higher frequency always loses more.
        #[test]
        fn pathloss_frequency_monotone(d in 10.0f64..1000.0, f1 in 0.7f64..6.0, f2 in 0.7f64..6.0) {
            let p = PropagationParams::default_urban();
            let (lo, hi) = if f1 < f2 { (f1, f2) } else { (f2, f1) };
            prop_assert!(
                p.loss_los(d, Frequency::from_mhz(hi * 1e3)).value()
                    >= p.loss_los(d, Frequency::from_mhz(lo * 1e3)).value()
            );
        }
    }

    #[test]
    fn free_space_sanity() {
        // FSPL at 1 km, 3.55 GHz ≈ 103.4 dB.
        let v = free_space_db(1000.0, f5g()).value();
        assert!((v - 103.4).abs() < 0.3, "{v}");
    }

    #[test]
    fn loss_increases_with_distance_and_frequency() {
        let p = PropagationParams::default_urban();
        assert!(p.loss_los(200.0, f5g()).value() > p.loss_los(100.0, f5g()).value());
        assert!(p.loss_los(100.0, f5g()).value() > p.loss_los(100.0, f4g()).value());
        assert!(p.loss_nlos(100.0, f5g()).value() > p.loss_los(100.0, f5g()).value());
    }

    #[test]
    fn calibration_anchor_cell_radii() {
        // Service threshold: RSRP ≥ −105 dBm (paper Sec. 3.1, Rel-15 TS
        // 36.211). Per-RE EIRP ≈ 17.8 + 21 ≈ 38.9 dBm for NR, ≈ 8.2 + 4
        // ≈ 12.2 dBm for LTE (see carrier.rs). The calibrated model must
        // place the −105 dBm contour near 230 m at 3.55 GHz and near
        // 520 m at 1.85 GHz.
        let p = PropagationParams::default_urban();
        let budget_nr = 43.9 + 105.0;
        let budget_lte = 12.2 + 105.0;
        let radius = |f: Frequency, budget: f64| -> f64 {
            let mut d = 10.0;
            while d < 2000.0 && p.loss_los(d, f).value() < budget {
                d += 1.0;
            }
            d
        };
        let r5 = radius(f5g(), budget_nr);
        let r4 = radius(f4g(), budget_lte);
        assert!((200.0..270.0).contains(&r5), "5G LoS radius {r5}");
        assert!((470.0..580.0).contains(&r4), "4G LoS radius {r4}");
    }

    #[test]
    fn shadowing_is_deterministic() {
        let f = ShadowingField::new(42);
        assert_eq!(
            f.standard_value(123.0, 456.0),
            f.standard_value(123.0, 456.0)
        );
        let g = ShadowingField::new(43);
        assert_ne!(
            f.standard_value(123.0, 456.0),
            g.standard_value(123.0, 456.0)
        );
    }

    /// The precomputed-lattice query must be bit-identical to the
    /// hashing query, both inside the grid and through the out-of-range
    /// fallback.
    #[test]
    fn shadow_grid_bit_identical_to_direct() {
        let f = ShadowingField::new(0xD5);
        let grid = f.grid_for(0.0, 0.0, 500.0, 920.0);
        let mut k = 0u64;
        for _ in 0..500 {
            // Cheap LCG over a range straddling the grid edges.
            k = k
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = -300.0 + (k >> 40) as f64 * (1100.0 / (1u64 << 24) as f64);
            k = k
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let y = -300.0 + (k >> 40) as f64 * (1500.0 / (1u64 << 24) as f64);
            let direct = f.value_db(x, y, 7.0).value();
            let p = LatticePoint::new(x, y, f.grid_m).in_grid(&grid);
            let cached = f.value_db_at(&p, 7.0, &grid).value();
            assert_eq!(direct.to_bits(), cached.to_bits(), "at ({x}, {y})");
        }
    }

    #[test]
    fn shadowing_is_roughly_standard_normal() {
        let f = ShadowingField::new(7);
        let mut s = OnlineStats::new();
        // Sample on a grid much coarser than the lattice so samples are
        // nearly independent.
        for i in 0..60 {
            for j in 0..60 {
                s.push(f.standard_value(i as f64 * 137.0, j as f64 * 211.0));
            }
        }
        assert!(s.mean().abs() < 0.1, "mean {}", s.mean());
        assert!((s.std_dev() - 1.0).abs() < 0.15, "std {}", s.std_dev());
    }

    #[test]
    fn shadowing_is_spatially_correlated() {
        let f = ShadowingField::new(9);
        // Nearby points (5 m apart, lattice 50 m) must be similar.
        let mut close_diff = OnlineStats::new();
        let mut far_diff = OnlineStats::new();
        for k in 0..500 {
            let x = k as f64 * 31.0;
            let y = k as f64 * 17.0;
            close_diff.push((f.standard_value(x, y) - f.standard_value(x + 5.0, y)).abs());
            far_diff.push((f.standard_value(x, y) - f.standard_value(x + 500.0, y)).abs());
        }
        assert!(
            close_diff.mean() < 0.5 * far_diff.mean(),
            "close {} far {}",
            close_diff.mean(),
            far_diff.mean()
        );
    }

    #[test]
    fn sigma_scales_output() {
        let f = ShadowingField::new(5);
        let v1 = f.value_db(10.0, 10.0, 1.0).value();
        let v8 = f.value_db(10.0, 10.0, 8.0).value();
        assert!((v8 - 8.0 * v1).abs() < 1e-12);
    }
}
