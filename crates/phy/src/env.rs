//! The radio environment — the XCAL-Mobile analogue.
//!
//! [`RadioEnv`] combines the campus map, the deployed cells, the
//! propagation model and per-cell shadowing fields, and answers the
//! question the paper's probe answered at every sampled location: what
//! RSRP/RSRQ/SINR/CQI/MCS/bitrate does each cell deliver here, and which
//! cell would serve me?

use crate::carrier::Tech;
use crate::cell::CellPhy;
use crate::mcs;
use crate::pathloss::{LatticePoint, PropagationParams, ShadowGrid, ShadowingField};
use crate::penetration::wall_loss;
use fiveg_geo::building::Material;
use fiveg_geo::point::Segment;
use fiveg_geo::{Campus, CampusMap, Point};
use fiveg_simcore::{BitRate, Db, Dbm};
use serde::Serialize;
use std::collections::BTreeMap;
#[expect(clippy::disallowed_types, reason = "the EnvId counter")]
use std::sync::atomic::{AtomicU64, Ordering};

/// Service threshold: below this RSRP the network cannot sustain a
/// connection (paper Sec. 3.1, citing Rel-15 TS 36.211: "if the RSRP is
/// less than −105 dBm, the communication service cannot be triggered").
pub const SERVICE_THRESHOLD: Dbm = Dbm::new(-105.0);

/// Everything measured about one cell at one location.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CellMeasurement {
    /// Physical cell id.
    pub pci: u16,
    /// Technology.
    pub tech: Tech,
    /// Reference signal received power.
    pub rsrp: Dbm,
    /// Reference signal received quality, dB.
    pub rsrq: Db,
    /// Signal-to-interference-plus-noise ratio, dB.
    pub sinr: Db,
    /// 2-D ground distance to the mast, metres.
    pub distance_m: f64,
}

/// A full KPI sample for the serving cell at one location — one row of
/// the measurement dataset.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct KpiSample {
    /// Sampled position.
    pub pos: Point,
    /// Whether the position is indoors.
    pub indoor: bool,
    /// Serving-cell measurement.
    pub serving: CellMeasurement,
    /// Channel quality indicator derived from SINR.
    pub cqi: u8,
    /// Modulation-and-coding-scheme index.
    pub mcs: u8,
    /// Downlink PHY bitrate available to this UE at the allocated PRB
    /// share.
    pub bitrate: BitRate,
    /// Whether the RSRP is above the service threshold.
    pub in_service: bool,
}

/// Slot of a material in the per-cell wall-loss table; must mirror
/// [`Material::ALL`] order (asserted in tests).
fn mat_slot(m: Material) -> usize {
    match m {
        Material::Brick => 0,
        Material::Concrete => 1,
        Material::Drywall => 2,
        Material::Wood => 3,
        Material::Glass => 4,
    }
}

/// One mast location, shared by every co-sited sector — and by both
/// RATs when the deployment co-sites them (the paper's NSA gNBs stand
/// on eNB towers). All ray geometry (blockage, wall count, UE-building
/// material, ground distance, azimuth) depends only on `(pos, ue)`, so
/// it is computed once per site per sample instead of once per cell.
#[derive(Debug, Clone)]
struct SiteGeom {
    pos: Point,
    /// Bitmap of buildings containing the mast position (the rooftop
    /// "own building does not obstruct" rule): building `bi` is bit
    /// `bi % 64` of word `bi / 64`, over [`CampusMap::mask_words`] words.
    mast_mask: Vec<u64>,
}

/// A run of same-technology cells sharing one site and identical
/// propagation invariants (height, carrier-derived pathloss constants,
/// vertical pattern). Per sample, the distance/median-loss/vertical
/// terms are computed once per group; members differ only in sector
/// azimuth, shadowing field and per-carrier wall/EIRP tables.
#[derive(Debug, Clone)]
struct TechGroup {
    site: usize,
    height_m: f64,
    pl0_db: f64,
    clutter_db_per_100m: f64,
    vertical: crate::antenna::VerticalPattern,
    /// `(position in the tech's cell list, cell index)` per member.
    members: Vec<(u32, u32)>,
}

impl TechGroup {
    /// Whether a cell with these invariants belongs to this group (bit
    /// equality — grouping must never merge almost-equal parameters).
    fn matches(
        &self,
        site: usize,
        height_m: f64,
        cache: &CellCache,
        v: &crate::antenna::VerticalPattern,
    ) -> bool {
        self.site == site
            && self.height_m.to_bits() == height_m.to_bits()
            && self.pl0_db.to_bits() == cache.pl0_db.to_bits()
            && self.clutter_db_per_100m.to_bits() == cache.clutter_db_per_100m.to_bits()
            && self.vertical.tilt_deg.to_bits() == v.tilt_deg.to_bits()
            && self.vertical.beamwidth_deg.to_bits() == v.beamwidth_deg.to_bits()
            && self.vertical.max_attenuation_db.to_bits() == v.max_attenuation_db.to_bits()
    }
}

/// Cached ray geometry from one site to the current UE position.
#[derive(Debug, Default, Clone, Copy)]
struct RaySite {
    computed: bool,
    blocked: bool,
    /// Exterior walls of the UE's building on this ray (0 if outdoor).
    walls_ue: u32,
    /// Material of the UE's building, if indoors.
    mat: Option<Material>,
    /// Ground distance mast → UE.
    d2: f64,
    /// Azimuth mast → UE, degrees (unused when `d2 < 1`).
    az_deg: f64,
}

/// Per-cell invariants hoisted out of the per-sample hot loop. Every
/// value is exactly what the corresponding per-call expression computed,
/// so cached and uncached paths are bit-identical.
#[derive(Debug, Clone)]
struct CellCache {
    /// `tx_power_per_re + ref_signal_gain_db`, dBm.
    eirp_dbm: f64,
    /// Thermal noise per RE at this cell's carrier, linear mW.
    noise_mw: f64,
    /// `PL0(f)` of the propagation model at this cell's carrier, dB.
    pl0_db: f64,
    /// Street-clutter slope at this cell's carrier, dB per 100 m.
    clutter_db_per_100m: f64,
    /// Wall penetration loss per material at this carrier, dB
    /// ([`Material::ALL`] order).
    wall_db: [f64; 5],
}

/// What one UE position sees of every cell of one technology, before
/// any cell is ranked or measured in full: the first of measurement's
/// three steps (survey, select, materialise).
///
/// [`RadioEnv::survey_into`] fills it; [`Survey::select`] picks a cell
/// by rank; [`RadioEnv::materialise`] turns a picked cell into a
/// [`CellMeasurement`]. Cells are addressed by their position `k` in
/// the technology's cell list, the order of [`RadioEnv::pcis`]. A
/// survey is a pure function of `(env, ue, tech)`, so a caller may keep
/// one and replay it while the UE does not move.
#[derive(Debug, Clone)]
pub struct Survey {
    tech: Tech,
    /// RSRP rank per cell (see `rank`).
    rank: Vec<u64>,
    rsrp_dbm: Vec<Dbm>,
    rsrp_mw: Vec<f64>,
    /// Ground distance mast → UE per cell.
    d2: Vec<f64>,
    /// Wideband RSSI per RE (the shared RSRQ denominator).
    rssi_per_re: f64,
    /// Sum of every cell's received power weighted by its load.
    total_loaded: f64,
    /// Thermal noise per RE at the technology's carrier, linear mW.
    noise_mw: f64,
}

impl Default for Survey {
    fn default() -> Self {
        Survey {
            tech: Tech::Nr,
            rank: Vec::new(),
            rsrp_dbm: Vec::new(),
            rsrp_mw: Vec::new(),
            d2: Vec::new(),
            rssi_per_re: 0.0,
            total_loaded: 0.0,
            noise_mw: 0.0,
        }
    }
}

impl Survey {
    /// Technology surveyed.
    pub fn tech(&self) -> Tech {
        self.tech
    }

    /// RSRP of the cell at position `k`.
    pub fn rsrp(&self, k: usize) -> Dbm {
        self.rsrp_dbm[k]
    }

    /// The strongest cell among those `pass` accepts: the first entry
    /// that passes in [`RadioEnv::measure_all_into`]'s sorted list.
    pub fn select(&self, pass: impl FnMut(usize) -> bool) -> Option<usize> {
        self.top_and_select(pass).1
    }

    /// The strongest cell, and the strongest cell `pass` accepts, in
    /// one pass: `(select(|_| true), select(pass))`. Strict `<` over
    /// ascending positions keeps the lowest position among equal
    /// ranks, as the stable sort does.
    pub fn top_and_select(
        &self,
        mut pass: impl FnMut(usize) -> bool,
    ) -> (Option<usize>, Option<usize>) {
        let mut top: Option<(u64, usize)> = None;
        let mut sel: Option<(u64, usize)> = None;
        for (k, &r) in self.rank.iter().enumerate() {
            if top.is_none_or(|(b, _)| r < b) {
                top = Some((r, k));
            }
            if sel.is_none_or(|(b, _)| r < b) && pass(k) {
                sel = Some((r, k));
            }
        }
        (top.map(|(_, k)| k), sel.map(|(_, k)| k))
    }
}

/// Reusable buffers + deterministic work counters for the allocation-free
/// measurement fast path ([`RadioEnv::measure_all_into`]).
///
/// Counters are flushed to the ambient `fiveg-obs` scope on [`Drop`] (or
/// an explicit [`MeasureScratch::flush`]), following the same Drop-flush
/// pattern as the net-layer simulator, so per-job manifests pick up
/// `phy.rays.traced` / `phy.buildings.pruned` / `phy.scratch.reuse`
/// without any plumbing through call sites.
#[derive(Debug, Default)]
pub struct MeasureScratch {
    /// The survey behind the `_into` calls that return measurements.
    survey: Survey,
    /// One [`rank_key`] per cell: the output order, as integers.
    keys: Vec<u128>,
    /// Already-tested bitmap words for the current ray.
    words: Vec<u64>,
    /// Buildings containing the current UE position (ascending).
    ue_hits: Vec<u32>,
    /// Environment id and UE position bits the ray cache below is
    /// valid for.
    ray_key: Option<(u64, u64, u64)>,
    /// Per-site ray geometry for the current UE. Persists across the
    /// per-technology calls of one sample, so co-sited NR cells reuse
    /// the rays the LTE call already traced.
    ray_sites: Vec<RaySite>,
    out: Vec<CellMeasurement>,
    used: bool,
    stats: ScratchStats,
}

#[derive(Debug, Default, Clone, Copy)]
struct ScratchStats {
    samples: u64,
    rays: u64,
    pruned: u64,
    reuses: u64,
}

impl MeasureScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        MeasureScratch::default()
    }

    /// Flushes accumulated work counters to the current `fiveg-obs`
    /// scope; a no-op when no metrics handle is installed.
    pub fn flush(&mut self) {
        let s = std::mem::take(&mut self.stats);
        if s.samples > 0 {
            fiveg_obs::counter_add("phy.measure.samples", s.samples);
        }
        if s.rays > 0 {
            fiveg_obs::counter_add("phy.rays.traced", s.rays);
        }
        if s.pruned > 0 {
            fiveg_obs::counter_add("phy.buildings.pruned", s.pruned);
        }
        if s.reuses > 0 {
            fiveg_obs::counter_add("phy.scratch.reuse", s.reuses);
        }
    }
}

impl Drop for MeasureScratch {
    fn drop(&mut self) {
        self.flush();
    }
}

/// The radio environment.
#[derive(Debug, Clone)]
pub struct RadioEnv {
    id: EnvId,
    /// Campus geometry.
    pub map: CampusMap,
    /// Deployed cells (all technologies).
    pub cells: Vec<CellPhy>,
    /// Propagation parameters.
    pub params: PropagationParams,
    shadowing: Vec<ShadowingField>,
    /// Precomputed lattice Gaussians per shadowing field, covering the
    /// campus bounds (plus a margin); same order as `cells`. All share
    /// one extent, so a [`LatticePoint`] located once per call indexes
    /// every cell's grid.
    shadow_grids: Vec<ShadowGrid>,
    /// Unique mast locations (by bit-equal position).
    sites: Vec<SiteGeom>,
    /// Site-sharing cell groups per technology (`[Lte, Nr]`).
    groups: [Vec<TechGroup>; 2],
    /// Hoisted per-cell invariants, same order as `cells`.
    cache: Vec<CellCache>,
    /// Cell indices per technology (`[Lte, Nr]`), ascending.
    by_tech: [Vec<usize>; 2],
    /// PCI per cell per technology, same order as `by_tech`.
    pcis: [Vec<u16>; 2],
    /// First cell index per PCI, per technology: LTE and NR cells may
    /// share a PCI.
    pci_index: [BTreeMap<u16, usize>; 2],
}

/// Source of [`EnvId`]s.
#[expect(
    clippy::disallowed_types,
    reason = "EnvIds are only compared as a ray-cache key; no output reads them"
)]
static NEXT_ENV_ID: AtomicU64 = AtomicU64::new(0);

/// Identity of a [`RadioEnv`] for [`MeasureScratch`]'s ray cache. Every
/// constructed environment takes a fresh one, and so does every clone:
/// a clone's public fields may be changed before it is measured, so it
/// must not replay the original's cached rays.
#[derive(Debug, PartialEq, Eq)]
struct EnvId(u64);

impl EnvId {
    fn fresh() -> EnvId {
        // `Relaxed`: the counter publishes no other data; only the
        // ids' uniqueness matters.
        EnvId(NEXT_ENV_ID.fetch_add(1, Ordering::Relaxed))
    }
}

impl Clone for EnvId {
    fn clone(&self) -> Self {
        EnvId::fresh()
    }
}

/// RSRP order of `rsrp_dbm` as an unsigned integer: ascending ranks
/// list descending [`f64::total_cmp`] RSRP, so a NaN from a
/// pathological parameter set orders deterministically instead of
/// panicking mid-campaign.
fn rank(rsrp_dbm: f64) -> u64 {
    let b = rsrp_dbm.to_bits();
    // total_cmp as an unsigned order: negatives flip every bit,
    // positives set the sign bit.
    let ascending = if b >> 63 == 1 { !b } else { b | 1 << 63 };
    !ascending
}

/// Sort key of the cell at position `k` with RSRP rank `rank`:
/// ascending keys list descending RSRP, ties by position — exactly the
/// order of a stable descending `total_cmp` sort, but as unique
/// integers, so an unstable sort yields it.
fn rank_key(rank: u64, k: usize) -> u128 {
    (u128::from(rank) << 64) | k as u128
}

fn tech_slot(tech: Tech) -> usize {
    match tech {
        Tech::Lte => 0,
        Tech::Nr => 1,
    }
}

impl RadioEnv {
    /// Builds an environment from explicit cells.
    ///
    /// Per-cell invariants (EIRP, noise, clutter and wall-loss tables)
    /// are precomputed here; `cells` and `params` must not be mutated
    /// afterwards or the caches go stale.
    pub fn new(map: CampusMap, cells: Vec<CellPhy>, params: PropagationParams, seed: u64) -> Self {
        let shadowing: Vec<ShadowingField> = cells
            .iter()
            .map(|c| ShadowingField::new(seed ^ (c.pci as u64).wrapping_mul(0x9e37_79b9)))
            .collect();
        // Evaluating one shadowing query costs four lattice Gaussians
        // (two hashes + ln/sqrt/cos each); pre-evaluating the lattice
        // over the campus (plus a walk-off margin) replaces that with
        // loads. The cached values ARE the gaussian_at outputs, so fast
        // and naive paths stay bit-identical.
        const SHADOW_MARGIN_M: f64 = 200.0;
        let shadow_grids: Vec<ShadowGrid> = shadowing
            .iter()
            .map(|f| {
                f.grid_for(
                    map.bounds.min.x - SHADOW_MARGIN_M,
                    map.bounds.min.y - SHADOW_MARGIN_M,
                    map.bounds.max.x + SHADOW_MARGIN_M,
                    map.bounds.max.y + SHADOW_MARGIN_M,
                )
            })
            .collect();
        assert!(
            shadow_grids.windows(2).all(|w| w[0].same_extent(&w[1])),
            "every cell's shadowing grid must share one lattice"
        );
        let cache: Vec<CellCache> = cells
            .iter()
            .map(|c| {
                let f = c.carrier.freq;
                let mut wall_db = [0.0; 5];
                for &m in &Material::ALL {
                    wall_db[mat_slot(m)] = wall_loss(m, f).value();
                }
                CellCache {
                    eirp_dbm: (c.carrier.tx_power_per_re() + Db::new(c.carrier.ref_signal_gain_db))
                        .value(),
                    noise_mw: c.carrier.noise_per_re().to_milliwatts().milliwatts(),
                    pl0_db: params.pl0_db(f),
                    clutter_db_per_100m: params.clutter_per_100m(f),
                    wall_db,
                }
            })
            .collect();
        let wpc = map.mask_words();
        let mut hits = Vec::new();
        let mut sites: Vec<SiteGeom> = Vec::new();
        let mut site_of = vec![0usize; cells.len()];
        for (i, c) in cells.iter().enumerate() {
            let key = (c.pos.x.to_bits(), c.pos.y.to_bits());
            site_of[i] = sites
                .iter()
                .position(|s| (s.pos.x.to_bits(), s.pos.y.to_bits()) == key)
                .unwrap_or_else(|| {
                    let mut m = vec![0u64; wpc];
                    map.buildings_containing_into(c.pos, &mut hits);
                    for &bi in &hits {
                        m[bi as usize / 64] |= 1u64 << (bi % 64);
                    }
                    sites.push(SiteGeom {
                        pos: c.pos,
                        mast_mask: m,
                    });
                    sites.len() - 1
                });
        }
        let mut by_tech: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
        let mut pcis: [Vec<u16>; 2] = [Vec::new(), Vec::new()];
        let mut pci_index = [BTreeMap::new(), BTreeMap::new()];
        for (i, c) in cells.iter().enumerate() {
            let t = tech_slot(c.tech());
            by_tech[t].push(i);
            pcis[t].push(c.pci);
            pci_index[t].entry(c.pci).or_insert(i);
        }
        let mut groups: [Vec<TechGroup>; 2] = [Vec::new(), Vec::new()];
        for (t, idxs) in by_tech.iter().enumerate() {
            for (k, &i) in idxs.iter().enumerate() {
                let c = &cells[i];
                let member = (k as u32, i as u32);
                match groups[t]
                    .iter_mut()
                    .find(|g| g.matches(site_of[i], c.height_m, &cache[i], &c.vertical))
                {
                    Some(g) => g.members.push(member),
                    None => groups[t].push(TechGroup {
                        site: site_of[i],
                        height_m: c.height_m,
                        pl0_db: cache[i].pl0_db,
                        clutter_db_per_100m: cache[i].clutter_db_per_100m,
                        vertical: c.vertical,
                        members: vec![member],
                    }),
                }
            }
        }
        RadioEnv {
            id: EnvId::fresh(),
            map,
            cells,
            params,
            shadowing,
            shadow_grids,
            sites,
            groups,
            cache,
            by_tech,
            pcis,
            pci_index,
        }
    }

    /// Builds the paper's deployment from a generated campus: LTE cells
    /// on every eNB sector (PCIs from 200), NR cells on every gNB sector
    /// (PCIs from 60 — the paper's Fig. 2a labels NR cells 60–79).
    ///
    /// A city with more than 140 NR cells numbers some of them into the
    /// LTE range, so an LTE and an NR cell can share a PCI; every PCI
    /// lookup therefore takes the technology. Shadowing is seeded by
    /// PCI, so two such cells also share a shadowing field.
    ///
    /// `lte_load`/`nr_load` are the interference activity factors
    /// (daytime busy-hour defaults: 4G heavily used, 5G nearly empty in
    /// this early-deployment period — Sec. 4.1).
    pub fn from_campus(campus: &Campus, seed: u64, lte_load: f64, nr_load: f64) -> Self {
        let mut cells = Vec::new();
        let mut pci = 200u16;
        for site in &campus.plan.enb_sites {
            for &az in &site.sector_azimuths {
                cells.push(CellPhy {
                    pci,
                    carrier: crate::carrier::Carrier::lte_b3(),
                    pos: site.pos,
                    height_m: 25.0,
                    antenna: crate::antenna::SectorAntenna::standard(az),
                    vertical: crate::antenna::VerticalPattern::macro_default(),
                    load: lte_load,
                });
                pci += 1;
            }
        }
        let mut npci = 60u16;
        for site in &campus.plan.gnb_sites {
            for &az in &site.sector_azimuths {
                cells.push(CellPhy {
                    pci: npci,
                    carrier: crate::carrier::Carrier::nr_n78(),
                    pos: site.pos,
                    height_m: 25.0,
                    antenna: crate::antenna::SectorAntenna::nr_sweeping(az),
                    vertical: crate::antenna::VerticalPattern::macro_default(),
                    load: nr_load,
                });
                npci += 1;
            }
        }
        RadioEnv::new(
            campus.map.clone(),
            cells,
            PropagationParams::default_urban(),
            seed,
        )
    }

    /// Number of cells of a technology.
    pub fn num_cells(&self, tech: Tech) -> usize {
        self.by_tech[tech_slot(tech)].len()
    }

    /// Index of the `tech` cell with the given PCI (first match, as
    /// deployed).
    pub fn cell_index(&self, tech: Tech, pci: u16) -> Option<usize> {
        self.pci_index[tech_slot(tech)].get(&pci).copied()
    }

    /// PCIs of the `tech` cells, in [`Survey`] position order.
    pub fn pcis(&self, tech: Tech) -> &[u16] {
        &self.pcis[tech_slot(tech)]
    }

    /// Total propagation loss (path loss + antenna + walls + shadowing)
    /// from cell `idx` to `ue` — reference implementation scanning every
    /// building. The fast path ([`RadioEnv::measure_all_into`]) computes
    /// the same value through the spatial index and the per-cell caches;
    /// equivalence tests hold the two bit-identical.
    fn total_loss_db(&self, idx: usize, ue: Point) -> Db {
        let cell = &self.cells[idx];
        let f = cell.carrier.freq;
        let d3 = cell.distance_3d(ue);
        let seg = Segment::new(cell.pos, ue);

        // Rooftop mast: the building under the mast does not obstruct its
        // own transmissions.
        let mut blocked_walls_ue_building = 0usize;
        let mut ue_material = None;
        let mut blocked = false;
        for b in &self.map.buildings {
            if b.contains(cell.pos) {
                continue;
            }
            let crossings = b.wall_crossings(seg);
            let contains_ue = b.contains(ue);
            if crossings > 0 || contains_ue {
                blocked = true;
            }
            if contains_ue {
                // At least one exterior wall separates an indoor UE.
                blocked_walls_ue_building = crossings.max(1);
                ue_material = Some(b.material);
            }
        }

        let (median, sigma) = if !blocked {
            (self.params.loss_los(d3, f), self.params.shadow_sigma_los)
        } else {
            (self.params.loss_nlos(d3, f), self.params.shadow_sigma_nlos)
        };
        let mut loss = median.value()
            + cell.antenna_attenuation_db(ue)
            + cell
                .vertical
                .attenuation_db(cell.pos.distance(ue), cell.height_m);
        if let Some(mat) = ue_material {
            // Indoor UE: add the exterior wall(s) of its own building.
            // Outdoor blockage by intermediate buildings is already
            // captured by the NLoS branch (diffraction dominates going
            // *around* a building; going *into* one has no such path).
            loss += wall_loss(mat, f).value() * blocked_walls_ue_building as f64;
        }
        loss += self.shadowing[idx].value_db(ue.x, ue.y, sigma).value();
        Db::new(loss)
    }

    /// Traces the ray geometry from site `si` to `ue` — identical logic
    /// to the building loop of [`RadioEnv::total_loss_db`], restructured
    /// around what that loop actually produces: a single `blocked` bit
    /// plus the UE building's material and wall count. `ue_hits` (the
    /// buildings containing the UE, hoisted to once per sample) supplies
    /// the UE-building term, so the candidate scan can stop at the first
    /// wall crossing; candidates stream straight off the spatial-index
    /// grid walk, and a blocked ray (the common case) touches only a
    /// grid cell or two. Only provably-unused work is skipped, keeping
    /// every derived value bit-identical to the reference.
    fn trace_site(
        &self,
        si: usize,
        ue: Point,
        words: &mut Vec<u64>,
        ue_hits: &[u32],
        stats: &mut ScratchStats,
    ) -> RaySite {
        let site = &self.sites[si];
        let seg = Segment::new(site.pos, ue);
        let mast = &site.mast_mask;

        // Last (ascending) building containing the UE that does not also
        // contain the mast — the "last containing building wins" rule.
        let mut ue_b = None;
        for &bi in ue_hits {
            if mast[bi as usize / 64] & (1u64 << (bi % 64)) == 0 {
                ue_b = Some(bi);
            }
        }

        let mut walls_ue = 0u32;
        let mut mat = None;
        let mut visited = 0usize;
        // An indoor UE already decides `blocked`.
        let blocked = if let Some(bi) = ue_b {
            let b = &self.map.buildings[bi as usize];
            visited += 1;
            walls_ue = b.wall_crossings(seg).max(1) as u32;
            mat = Some(b.material);
            true
        } else {
            // `words` doubles as an already-tested bitmap so a footprint
            // spanning several grid cells is tested once, like the
            // reference scan.
            words.clear();
            words.resize(mast.len(), 0);
            self.map.ray_scan_until(seg, |bi| {
                let (w, bit) = (bi as usize / 64, 1u64 << (bi % 64));
                if (mast[w] | words[w]) & bit != 0 {
                    return false;
                }
                words[w] |= bit;
                visited += 1;
                self.map.buildings[bi as usize].crosses_walls(seg)
            })
        };
        stats.rays += 1;
        stats.pruned += (self.map.buildings.len() - visited) as u64;
        RaySite {
            computed: true,
            blocked,
            walls_ue,
            mat,
            d2: site.pos.distance(ue),
            az_deg: site.pos.azimuth_to(ue),
        }
    }

    /// RSRP of cell `idx` at `ue`.
    pub fn rsrp(&self, idx: usize, ue: Point) -> Dbm {
        let cell = &self.cells[idx];
        cell.carrier.tx_power_per_re() + Db::new(cell.carrier.ref_signal_gain_db)
            - self.total_loss_db(idx, ue)
    }

    /// Measures every cell of `tech` at `ue`, with mutual co-channel
    /// interference, sorted by descending RSRP.
    ///
    /// Convenience wrapper over [`RadioEnv::measure_all_into`] that
    /// builds (and throws away) a fresh [`MeasureScratch`] per call, so
    /// it is **test-only / cold-path**: fine in unit tests, examples
    /// and one-shot calibration sweeps, but anything called per UE per
    /// tick (fleet runs, city sweeps, handoff traces) must hold a
    /// persistent scratch and use the `_into` form — the per-call
    /// allocations dominate at 100k-UE scale.
    pub fn measure_all(&self, ue: Point, tech: Tech) -> Vec<CellMeasurement> {
        let mut scratch = MeasureScratch::new();
        self.measure_all_into(ue, tech, &mut scratch);
        std::mem::take(&mut scratch.out)
    }

    /// Allocation-free [`RadioEnv::measure_all`]: fills and returns
    /// `scratch.out` (sorted by descending RSRP), reusing the scratch
    /// buffers across calls. Survey, sort, then materialise every cell.
    pub fn measure_all_into<'a>(
        &self,
        ue: Point,
        tech: Tech,
        scratch: &'a mut MeasureScratch,
    ) -> &'a [CellMeasurement] {
        self.with_survey(ue, tech, scratch, |scratch, survey| {
            // Sorted by descending RSRP through integer keys (see
            // `rank_key`).
            scratch.keys.clear();
            scratch
                .keys
                .extend(survey.rank.iter().enumerate().map(|(k, &r)| rank_key(r, k)));
            scratch.keys.sort_unstable();
            scratch.out.clear();
            for &key in &scratch.keys {
                scratch
                    .out
                    .push(self.materialise(survey, key as u64 as usize));
            }
        });
        &scratch.out
    }

    /// Surveys `ue` into the scratch's own [`Survey`], runs `then` on
    /// it and puts it back.
    fn with_survey<R>(
        &self,
        ue: Point,
        tech: Tech,
        scratch: &mut MeasureScratch,
        then: impl FnOnce(&mut MeasureScratch, &Survey) -> R,
    ) -> R {
        let mut survey = std::mem::take(&mut scratch.survey);
        self.survey_into(ue, tech, scratch, &mut survey);
        let r = then(scratch, &survey);
        scratch.survey = survey;
        r
    }

    /// Surveys every cell of `tech` at `ue` into `out`: RSRP, ground
    /// distance and rank per cell, and the interference totals RSRQ and
    /// SINR need. Ranks nothing and computes no RSRQ or SINR; see
    /// [`Survey::select`] and [`RadioEnv::materialise`].
    pub fn survey_into(
        &self,
        ue: Point,
        tech: Tech,
        scratch: &mut MeasureScratch,
        out: &mut Survey,
    ) {
        if scratch.used {
            scratch.stats.reuses += 1;
        } else {
            scratch.used = true;
        }
        scratch.stats.samples += 1;
        out.tech = tech;
        let idxs: &[usize] = &self.by_tech[tech_slot(tech)];
        let n = idxs.len();
        out.rank.clear();
        out.rank.resize(n, 0);
        out.rsrp_dbm.clear();
        out.rsrp_dbm.resize(n, Dbm::new(0.0));
        out.rsrp_mw.clear();
        out.rsrp_mw.resize(n, 0.0);
        out.d2.clear();
        out.d2.resize(n, 0.0);
        if idxs.is_empty() {
            return;
        }
        // The ray cache is keyed on the environment and the UE
        // position: the per-technology calls of one sample share it, so
        // co-sited NR cells reuse rays the LTE call already traced. The
        // UE-building lookup is equally ray-invariant and hoisted with
        // it.
        let key = (self.id.0, ue.x.to_bits(), ue.y.to_bits());
        if scratch.ray_key != Some(key) {
            scratch.ray_key = Some(key);
            scratch.ray_sites.clear();
            scratch
                .ray_sites
                .resize(self.sites.len(), RaySite::default());
            self.map.buildings_containing_into(ue, &mut scratch.ue_hits);
        }
        // Every shadowing grid shares one lattice (asserted in `new`),
        // so the UE's lattice weights and grid slot are per call.
        let lattice = LatticePoint::new(ue.x, ue.y, self.shadowing[idxs[0]].grid_m)
            .in_grid(&self.shadow_grids[idxs[0]]);
        for g in &self.groups[tech_slot(tech)] {
            if !scratch.ray_sites[g.site].computed {
                scratch.ray_sites[g.site] = self.trace_site(
                    g.site,
                    ue,
                    &mut scratch.words,
                    &scratch.ue_hits,
                    &mut scratch.stats,
                );
            }
            let rs = scratch.ray_sites[g.site];
            // Group-invariant terms, same expressions as the reference:
            // 3-D distance, LoS/NLoS median, vertical-pattern loss.
            let dh = g.height_m - 1.5;
            let d3 = (rs.d2 * rs.d2 + dh * dh).sqrt();
            let (median, sigma) = if !rs.blocked {
                (
                    self.params
                        .loss_los_from(g.pl0_db, g.clutter_db_per_100m, d3),
                    self.params.shadow_sigma_los,
                )
            } else {
                (
                    self.params
                        .loss_nlos_from(g.pl0_db, g.clutter_db_per_100m, d3),
                    self.params.shadow_sigma_nlos,
                )
            };
            let vert = g.vertical.attenuation_db(rs.d2, g.height_m);
            for &(k, i) in &g.members {
                let (k, i) = (k as usize, i as usize);
                let ant = if rs.d2 < 1.0 {
                    0.0
                } else {
                    self.cells[i].antenna.attenuation_db(rs.az_deg)
                };
                let mut loss = median + ant + vert;
                if let Some(m) = rs.mat {
                    loss += self.cache[i].wall_db[mat_slot(m)] * rs.walls_ue as f64;
                }
                loss += self.shadowing[i]
                    .value_db_at(&lattice, sigma, &self.shadow_grids[i])
                    .value();
                let dbm = Dbm::new(self.cache[i].eirp_dbm - loss);
                out.rank[k] = rank(dbm.value());
                out.rsrp_dbm[k] = dbm;
                out.rsrp_mw[k] = dbm.to_milliwatts().milliwatts();
                out.d2[k] = rs.d2;
            }
        }
        let noise_mw = self.cache[idxs[0]].noise_mw;

        // RSSI is ONE wideband quantity at the UE: the sum of every
        // co-channel cell's received power weighted by its airtime
        // activity, floored at the always-on reference-signal overhead
        // (≈20 % of REs), plus noise. Sharing the denominator is what
        // makes RSRQ discriminate between cells — RSRQ gaps equal RSRP
        // gaps, as the A3 hand-off rule relies on.
        const RS_ACTIVITY_FLOOR: f64 = 0.2;
        out.rssi_per_re = idxs
            .iter()
            .enumerate()
            .map(|(k2, &i2)| out.rsrp_mw[k2] * self.cells[i2].load.max(RS_ACTIVITY_FLOOR))
            .sum::<f64>()
            + noise_mw;
        // Data-plane SINR: interference from *loaded* REs of the other
        // cells only (data REs dodge the RS collisions). Computing the
        // loaded total once and subtracting each cell's own term (in
        // `materialise`) turns the old O(cells²) skip-sum into O(cells).
        out.total_loaded = idxs
            .iter()
            .enumerate()
            .map(|(k2, &i2)| out.rsrp_mw[k2] * self.cells[i2].load)
            .sum();
        out.noise_mw = noise_mw;
    }

    /// The full measurement of the cell at position `k` of `survey`
    /// (a survey of this environment): the only place RSRQ and SINR are
    /// computed.
    pub fn materialise(&self, survey: &Survey, k: usize) -> CellMeasurement {
        let idxs = &self.by_tech[tech_slot(survey.tech)];
        debug_assert_eq!(
            idxs.len(),
            survey.rank.len(),
            "survey of another environment"
        );
        let i = idxs[k];
        let mw = survey.rsrp_mw[k];
        let interference = survey.total_loaded - mw * self.cells[i].load;
        let sinr = Db::from_linear((mw / (interference + survey.noise_mw)).max(1e-12));
        let rsrq = Db::from_linear((mw / (12.0 * survey.rssi_per_re)).max(1e-12));
        CellMeasurement {
            pci: self.cells[i].pci,
            tech: survey.tech,
            rsrp: survey.rsrp_dbm[k],
            rsrq,
            sinr,
            distance_m: survey.d2[k],
        }
    }

    /// Reference implementation of [`RadioEnv::measure_all`]: full
    /// building scans, no hoisted tables, fresh allocations, a stable
    /// comparison sort — the equivalence tests hold the fast path
    /// bit-identical to this.
    #[cfg(test)]
    fn measure_all_naive(&self, ue: Point, tech: Tech) -> Vec<CellMeasurement> {
        let idxs: Vec<usize> = (0..self.cells.len())
            .filter(|&i| self.cells[i].tech() == tech)
            .collect();
        if idxs.is_empty() {
            return Vec::new();
        }
        let rsrp_dbm: Vec<Dbm> = idxs.iter().map(|&i| self.rsrp(i, ue)).collect();
        let rsrp_mw: Vec<f64> = rsrp_dbm
            .iter()
            .map(|d| d.to_milliwatts().milliwatts())
            .collect();
        let noise_mw = self.cells[idxs[0]]
            .carrier
            .noise_per_re()
            .to_milliwatts()
            .milliwatts();
        const RS_ACTIVITY_FLOOR: f64 = 0.2;
        let rssi_per_re: f64 = idxs
            .iter()
            .enumerate()
            .map(|(k2, &i2)| rsrp_mw[k2] * self.cells[i2].load.max(RS_ACTIVITY_FLOOR))
            .sum::<f64>()
            + noise_mw;
        let total_loaded: f64 = idxs
            .iter()
            .enumerate()
            .map(|(k2, &i2)| rsrp_mw[k2] * self.cells[i2].load)
            .sum();
        let mut out: Vec<CellMeasurement> = idxs
            .iter()
            .enumerate()
            .map(|(k, &i)| {
                let interference = total_loaded - rsrp_mw[k] * self.cells[i].load;
                let sinr = Db::from_linear((rsrp_mw[k] / (interference + noise_mw)).max(1e-12));
                let rsrq = Db::from_linear((rsrp_mw[k] / (12.0 * rssi_per_re)).max(1e-12));
                CellMeasurement {
                    pci: self.cells[i].pci,
                    tech,
                    rsrp: rsrp_dbm[k],
                    rsrq,
                    sinr,
                    distance_m: self.cells[i].pos.distance(ue),
                }
            })
            .collect();
        out.sort_by(|a, b| b.rsrp.value().total_cmp(&a.rsrp.value()));
        out
    }

    /// The strongest cell of `tech` at `ue`, if any exist.
    pub fn serving(&self, ue: Point, tech: Tech) -> Option<CellMeasurement> {
        let mut scratch = MeasureScratch::new();
        self.serving_into(ue, tech, &mut scratch)
    }

    /// Allocation-free [`RadioEnv::serving`]: survey, select the top
    /// cell, materialise it.
    pub fn serving_into(
        &self,
        ue: Point,
        tech: Tech,
        scratch: &mut MeasureScratch,
    ) -> Option<CellMeasurement> {
        self.with_survey(ue, tech, scratch, |_, survey| {
            survey.select(|_| true).map(|k| self.materialise(survey, k))
        })
    }

    /// Measurement of one specific `tech` cell (by PCI) including
    /// interference from its co-channel neighbours — used when the UE is
    /// locked to a cell (the paper's Sec. 3.2 frequency-lock experiment).
    pub fn measure_pci(&self, ue: Point, tech: Tech, pci: u16) -> Option<CellMeasurement> {
        let mut scratch = MeasureScratch::new();
        self.measure_pci_into(ue, tech, pci, &mut scratch)
    }

    /// Allocation-free [`RadioEnv::measure_pci`]: survey, select the
    /// cell, materialise it.
    pub fn measure_pci_into(
        &self,
        ue: Point,
        tech: Tech,
        pci: u16,
        scratch: &mut MeasureScratch,
    ) -> Option<CellMeasurement> {
        self.cell_index(tech, pci)?;
        let pcis = self.pcis(tech);
        self.with_survey(ue, tech, scratch, |_, survey| {
            survey
                .select(|k| pcis[k] == pci)
                .map(|k| self.materialise(survey, k))
        })
    }

    /// Full KPI sample of the serving cell at `ue`.
    ///
    /// `prb_fraction` is the share of PRBs the scheduler grants this UE
    /// (the paper observed ≈1.0 for the empty 5G network and 0.4–1.0 for
    /// 4G depending on time of day).
    pub fn kpi_sample(&self, ue: Point, tech: Tech, prb_fraction: f64) -> Option<KpiSample> {
        let mut scratch = MeasureScratch::new();
        self.kpi_sample_into(ue, tech, prb_fraction, &mut scratch)
    }

    /// Allocation-free [`RadioEnv::kpi_sample`].
    pub fn kpi_sample_into(
        &self,
        ue: Point,
        tech: Tech,
        prb_fraction: f64,
        scratch: &mut MeasureScratch,
    ) -> Option<KpiSample> {
        let serving = self.serving_into(ue, tech, scratch)?;
        Some(self.kpi_for(serving, ue, prb_fraction))
    }

    /// Full KPI sample for a given (already measured) serving cell.
    pub fn kpi_for(&self, serving: CellMeasurement, ue: Point, prb_fraction: f64) -> KpiSample {
        let Some(idx) = self.cell_index(serving.tech, serving.pci) else {
            // Unreachable via `kpi_sample_into` (the measurement came
            // from this env); a foreign PCI degrades to out-of-service
            // instead of panicking mid-campaign.
            return KpiSample {
                pos: ue,
                indoor: self.map.is_indoor(ue),
                serving,
                cqi: 0,
                mcs: 0,
                bitrate: BitRate::ZERO,
                in_service: false,
            };
        };
        let carrier = self.cells[idx].carrier;
        let cqi = mcs::cqi_from_sinr(serving.sinr.value());
        let mcs_idx = mcs::mcs_from_cqi(cqi);
        let in_service = serving.rsrp >= SERVICE_THRESHOLD;
        let bitrate = if in_service {
            carrier.dl_rate_at_peak_mcs(prb_fraction) * mcs::rate_fraction(serving.sinr.value())
        } else {
            BitRate::ZERO
        };
        KpiSample {
            pos: ue,
            indoor: self.map.is_indoor(ue),
            serving,
            cqi,
            mcs: mcs_idx,
            bitrate,
            in_service,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiveg_geo::CampusConfig;
    use fiveg_simcore::SimRng;
    use std::collections::BTreeSet;

    fn env() -> RadioEnv {
        let campus = Campus::generate(&CampusConfig::default(), &mut SimRng::new(2020));
        RadioEnv::from_campus(&campus, 77, 0.5, 0.05)
    }

    #[test]
    fn deployment_counts() {
        let e = env();
        assert_eq!(e.num_cells(Tech::Lte), 34);
        assert_eq!(e.num_cells(Tech::Nr), 13);
        assert!(e.cell_index(Tech::Nr, 60).is_some(), "first NR PCI");
        assert!(e.cell_index(Tech::Lte, 200).is_some(), "first LTE PCI");
    }

    #[test]
    fn rsrp_decays_with_distance() {
        let e = env();
        let idx = e.cell_index(Tech::Nr, 60).unwrap();
        let cell_pos = e.cells[idx].pos;
        let az = e.cells[idx].antenna.azimuth_deg.to_radians();
        let dir = Point::new(az.cos(), az.sin());
        // Sample along boresight; RSRP must broadly decay (shadowing
        // wiggles, so compare 30 m vs 300 m).
        let near = e.rsrp(idx, cell_pos + dir * 30.0);
        let far = e.rsrp(idx, cell_pos + dir * 300.0);
        assert!(near.value() > far.value() + 10.0, "near {near} far {far}");
    }

    #[test]
    fn serving_cell_is_strongest() {
        let e = env();
        let ue = Point::new(250.0, 460.0);
        let all = e.measure_all(ue, Tech::Nr);
        assert_eq!(all.len(), 13);
        let serving = e.serving(ue, Tech::Nr).unwrap();
        assert_eq!(serving.pci, all[0].pci);
        for w in all.windows(2) {
            assert!(w[0].rsrp >= w[1].rsrp);
        }
    }

    #[test]
    fn sinr_no_higher_than_snr_and_rsrq_in_band() {
        let e = env();
        for &(x, y) in &[(100.0, 100.0), (250.0, 460.0), (400.0, 800.0)] {
            let m = e.serving(Point::new(x, y), Tech::Nr).unwrap();
            // Serving RSRQ for a lightly loaded system tops out near
            // -10·log10(12·0.2) ≈ -3.8 dB and degrades with load and
            // interference.
            assert!(
                m.rsrq.value() < -3.5 && m.rsrq.value() > -30.0,
                "rsrq {}",
                m.rsrq
            );
        }
    }

    #[test]
    fn kpi_sample_consistency() {
        let e = env();
        let s = e
            .kpi_sample(Point::new(250.0, 460.0), Tech::Nr, 1.0)
            .unwrap();
        assert_eq!(s.cqi, mcs::cqi_from_sinr(s.serving.sinr.value()));
        if s.in_service {
            assert!(s.bitrate.bps() > 0.0);
            assert!(s.bitrate.mbps() <= 1201.0);
        } else {
            assert_eq!(s.bitrate.bps(), 0.0);
        }
    }

    #[test]
    fn indoor_ue_sees_extra_loss() {
        let e = env();
        // Find a building and compare just-outside vs inside RSRP of the
        // same cell with shadowing neutralised by comparing many pairs.
        let mut indoor_worse = 0;
        let mut total = 0;
        for b in e.map.buildings.iter().take(12) {
            let c = b.footprint.center();
            let outside = Point::new(b.footprint.min.x - 3.0, c.y);
            if e.map.is_indoor(outside) {
                continue;
            }
            let idx = e.cell_index(Tech::Nr, 60).unwrap();
            let r_in = e.rsrp(idx, c);
            let r_out = e.rsrp(idx, outside);
            total += 1;
            if r_in.value() < r_out.value() {
                indoor_worse += 1;
            }
        }
        assert!(total > 5);
        assert!(
            indoor_worse * 4 >= total * 3,
            "{indoor_worse}/{total} indoor samples worse"
        );
    }

    #[test]
    fn lte_and_nr_do_not_interfere() {
        // NR SINR with heavily loaded LTE should match NR SINR with idle
        // LTE (different bands): verify by comparing two environments.
        let campus = Campus::generate(&CampusConfig::default(), &mut SimRng::new(2020));
        let busy = RadioEnv::from_campus(&campus, 77, 0.9, 0.05);
        let idle = RadioEnv::from_campus(&campus, 77, 0.0, 0.05);
        let ue = Point::new(250.0, 460.0);
        let a = busy.serving(ue, Tech::Nr).unwrap();
        let b = idle.serving(ue, Tech::Nr).unwrap();
        assert_eq!(a.sinr, b.sinr);
    }

    #[test]
    fn measure_pci_finds_locked_cell() {
        let e = env();
        let ue = Point::new(250.0, 460.0);
        let m = e.measure_pci(ue, Tech::Nr, 60).unwrap();
        assert_eq!(m.pci, 60);
        assert!(e.measure_pci(ue, Tech::Nr, 9999).is_none());
    }

    /// The spatial-indexed, table-driven fast path must be bit-identical
    /// to the naive full-scan reference — not merely close: the golden
    /// artifacts depend on exact bytes.
    #[test]
    fn fast_path_bit_identical_to_naive() {
        let e = env();
        let mut rng = SimRng::new(0xFA57);
        let mut scratch = MeasureScratch::new();
        for _ in 0..60 {
            let ue = Point::new(rng.range_f64(-50.0, 1050.0), rng.range_f64(-50.0, 1050.0));
            for tech in [Tech::Lte, Tech::Nr] {
                let naive = e.measure_all_naive(ue, tech);
                let fast = e.measure_all_into(ue, tech, &mut scratch);
                assert_eq!(naive.len(), fast.len());
                for (n, f) in naive.iter().zip(fast.iter()) {
                    assert_eq!(n.pci, f.pci, "order diverged at {ue:?}");
                    assert_eq!(n.rsrp.value().to_bits(), f.rsrp.value().to_bits());
                    assert_eq!(n.rsrq.value().to_bits(), f.rsrq.value().to_bits());
                    assert_eq!(n.sinr.value().to_bits(), f.sinr.value().to_bits());
                    assert_eq!(n.distance_m.to_bits(), f.distance_m.to_bits());
                }
            }
        }
    }

    /// A reused scratch returns the same measurements as fresh
    /// allocations, and its Drop flushes the phy.* counters into the
    /// ambient obs scope.
    #[test]
    fn scratch_reuse_matches_and_flushes_counters() {
        let e = env();
        let m = fiveg_obs::MetricsHandle::new();
        fiveg_obs::scoped(&m, || {
            let mut scratch = MeasureScratch::new();
            for k in 0..5 {
                let ue = Point::new(100.0 + 60.0 * k as f64, 300.0);
                let fresh = e.measure_all(ue, Tech::Nr);
                let reused = e.measure_all_into(ue, Tech::Nr, &mut scratch);
                assert_eq!(fresh, reused);
            }
        });
        let snap = m.snapshot();
        // 5 reused calls + 5 wrapper-internal scratches = 10 samples,
        // but only the persistent scratch records reuses (4 of them).
        assert_eq!(snap.counters["phy.measure.samples"], 10);
        assert_eq!(snap.counters["phy.scratch.reuse"], 4);
        // Rays are traced per unique mast position, not per cell.
        let nr_sites: std::collections::BTreeSet<(u64, u64)> = e
            .cells
            .iter()
            .filter(|c| c.tech() == Tech::Nr)
            .map(|c| (c.pos.x.to_bits(), c.pos.y.to_bits()))
            .collect();
        assert!(nr_sites.len() < e.num_cells(Tech::Nr), "sectors co-site");
        assert_eq!(snap.counters["phy.rays.traced"], 10 * nr_sites.len() as u64);
        assert!(snap.counters["phy.buildings.pruned"] > 0);
    }

    /// The RSRP order is descending `total_cmp`: a NaN from a
    /// pathological parameter set sorts deterministically (positive NaN
    /// above +inf, hence first) instead of panicking mid-campaign as
    /// the old `partial_cmp(..).expect(..)` did. The integer keys give
    /// exactly the stable `total_cmp` sort's order, ties and signed
    /// zeros included, and select picks the first passing entry of it.
    #[test]
    fn nan_rsrp_sorts_deterministically_without_panic() {
        let vals = [
            f64::NAN,
            -80.0,
            -120.0,
            -60.0,
            -80.0,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -f64::NAN,
            -60.0,
            0.0,
        ];
        let mut stable: Vec<usize> = (0..vals.len()).collect();
        stable.sort_by(|&a, &b| vals[b].total_cmp(&vals[a]));
        let mut keys: Vec<u128> = vals
            .iter()
            .enumerate()
            .map(|(k, &v)| rank_key(rank(v), k))
            .collect();
        keys.sort_unstable();
        let keyed: Vec<usize> = keys.iter().map(|&key| key as u64 as usize).collect();
        assert_eq!(keyed, stable);
        assert!(vals[keyed[0]].is_nan());
        assert_eq!(keyed[1..6], [7, 5, 11, 6, 3]);
        assert!(vals[keyed[vals.len() - 1]].is_nan());

        // Select picks the first passing entry of that order: the NaN
        // on top, and on a tie (-80 at 1 and 4, 0.0 at 5 and 11, -60 at
        // 3 and 10) the lower position, as the stable sort does.
        let survey = Survey {
            rank: vals.iter().map(|&v| rank(v)).collect(),
            ..Survey::default()
        };
        let first = |pass: &dyn Fn(usize) -> bool| keyed.iter().copied().find(|&k| pass(k));
        let filters: [&dyn Fn(usize) -> bool; 7] = [
            &|_| true,
            &|k| !vals[k].is_nan(),
            &|k| vals[k] == -80.0,
            &|k| vals[k].to_bits() == 0.0f64.to_bits(),
            &|k| vals[k] == -60.0,
            &|k| vals[k] < -70.0,
            &|_| false,
        ];
        for pass in filters {
            assert_eq!(survey.select(pass), first(pass));
            assert_eq!(survey.top_and_select(pass), (Some(0), first(pass)));
        }
        assert_eq!(survey.select(|k| vals[k] == -80.0), Some(1));
        assert_eq!(survey.select(|k| vals[k] == -60.0), Some(3));
        assert_eq!(survey.select(|k| k > 0 && !vals[k].is_nan()), Some(7));
        // A tie at the top goes to the lower position too.
        let tied = Survey {
            rank: [-60.0, -70.0, -60.0].map(rank).to_vec(),
            ..Survey::default()
        };
        assert_eq!(tied.top_and_select(|k| k != 0), (Some(0), Some(2)));
    }

    fn assert_same_measurements(a: &[CellMeasurement], b: &[CellMeasurement], at: Point) {
        assert_eq!(a.len(), b.len(), "at {at:?}");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.pci, y.pci, "order diverged at {at:?}");
            assert_eq!(x.rsrp.value().to_bits(), y.rsrp.value().to_bits());
            assert_eq!(x.rsrq.value().to_bits(), y.rsrq.value().to_bits());
            assert_eq!(x.sinr.value().to_bits(), y.sinr.value().to_bits());
            assert_eq!(x.distance_m.to_bits(), y.distance_m.to_bits());
        }
    }

    fn city_env(tiles: usize) -> RadioEnv {
        let mut spec = fiveg_geo::CitySpec::dense_urban();
        spec.tiles_x = tiles;
        spec.tiles_y = tiles;
        let campus = fiveg_geo::generate_city(&spec, &SimRng::new(2020));
        RadioEnv::from_campus(&campus, 0x5eed, 0.5, 0.05)
    }

    /// A 5x5 dense-urban city: 150 NR cells numbered from 60 run into
    /// the LTE numbering from 200, so PCIs 200..=209 each name one LTE
    /// and one NR cell.
    #[expect(clippy::disallowed_types, reason = "a read-only fixture built once")]
    fn colliding_city() -> &'static RadioEnv {
        static CITY: std::sync::OnceLock<RadioEnv> = std::sync::OnceLock::new();
        CITY.get_or_init(|| city_env(5))
    }

    fn same_bits(a: Option<CellMeasurement>, b: Option<CellMeasurement>, at: Point) {
        assert_eq!(a.is_some(), b.is_some(), "at {at:?}");
        assert_same_measurements(a.as_slice(), b.as_slice(), at);
    }

    /// Survey + select + materialise answers every query the fleet asks
    /// exactly as the first matching entry of the sorted list would:
    /// the top cell, the best cell outside a random outage set, the
    /// cell with a given PCI (from either technology's numbering), and
    /// each cell on its own.
    fn assert_select_matches_sorted(
        e: &RadioEnv,
        ue: Point,
        tech: Tech,
        rng: &mut SimRng,
        scratch: &mut MeasureScratch,
    ) {
        let sorted = e.measure_all_into(ue, tech, scratch).to_vec();
        let mut survey = Survey::default();
        e.survey_into(ue, tech, scratch, &mut survey);
        let pcis = e.pcis(tech);
        let pick = |k: Option<usize>| k.map(|k| e.materialise(&survey, k));
        same_bits(pick(survey.select(|_| true)), sorted.first().copied(), ue);
        for (k, &pci) in pcis.iter().enumerate() {
            let entry = sorted.iter().find(|m| m.pci == pci).copied();
            same_bits(Some(e.materialise(&survey, k)), entry, ue);
        }
        let all_pcis: Vec<u16> = e.cells.iter().map(|c| c.pci).collect();
        for round in 0..6 {
            let p = [0.1, 0.5, 0.9][round % 3];
            let mut outaged: BTreeSet<u16> =
                pcis.iter().copied().filter(|_| rng.chance(p)).collect();
            if let Some(top) = sorted.first().filter(|_| round % 2 == 0) {
                outaged.insert(top.pci);
            }
            same_bits(
                pick(survey.select(|k| !outaged.contains(&pcis[k]))),
                sorted.iter().find(|m| !outaged.contains(&m.pci)).copied(),
                ue,
            );
            let serving = all_pcis[rng.index(all_pcis.len())];
            let (top, current) = survey.top_and_select(|k| pcis[k] == serving);
            same_bits(pick(top), sorted.first().copied(), ue);
            same_bits(
                pick(current),
                sorted.iter().find(|m| m.pci == serving).copied(),
                ue,
            );
        }
    }

    /// Every PCI lookup takes the technology: on the colliding city each
    /// cell resolves to itself, and a shared PCI measures and rates the
    /// cell of the technology asked for.
    #[test]
    fn shared_pcis_resolve_per_technology() {
        let e = colliding_city();
        let lte = e.pcis(Tech::Lte);
        let shared: Vec<u16> = e
            .pcis(Tech::Nr)
            .iter()
            .copied()
            .filter(|p| lte.contains(p))
            .collect();
        assert_eq!(shared, (200..=209).collect::<Vec<u16>>());
        for (i, c) in e.cells.iter().enumerate() {
            assert_eq!(e.cell_index(c.tech(), c.pci), Some(i), "cell {i}");
        }
        let nr = e.cell_index(Tech::Nr, 205).unwrap();
        let cell = &e.cells[nr];
        let az = cell.antenna.azimuth_deg.to_radians();
        let ue = cell.pos + Point::new(az.cos(), az.sin()) * 60.0;
        let m = e.measure_pci(ue, Tech::Nr, 205).unwrap();
        assert_eq!((m.pci, m.tech), (205, Tech::Nr));
        let sorted = e.measure_all(ue, Tech::Nr);
        same_bits(Some(m), sorted.iter().find(|n| n.pci == 205).copied(), ue);
        assert_eq!(e.measure_pci(ue, Tech::Lte, 205).unwrap().tech, Tech::Lte);
        assert!(e.measure_pci(ue, Tech::Lte, 60).is_none());
        // The KPI comes from the NR carrier, not the LTE cell's.
        let kpi = e.kpi_for(m, ue, 1.0);
        assert!(kpi.in_service);
        let rate = cell.carrier.dl_rate_at_peak_mcs(1.0) * mcs::rate_fraction(m.sinr.value());
        assert_eq!(kpi.bitrate.bps().to_bits(), rate.bps().to_bits());
    }

    /// The fast path on a city big enough for the tiled index, at
    /// random points (some beyond the shadowing grid's margin, so the
    /// direct-evaluation fallback runs), indoor points and points on or
    /// within a metre of a mast.
    #[test]
    fn fast_path_bit_identical_to_naive_on_tiled_city() {
        let e = city_env(3);
        check_tiled_city(&e, &mut SimRng::new(0x71ED));
        // The colliding city adds shared PCIs to the select checks.
        check_tiled_city(colliding_city(), &mut SimRng::new(0x5E1E));
    }

    fn check_tiled_city(e: &RadioEnv, rng: &mut SimRng) {
        assert!(e.map.buildings.len() >= fiveg_geo::map::TILED_INDEX_THRESHOLD);
        assert!(e.map.spatial_index().is_tiled());
        let b = e.map.bounds;
        let mut points: Vec<Point> = (0..24)
            .map(|_| {
                Point::new(
                    rng.range_f64(b.min.x - 400.0, b.max.x + 400.0),
                    rng.range_f64(b.min.y - 400.0, b.max.y + 400.0),
                )
            })
            .collect();
        points.extend(
            e.map
                .buildings
                .iter()
                .step_by(40)
                .map(|bl| bl.footprint.center()),
        );
        for c in e.cells.iter().step_by(30) {
            points.push(c.pos);
            points.push(c.pos + Point::new(0.6, -0.5));
        }
        points.push(Point::new(b.max.x + 250.0, b.max.y + 300.0));
        assert!(points.iter().any(|&p| e.map.is_indoor(p)));
        let mut scratch = MeasureScratch::new();
        for &ue in &points {
            for tech in [Tech::Lte, Tech::Nr] {
                let naive = e.measure_all_naive(ue, tech);
                assert_same_measurements(&naive, e.measure_all_into(ue, tech, &mut scratch), ue);
                assert_select_matches_sorted(e, ue, tech, rng, &mut scratch);
            }
        }
    }

    /// One scratch shared by several environments must never replay
    /// rays traced in another: neither for an environment with the same
    /// site count (wrong values) nor for one with more sites (an
    /// out-of-bounds ray-cache index).
    #[test]
    fn scratch_shared_between_envs_matches_fresh() {
        let e = env();
        let mut moved_cells = e.cells.clone();
        for c in &mut moved_cells {
            c.pos = c.pos + Point::new(40.0, -35.0);
        }
        let moved = RadioEnv::new(e.map.clone(), moved_cells, e.params, 77);
        let city = city_env(3);
        assert!(city.sites.len() > e.sites.len());
        let mut shared = MeasureScratch::new();
        let mut rng = SimRng::new(0x5CA7);
        for _ in 0..20 {
            let ue = Point::new(rng.range_f64(0.0, 1000.0), rng.range_f64(0.0, 1000.0));
            for tech in [Tech::Lte, Tech::Nr] {
                for other in [&e, &moved, &city, &e] {
                    let fresh = other.measure_all(ue, tech);
                    assert_same_measurements(
                        &fresh,
                        other.measure_all_into(ue, tech, &mut shared),
                        ue,
                    );
                }
            }
        }
        // A clone is a distinct environment for the cache as well.
        assert_ne!(e.clone().id, e.id);
    }
}
