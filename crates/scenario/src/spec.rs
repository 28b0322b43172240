//! The scenario data model.
//!
//! A [`ScenarioSpec`] is the in-memory form of one scenario file: which
//! campus to generate, what the interference loads look like, what the
//! workload is (a road survey or a UE fleet with mobility models,
//! arrival processes and per-group applications), and a schedule of
//! fault events injected at fixed sim times.
//!
//! The types here are plain data — no simulation state. `fiveg-core`
//! interprets a spec into a running scenario; this crate only defines,
//! parses, validates and emits it.

pub use fiveg_geo::CityPreset;

/// Smallest campus side [`ScenarioSpec::validate`] accepts, metres:
/// the campus generator places every cell site at least 10 m inside
/// each edge.
pub const MIN_CAMPUS_SIDE_M: f64 = 20.0;

/// Campus-generation overrides. Defaults reproduce the paper's campus
/// (500 × 920 m, 13 eNB sites, 6 co-sited gNB sites).
#[derive(Debug, Clone, PartialEq)]
pub struct CampusSpec {
    /// Campus width (east-west), metres.
    pub width_m: f64,
    /// Campus height (north-south), metres.
    pub height_m: f64,
    /// Number of eNB sites.
    pub enb_sites: u32,
    /// Number of gNB sites (must be ≤ `enb_sites`; NSA co-siting).
    pub gnb_sites: u32,
    /// Fraction of concrete (vs brick) buildings.
    pub concrete_fraction: f64,
}

impl Default for CampusSpec {
    fn default() -> Self {
        CampusSpec {
            width_m: 500.0,
            height_m: 920.0,
            enb_sites: 13,
            gnb_sites: 6,
            concrete_fraction: 0.35,
        }
    }
}

/// Procedural-city generation parameters (the `city` block). When
/// present the scenario runs on a generated metro city
/// ([`fiveg_geo::generate_city`]) instead of the single campus block, and the
/// `campus` block is ignored. All fields are concrete after parsing —
/// missing keys resolve against the named preset — so canonical
/// emission is total.
#[derive(Debug, Clone, PartialEq)]
pub struct CityDslSpec {
    /// Generator preset supplying the tile grammar.
    pub preset: CityPreset,
    /// Tiles east-west.
    pub tiles_x: u32,
    /// Tiles north-south.
    pub tiles_y: u32,
    /// LTE eNB sites per tile.
    pub enb_per_tile: u32,
    /// NR gNB sites per tile (≤ `enb_per_tile`; NSA co-siting).
    pub gnb_per_tile: u32,
    /// Fraction of concrete (vs brick) buildings.
    pub concrete_fraction: f64,
}

impl CityDslSpec {
    /// The spec with every field at the preset's defaults.
    pub fn from_preset(preset: CityPreset) -> CityDslSpec {
        let base = fiveg_geo::CitySpec::preset(preset);
        CityDslSpec {
            preset,
            tiles_x: base.tiles_x as u32,
            tiles_y: base.tiles_y as u32,
            enb_per_tile: base.enb_per_tile as u32,
            gnb_per_tile: base.gnb_per_tile as u32,
            concrete_fraction: base.concrete_fraction,
        }
    }

    /// Resolves to the generator's [`fiveg_geo::CitySpec`]: the preset
    /// supplies the tile grammar (tile size, block lattice, heights),
    /// this spec overrides the swept densities.
    pub fn to_city_spec(&self) -> fiveg_geo::CitySpec {
        fiveg_geo::CitySpec {
            tiles_x: self.tiles_x as usize,
            tiles_y: self.tiles_y as usize,
            enb_per_tile: self.enb_per_tile as usize,
            gnb_per_tile: self.gnb_per_tile as usize,
            concrete_fraction: self.concrete_fraction,
            ..fiveg_geo::CitySpec::preset(self.preset)
        }
    }
}

/// Time-of-day regime selecting the default interference loads
/// (Sec. 4.1: 4G busy by day, the early 5G network nearly empty).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Period {
    /// Daytime busy hour: LTE load 0.5, NR load 0.05.
    Day,
    /// Night: LTE load 0.2, NR load 0.03.
    Night,
}

impl Period {
    /// Stable lowercase name used in scenario files.
    pub fn name(self) -> &'static str {
        match self {
            Period::Day => "day",
            Period::Night => "night",
        }
    }

    /// Default `(lte_load, nr_load)` activity factors for the period.
    pub fn default_loads(self) -> (f64, f64) {
        match self {
            Period::Day => (0.5, 0.05),
            Period::Night => (0.2, 0.03),
        }
    }
}

/// Cell activity factors driving inter-cell interference.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadSpec {
    /// Time-of-day regime providing the defaults.
    pub period: Period,
    /// Explicit LTE activity-factor override, `0..=1`.
    pub lte: Option<f64>,
    /// Explicit NR activity-factor override, `0..=1`.
    pub nr: Option<f64>,
}

impl Default for LoadSpec {
    fn default() -> Self {
        LoadSpec {
            period: Period::Day,
            lte: None,
            nr: None,
        }
    }
}

impl LoadSpec {
    /// Resolves the effective `(lte_load, nr_load)` pair.
    pub fn resolve(&self) -> (f64, f64) {
        let (lte, nr) = self.period.default_loads();
        (self.lte.unwrap_or(lte), self.nr.unwrap_or(nr))
    }
}

/// The workload the scenario runs.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// The Sec. 3.1 blanket road survey (walk every road, sample KPIs).
    /// With default parameters this is byte-faithful to the registry's
    /// `table1` job.
    Survey(SurveySpec),
    /// A UE fleet: groups with mobility models, arrival processes and
    /// per-group applications, sampled on a fixed tick.
    Fleet(FleetSpec),
}

/// Road-survey parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SurveySpec {
    /// Walking speed, km/h (paper: 4.5).
    pub speed_kmh: f64,
    /// KPI sampling interval, milliseconds (paper: 1000).
    pub interval_ms: u64,
}

impl Default for SurveySpec {
    fn default() -> Self {
        SurveySpec {
            speed_kmh: 4.5,
            interval_ms: 1000,
        }
    }
}

/// Fleet-workload parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Run length, seconds of sim time.
    pub duration_s: u64,
    /// KPI sampling tick, milliseconds.
    pub tick_ms: u64,
    /// UE groups, in file order.
    pub groups: Vec<UeGroupSpec>,
}

/// One homogeneous UE group.
#[derive(Debug, Clone, PartialEq)]
pub struct UeGroupSpec {
    /// Group name; must be unique within the scenario.
    pub name: String,
    /// Number of UEs.
    pub count: u32,
    /// Radio access technology the group camps on.
    pub tech: TechSpec,
    /// Mobility model.
    pub mobility: MobilitySpec,
    /// Arrival process spreading UE session starts over the run.
    pub arrival: ArrivalSpec,
    /// The application every UE of the group runs.
    pub app: AppSpec,
}

/// Radio access technology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TechSpec {
    /// 4G LTE.
    Lte,
    /// 5G NR (NSA).
    Nr,
}

impl TechSpec {
    /// Stable lowercase name used in scenario files.
    pub fn name(self) -> &'static str {
        match self {
            TechSpec::Lte => "lte",
            TechSpec::Nr => "nr",
        }
    }
}

/// Mobility models for fleet UEs.
#[derive(Debug, Clone, PartialEq)]
pub enum MobilitySpec {
    /// Stationary at a random outdoor point.
    Static,
    /// Random waypoint between outdoor points, per-leg speed drawn
    /// uniformly from the range.
    Waypoint {
        /// Minimum leg speed, km/h.
        speed_min_kmh: f64,
        /// Maximum leg speed, km/h.
        speed_max_kmh: f64,
    },
    /// A straight back-and-forth walk between two fixed points.
    Transect {
        /// Start point `(x, y)`, metres.
        from: (f64, f64),
        /// End point `(x, y)`, metres.
        to: (f64, f64),
        /// Speed, km/h.
        speed_kmh: f64,
    },
}

/// Arrival processes: when each UE of a group starts its session,
/// within the run window `[0, duration)`.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalSpec {
    /// Session starts spread uniformly over the run.
    Steady,
    /// Diurnal shape: the run window maps onto one day, arrival density
    /// follows a raised cosine centred at `peak_frac` of the window.
    Diurnal {
        /// Peak position as a fraction of the run window, `0..=1`.
        peak_frac: f64,
    },
    /// Flash crowd: everyone arrives in a short exponential burst.
    FlashCrowd {
        /// Burst start, seconds into the run.
        at_s: f64,
        /// Mean arrival delay after the burst start, seconds.
        spread_s: f64,
    },
}

/// Per-group applications, parameterised by the `fiveg-apps` models.
#[derive(Debug, Clone, PartialEq)]
pub enum AppSpec {
    /// iperf-like full-buffer bulk download.
    Bulk,
    /// Panoramic video telephony at a fixed resolution/scene.
    Video {
        /// Stream resolution.
        resolution: VideoRes,
        /// Scene dynamics.
        scene: SceneSpec,
    },
    /// Repeated page loads with think time between pages.
    Web {
        /// Page category (sizes and render model follow the paper).
        category: WebCategory,
        /// Mean think time between pages, seconds.
        think_s: f64,
    },
}

impl AppSpec {
    /// Stable kind name used in scenario files and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            AppSpec::Bulk => "bulk",
            AppSpec::Video { .. } => "video",
            AppSpec::Web { .. } => "web",
        }
    }
}

/// Video resolutions (mirrors `fiveg_apps::Resolution`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VideoRes {
    /// 720p panoramic.
    P720,
    /// 1080p panoramic.
    P1080,
    /// 4K panoramic.
    K4,
    /// 5.7K panoramic.
    K57,
}

impl VideoRes {
    /// Stable lowercase name used in scenario files.
    pub fn name(self) -> &'static str {
        match self {
            VideoRes::P720 => "720p",
            VideoRes::P1080 => "1080p",
            VideoRes::K4 => "4k",
            VideoRes::K57 => "5.7k",
        }
    }
}

/// Scene dynamics (mirrors `fiveg_apps::SceneKind`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SceneSpec {
    /// Tripod-style static scene.
    Static,
    /// Constantly moving camera.
    Dynamic,
}

impl SceneSpec {
    /// Stable lowercase name used in scenario files.
    pub fn name(self) -> &'static str {
        match self {
            SceneSpec::Static => "static",
            SceneSpec::Dynamic => "dynamic",
        }
    }
}

/// Web page categories (mirrors `fiveg_apps::PageCategory`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WebCategory {
    /// Search result pages.
    Search,
    /// Image-heavy pages.
    Image,
    /// On-line shopping.
    Shopping,
    /// Map navigation.
    Map,
    /// Video-streaming landing pages.
    Video,
}

impl WebCategory {
    /// Stable lowercase name used in scenario files.
    pub fn name(self) -> &'static str {
        match self {
            WebCategory::Search => "search",
            WebCategory::Image => "image",
            WebCategory::Shopping => "shopping",
            WebCategory::Map => "map",
            WebCategory::Video => "video",
        }
    }
}

/// A fault event injected into the sim over a half-open time window
/// `[start_s, end_s)`.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// The listed cells stop serving (and stop being hand-off targets)
    /// for the window — a site power loss.
    CellOutage {
        /// Window start, seconds.
        start_s: f64,
        /// Window end, seconds (exclusive).
        end_s: f64,
        /// Physical cell ids taken down.
        pcis: Vec<u16>,
    },
    /// The shared wireline backhaul degrades to a fixed aggregate
    /// capacity, split equally among active UEs.
    BackhaulBrownout {
        /// Window start, seconds.
        start_s: f64,
        /// Window end, seconds (exclusive).
        end_s: f64,
        /// Aggregate capacity during the window, Mbps.
        capacity_mbps: f64,
    },
    /// The hand-off hysteresis margin is overridden (0 dB produces
    /// ping-pong storms at cell edges).
    HandoffStorm {
        /// Window start, seconds.
        start_s: f64,
        /// Window end, seconds (exclusive).
        end_s: f64,
        /// Hysteresis margin during the window, dB.
        hysteresis_db: f64,
    },
}

impl FaultSpec {
    /// Stable kind name used in scenario files and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            FaultSpec::CellOutage { .. } => "cell_outage",
            FaultSpec::BackhaulBrownout { .. } => "backhaul_brownout",
            FaultSpec::HandoffStorm { .. } => "handoff_storm",
        }
    }

    /// The event window `(start_s, end_s)`.
    pub fn window(&self) -> (f64, f64) {
        match *self {
            FaultSpec::CellOutage { start_s, end_s, .. }
            | FaultSpec::BackhaulBrownout { start_s, end_s, .. }
            | FaultSpec::HandoffStorm { start_s, end_s, .. } => (start_s, end_s),
        }
    }
}

/// One complete scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name: the campaign job name and artifact file stem.
    /// Restricted to `[a-z0-9_]` so artifact paths and derived-seed
    /// inputs stay predictable.
    pub name: String,
    /// Free-text description.
    pub description: String,
    /// Campus generation parameters. Ignored when `city` is present.
    pub campus: CampusSpec,
    /// Procedural-city generation parameters. When present the run
    /// uses a generated metro city instead of the campus block.
    pub city: Option<CityDslSpec>,
    /// Interference loads.
    pub loads: LoadSpec,
    /// The workload.
    pub workload: WorkloadSpec,
    /// Fault schedule, in file order.
    pub faults: Vec<FaultSpec>,
}

/// A [`ScenarioSpec::validate`] failure: the dotted key path of the
/// offending value in the scenario (`workload.groups[0].count`, or
/// `campus` for a rule across its keys) and what is wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Key path of the offending value, relative to the scenario.
    pub path: String,
    /// What is wrong.
    pub message: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path, self.message)
    }
}

impl std::error::Error for SpecError {}

/// A [`SpecError`] at `path`.
fn invalid(path: impl Into<String>, message: impl Into<String>) -> Result<(), SpecError> {
    Err(SpecError {
        path: path.into(),
        message: message.into(),
    })
}

impl ScenarioSpec {
    /// Semantic validation beyond what parsing enforces. Returns the
    /// first violated invariant, at the key path of its value.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.name.is_empty()
            || !self
                .name
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        {
            return invalid(
                "name",
                format!(
                    "name `{}` must be non-empty and match [a-z0-9_]+",
                    self.name
                ),
            );
        }
        if self.campus.gnb_sites > self.campus.enb_sites {
            return invalid(
                "campus.gnb_sites",
                format!(
                    "gnb_sites ({}) must be <= enb_sites ({}): every gNB co-sits with an eNB",
                    self.campus.gnb_sites, self.campus.enb_sites
                ),
            );
        }
        for (key, side) in [
            ("width_m", self.campus.width_m),
            ("height_m", self.campus.height_m),
        ] {
            let ok = side >= MIN_CAMPUS_SIDE_M; // false on NaN
            if !ok {
                return invalid(
                    format!("campus.{key}"),
                    format!(
                        "{key} ({side}) must be at least {MIN_CAMPUS_SIDE_M} m: cell sites keep 10 m from the campus edge"
                    ),
                );
            }
        }
        if !(0.0..=1.0).contains(&self.campus.concrete_fraction) {
            return invalid("campus.concrete_fraction", "must be in [0, 1]");
        }
        if let Some(city) = &self.city {
            if let Err(e) = city.to_city_spec().validate() {
                return invalid("city", e);
            }
        }
        let (lte, nr) = self.loads.resolve();
        if !(0.0..=1.0).contains(&lte) || !(0.0..=1.0).contains(&nr) {
            return invalid("loads", "loads must be in [0, 1]");
        }
        match &self.workload {
            WorkloadSpec::Survey(s) => {
                if s.speed_kmh <= 0.0 {
                    return invalid("workload.speed_kmh", "survey speed_kmh must be positive");
                }
                if s.interval_ms == 0 {
                    return invalid(
                        "workload.interval_ms",
                        "survey interval_ms must be positive",
                    );
                }
            }
            WorkloadSpec::Fleet(f) => {
                if f.duration_s == 0 {
                    return invalid("workload.duration_s", "fleet duration_s must be positive");
                }
                if f.tick_ms == 0 {
                    return invalid("workload.tick_ms", "fleet tick_ms must be positive");
                }
                if f.groups.is_empty() {
                    return invalid("workload.groups", "fleet needs at least one UE group");
                }
                let mut seen: Vec<&str> = Vec::new();
                for (i, g) in f.groups.iter().enumerate() {
                    let at = |key: &str| format!("workload.groups[{i}].{key}");
                    if g.name.is_empty() {
                        return invalid(at("name"), "group name must be non-empty");
                    }
                    if seen.contains(&g.name.as_str()) {
                        return invalid(at("name"), format!("duplicate group name `{}`", g.name));
                    }
                    seen.push(&g.name);
                    if g.count == 0 {
                        return invalid(at("count"), format!("group `{}` has zero UEs", g.name));
                    }
                    match &g.mobility {
                        MobilitySpec::Waypoint {
                            speed_min_kmh,
                            speed_max_kmh,
                        } => {
                            if !(*speed_min_kmh > 0.0 && speed_max_kmh >= speed_min_kmh) {
                                return invalid(
                                    at("mobility"),
                                    format!(
                                        "group `{}`: waypoint speed range [{speed_min_kmh}, {speed_max_kmh}] is invalid",
                                        g.name
                                    ),
                                );
                            }
                        }
                        MobilitySpec::Transect { speed_kmh, .. } => {
                            if *speed_kmh <= 0.0 {
                                return invalid(
                                    at("mobility.speed_kmh"),
                                    format!("group `{}`: transect speed must be positive", g.name),
                                );
                            }
                        }
                        MobilitySpec::Static => {}
                    }
                    match &g.arrival {
                        ArrivalSpec::Diurnal { peak_frac } => {
                            if !(0.0..=1.0).contains(peak_frac) {
                                return invalid(
                                    at("arrival.peak_frac"),
                                    format!(
                                        "group `{}`: diurnal peak_frac must be in [0, 1]",
                                        g.name
                                    ),
                                );
                            }
                        }
                        ArrivalSpec::FlashCrowd { at_s, spread_s } => {
                            let ok = *at_s >= 0.0 && *spread_s > 0.0; // false on NaN
                            if !ok {
                                return invalid(
                                    at("arrival"),
                                    format!(
                                        "group `{}`: flash_crowd needs at_s >= 0 and spread_s > 0",
                                        g.name
                                    ),
                                );
                            }
                        }
                        ArrivalSpec::Steady => {}
                    }
                    if let AppSpec::Web { think_s, .. } = &g.app {
                        let ok = *think_s >= 0.0; // false on NaN
                        if !ok {
                            return invalid(
                                at("app.think_s"),
                                format!("group `{}`: web think_s must be >= 0", g.name),
                            );
                        }
                    }
                }
            }
        }
        for (i, fault) in self.faults.iter().enumerate() {
            let at = |key: &str| format!("faults[{i}].{key}");
            let (start, end) = fault.window();
            let well_formed = start >= 0.0 && end > start; // false on NaN
            if !well_formed {
                return invalid(
                    format!("faults[{i}]"),
                    format!(
                        "{} window [{start}, {end}) is invalid: needs 0 <= start < end",
                        fault.kind()
                    ),
                );
            }
            match fault {
                FaultSpec::CellOutage { pcis, .. } => {
                    if pcis.is_empty() {
                        return invalid(at("pcis"), "cell_outage lists no PCIs");
                    }
                }
                FaultSpec::BackhaulBrownout { capacity_mbps, .. } => {
                    let ok = *capacity_mbps > 0.0; // false on NaN
                    if !ok {
                        return invalid(
                            at("capacity_mbps"),
                            "backhaul_brownout capacity_mbps must be positive",
                        );
                    }
                }
                FaultSpec::HandoffStorm { hysteresis_db, .. } => {
                    let ok = *hysteresis_db >= 0.0; // false on NaN
                    if !ok {
                        return invalid(
                            at("hysteresis_db"),
                            "handoff_storm hysteresis_db must be >= 0",
                        );
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> ScenarioSpec {
        ScenarioSpec {
            name: "t".into(),
            description: String::new(),
            campus: CampusSpec::default(),
            city: None,
            loads: LoadSpec::default(),
            workload: WorkloadSpec::Survey(SurveySpec::default()),
            faults: Vec::new(),
        }
    }

    #[test]
    fn defaults_are_paper_shaped() {
        let c = CampusSpec::default();
        assert_eq!((c.width_m, c.height_m), (500.0, 920.0));
        assert_eq!((c.enb_sites, c.gnb_sites), (13, 6));
        assert_eq!(LoadSpec::default().resolve(), (0.5, 0.05));
        assert_eq!(Period::Night.default_loads(), (0.2, 0.03));
    }

    #[test]
    fn validate_accepts_minimal() {
        assert_eq!(minimal().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_name_and_sites() {
        let mut s = minimal();
        s.name = "Bad Name".into();
        assert!(s.validate().is_err());
        let mut s = minimal();
        s.campus.gnb_sites = 99;
        assert_eq!(s.validate().unwrap_err().path, "campus.gnb_sites");
    }

    #[test]
    fn validate_rejects_inverted_fault_window() {
        let mut s = minimal();
        s.faults.push(FaultSpec::CellOutage {
            start_s: 50.0,
            end_s: 10.0,
            pcis: vec![60],
        });
        let e = s.validate().unwrap_err();
        assert_eq!(e.path, "faults[0]");
        assert!(e.message.contains("window"), "{e}");
    }

    #[test]
    fn validate_rejects_nan_windows_and_empty_pcis() {
        let mut s = minimal();
        s.faults.push(FaultSpec::HandoffStorm {
            start_s: f64::NAN,
            end_s: 10.0,
            hysteresis_db: 0.0,
        });
        assert!(s.validate().is_err());
        let mut s = minimal();
        s.faults.push(FaultSpec::CellOutage {
            start_s: 0.0,
            end_s: 1.0,
            pcis: vec![],
        });
        let e = s.validate().unwrap_err();
        assert_eq!(e.path, "faults[0].pcis");
        assert!(e.message.contains("no PCIs"), "{e}");
    }
}
