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
/// ([`fiveg_geo::city`]) instead of the single campus block, and the
/// `campus` block is ignored. All fields are concrete after parsing —
/// missing keys resolve against the named preset — so canonical
/// emission is total.
#[derive(Debug, Clone, PartialEq)]
pub struct CityDslSpec {
    /// Generator preset supplying the tile grammar: `dense_urban`,
    /// `rural` or `indoor_hotspot`.
    pub preset: String,
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
    /// The spec with every field at the preset's defaults, or `None`
    /// for an unknown preset name.
    pub fn from_preset(preset: &str) -> Option<CityDslSpec> {
        let base = fiveg_geo::CitySpec::preset(preset)?;
        Some(CityDslSpec {
            preset: preset.to_string(),
            tiles_x: base.tiles_x as u32,
            tiles_y: base.tiles_y as u32,
            enb_per_tile: base.enb_per_tile as u32,
            gnb_per_tile: base.gnb_per_tile as u32,
            concrete_fraction: base.concrete_fraction,
        })
    }

    /// Resolves to the generator's [`fiveg_geo::CitySpec`]: the preset
    /// supplies the tile grammar (tile size, block lattice, heights),
    /// this spec overrides the swept densities.
    ///
    /// `None` for an unknown preset ([`ScenarioSpec::validate`]
    /// rejects those).
    pub fn to_city_spec(&self) -> Option<fiveg_geo::CitySpec> {
        let mut spec = fiveg_geo::CitySpec::preset(&self.preset)?;
        spec.tiles_x = self.tiles_x as usize;
        spec.tiles_y = self.tiles_y as usize;
        spec.enb_per_tile = self.enb_per_tile as usize;
        spec.gnb_per_tile = self.gnb_per_tile as usize;
        spec.concrete_fraction = self.concrete_fraction;
        Some(spec)
    }
}

/// Event categories the trace recorder understands, in mask-bit order.
/// `shard` (physical shard-message events) is opt-in: it is the one
/// category whose bytes legitimately vary with the shard count (which
/// `repro --jobs` sets).
pub const TRACE_CATEGORIES: &[&str] = &["radio", "fault", "kpi", "cc", "shard"];

/// Trace recording parameters (the `trace` block). Configures the
/// flight recorder when the run is traced (`repro --trace`); without
/// `--trace` the block is inert. All fields are concrete after parsing
/// — missing keys resolve to the recorder defaults — so canonical
/// emission is total.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDslSpec {
    /// KPI sampling stride: one KPI row every `sample` ticks per UE
    /// (1 = every tick). Sparse event kinds are never sampled down.
    pub sample: u32,
    /// Flight-recorder capacity: last `ring` events kept per category
    /// in ring mode. Ignored by `--trace=full`.
    pub ring: u32,
    /// Recorded event categories, a subset of [`TRACE_CATEGORIES`].
    pub categories: Vec<String>,
}

impl Default for TraceDslSpec {
    fn default() -> Self {
        TraceDslSpec {
            sample: 1,
            ring: 1024,
            // The recorder default: everything except the shard-count
            // dependent `shard` category.
            categories: ["radio", "fault", "kpi", "cc"]
                .iter()
                .map(ToString::to_string)
                .collect(),
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
    /// Trace-recorder overrides, applied when the run is traced.
    pub trace: Option<TraceDslSpec>,
    /// Interference loads.
    pub loads: LoadSpec,
    /// The workload.
    pub workload: WorkloadSpec,
    /// Fault schedule, in file order.
    pub faults: Vec<FaultSpec>,
}

impl ScenarioSpec {
    /// Semantic validation beyond what parsing enforces. Returns the
    /// first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty()
            || !self
                .name
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        {
            return Err(format!(
                "name `{}` must be non-empty and match [a-z0-9_]+",
                self.name
            ));
        }
        if self.campus.gnb_sites > self.campus.enb_sites {
            return Err(format!(
                "campus.gnb_sites ({}) must be <= campus.enb_sites ({}): every gNB co-sits with an eNB",
                self.campus.gnb_sites, self.campus.enb_sites
            ));
        }
        for (key, side) in [
            ("width_m", self.campus.width_m),
            ("height_m", self.campus.height_m),
        ] {
            let ok = side >= MIN_CAMPUS_SIDE_M; // false on NaN
            if !ok {
                return Err(format!(
                    "campus.{key} ({side}) must be at least {MIN_CAMPUS_SIDE_M} m: cell sites keep 10 m from the campus edge"
                ));
            }
        }
        if !(0.0..=1.0).contains(&self.campus.concrete_fraction) {
            return Err("campus.concrete_fraction must be in [0, 1]".into());
        }
        if let Some(city) = &self.city {
            let Some(spec) = city.to_city_spec() else {
                return Err(format!(
                    "city.preset `{}` is unknown (expected dense_urban, rural or indoor_hotspot)",
                    city.preset
                ));
            };
            spec.validate().map_err(|e| format!("city: {e}"))?;
        }
        if let Some(t) = &self.trace {
            if t.sample == 0 {
                return Err("trace.sample must be at least 1".into());
            }
            if t.ring == 0 {
                return Err("trace.ring must be at least 1".into());
            }
            if t.categories.is_empty() {
                return Err("trace.categories must name at least one category".into());
            }
            let mut seen: Vec<&str> = Vec::new();
            for c in &t.categories {
                if !TRACE_CATEGORIES.contains(&c.as_str()) {
                    return Err(format!(
                        "trace.categories: unknown category `{c}` (expected {})",
                        TRACE_CATEGORIES.join(", ")
                    ));
                }
                if seen.contains(&c.as_str()) {
                    return Err(format!("trace.categories: duplicate category `{c}`"));
                }
                seen.push(c);
            }
        }
        let (lte, nr) = self.loads.resolve();
        if !(0.0..=1.0).contains(&lte) || !(0.0..=1.0).contains(&nr) {
            return Err("loads must be in [0, 1]".into());
        }
        match &self.workload {
            WorkloadSpec::Survey(s) => {
                if s.speed_kmh <= 0.0 {
                    return Err("survey speed_kmh must be positive".into());
                }
                if s.interval_ms == 0 {
                    return Err("survey interval_ms must be positive".into());
                }
            }
            WorkloadSpec::Fleet(f) => {
                if f.duration_s == 0 {
                    return Err("fleet duration_s must be positive".into());
                }
                if f.tick_ms == 0 {
                    return Err("fleet tick_ms must be positive".into());
                }
                if f.groups.is_empty() {
                    return Err("fleet needs at least one UE group".into());
                }
                let mut seen: Vec<&str> = Vec::new();
                for g in &f.groups {
                    if g.name.is_empty() {
                        return Err("group name must be non-empty".into());
                    }
                    if seen.contains(&g.name.as_str()) {
                        return Err(format!("duplicate group name `{}`", g.name));
                    }
                    seen.push(&g.name);
                    if g.count == 0 {
                        return Err(format!("group `{}` has zero UEs", g.name));
                    }
                    match &g.mobility {
                        MobilitySpec::Waypoint {
                            speed_min_kmh,
                            speed_max_kmh,
                        } => {
                            if !(*speed_min_kmh > 0.0 && speed_max_kmh >= speed_min_kmh) {
                                return Err(format!(
                                    "group `{}`: waypoint speed range [{speed_min_kmh}, {speed_max_kmh}] is invalid",
                                    g.name
                                ));
                            }
                        }
                        MobilitySpec::Transect { speed_kmh, .. } => {
                            if *speed_kmh <= 0.0 {
                                return Err(format!(
                                    "group `{}`: transect speed must be positive",
                                    g.name
                                ));
                            }
                        }
                        MobilitySpec::Static => {}
                    }
                    match &g.arrival {
                        ArrivalSpec::Diurnal { peak_frac } => {
                            if !(0.0..=1.0).contains(peak_frac) {
                                return Err(format!(
                                    "group `{}`: diurnal peak_frac must be in [0, 1]",
                                    g.name
                                ));
                            }
                        }
                        ArrivalSpec::FlashCrowd { at_s, spread_s } => {
                            let ok = *at_s >= 0.0 && *spread_s > 0.0; // false on NaN
                            if !ok {
                                return Err(format!(
                                    "group `{}`: flash_crowd needs at_s >= 0 and spread_s > 0",
                                    g.name
                                ));
                            }
                        }
                        ArrivalSpec::Steady => {}
                    }
                    if let AppSpec::Web { think_s, .. } = &g.app {
                        let ok = *think_s >= 0.0; // false on NaN
                        if !ok {
                            return Err(format!("group `{}`: web think_s must be >= 0", g.name));
                        }
                    }
                }
            }
        }
        for (i, fault) in self.faults.iter().enumerate() {
            let (start, end) = fault.window();
            let well_formed = start >= 0.0 && end > start; // false on NaN
            if !well_formed {
                return Err(format!(
                    "fault[{i}] ({}) window [{start}, {end}) is invalid: needs 0 <= start < end",
                    fault.kind()
                ));
            }
            match fault {
                FaultSpec::CellOutage { pcis, .. } => {
                    if pcis.is_empty() {
                        return Err(format!("fault[{i}] (cell_outage) lists no PCIs"));
                    }
                }
                FaultSpec::BackhaulBrownout { capacity_mbps, .. } => {
                    let ok = *capacity_mbps > 0.0; // false on NaN
                    if !ok {
                        return Err(format!(
                            "fault[{i}] (backhaul_brownout) capacity_mbps must be positive"
                        ));
                    }
                }
                FaultSpec::HandoffStorm { hysteresis_db, .. } => {
                    let ok = *hysteresis_db >= 0.0; // false on NaN
                    if !ok {
                        return Err(format!(
                            "fault[{i}] (handoff_storm) hysteresis_db must be >= 0"
                        ));
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
            trace: None,
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
        assert!(s.validate().unwrap_err().contains("gnb_sites"));
    }

    #[test]
    fn validate_rejects_inverted_fault_window() {
        let mut s = minimal();
        s.faults.push(FaultSpec::CellOutage {
            start_s: 50.0,
            end_s: 10.0,
            pcis: vec![60],
        });
        assert!(s.validate().unwrap_err().contains("window"));
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
        assert!(s.validate().unwrap_err().contains("no PCIs"));
    }
}
