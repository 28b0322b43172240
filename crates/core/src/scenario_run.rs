//! The scenario-driven experiment runner.
//!
//! Interprets a parsed [`ScenarioSpec`] (the `fiveg-scenario` DSL) into
//! a running simulation:
//!
//! * `survey` workloads run the Sec. 3.1 blanket road survey through
//!   the coverage survey behind [`crate::table1`] — a paper-default scenario file is
//!   byte-faithful to the registry's `table1` job.
//! * `fleet` workloads tick a UE population (mobility + arrival + app
//!   mix per group) against the shared [`RadioEnv`], with PRB sharing
//!   per cell and the scenario's fault schedule applied as timed
//!   events: cell outages, backhaul brownouts and hand-off storms.
//!
//! Determinism contract: the deployment (campus + radio environment)
//! is built from the campaign's *base* seed, so a scenario describes
//! the same network as every registry job; all fleet-private
//! randomness (waypoints, arrivals, page sizes) derives from the
//! per-job seed. The fleet tick loop runs on the conservative-PDES
//! shard engine ([`fiveg_simcore::ShardEngine`]): UEs partition into
//! cell-cluster shards that advance concurrently against a wireline
//! router shard, with the access path's one-way latency as lookahead.
//! [`ScenarioJob`] runs on as many shards as the run has threads
//! (`JobCtx::threads`, i.e. `--jobs`), and artifact bytes and obs
//! counters are independent of that count — cross-shard ties break on
//! the stable `(time, shard-id, seq)` key, never on arrival order, and
//! every shard count runs the engine's one barrier-windowed loop (one
//! shard is one UE shard plus the router on one thread).

use crate::experiments::coverage;
use crate::report;
use crate::Scenario;
use fiveg_campaign::{Job, JobCtx, JobOutput};
use fiveg_geo::{Campus, CampusConfig, LinearTransect, Point, RandomWaypoint};
use fiveg_net::path::{Direction, PaperPathParams};
use fiveg_net::PathConfig;
use fiveg_phy::{CellMeasurement, MeasureScratch, RadioEnv, Survey, Tech};
use fiveg_scenario::{
    AppSpec, ArrivalSpec, FaultSpec, FleetSpec, MobilitySpec, ScenarioSpec, SceneSpec, TechSpec,
    UeGroupSpec, VideoRes, WebCategory, WorkloadSpec,
};
use fiveg_simcore::{OnlineStats, ShardCtx, ShardEngine, ShardLogic, SimDuration, SimRng, SimTime};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};

/// Hand-off hysteresis outside storm windows, dB (3GPP-typical A3
/// margin, also used by the Sec. 3.4 hand-off study).
pub const DEFAULT_HYSTERESIS_DB: f64 = 3.0;

/// Builds the simulation deployment a scenario describes.
///
/// With a default `campus` and `loads` block this reconstructs
/// [`Scenario::paper`]`(base_seed)` exactly — same campus generation
/// stream, same `seed ^ 0x5eed` environment derivation — which is what
/// makes DSL artifacts comparable against registry goldens.
///
/// A `city` block switches the deployment to the procedural metro
/// generator ([`fiveg_geo::generate_city`]); the generator draws from
/// per-tile substreams of the same base seed, so a city scenario is as
/// reproducible across machines and job orders as the paper campus.
pub fn build_scenario(spec: &ScenarioSpec, base_seed: u64) -> Scenario {
    let campus = if let Some(city) = &spec.city {
        fiveg_geo::generate_city(&city.to_city_spec(), &SimRng::new(base_seed))
    } else {
        let cfg = CampusConfig {
            width: spec.campus.width_m,
            height: spec.campus.height_m,
            num_enb_sites: spec.campus.enb_sites as usize,
            num_gnb_sites: spec.campus.gnb_sites as usize,
            concrete_fraction: spec.campus.concrete_fraction,
        };
        Campus::generate(&cfg, &mut SimRng::new(base_seed))
    };
    let (lte_load, nr_load) = spec.loads.resolve();
    let env = RadioEnv::from_campus(&campus, base_seed ^ 0x5eed, lte_load, nr_load);
    Scenario {
        campus,
        env,
        seed: base_seed,
    }
}

/// Per-group results of a fleet run.
#[derive(Debug, Clone, Serialize)]
pub struct GroupReport {
    /// Group name from the scenario file.
    pub name: String,
    /// Radio access technology (`lte`/`nr`).
    pub tech: String,
    /// Application kind (`bulk`/`video`/`web`).
    pub app: String,
    /// UEs in the group.
    pub ues: u32,
    /// UE-ticks the group was active (arrived).
    pub active_ue_ticks: u64,
    /// UE-ticks with a serving cell above the service threshold.
    pub in_service_ticks: u64,
    /// Mean per-UE downlink bitrate over active ticks, Mbps.
    pub mean_bitrate_mbps: f64,
    /// Std-dev of the per-tick bitrates, Mbps.
    pub std_bitrate_mbps: f64,
    /// Hand-offs performed by the group's UEs.
    pub handoffs: u64,
    /// Bulk app: total megabytes downloaded (0 otherwise).
    pub bulk_mb: f64,
    /// Video app: fraction of active ticks the link could not carry the
    /// stream's bitrate (0 otherwise).
    pub video_stall_frac: f64,
    /// Web app: pages fully loaded (0 otherwise).
    pub web_pages: u64,
    /// Web app: mean page-load time, seconds (0 when no page finished).
    pub web_mean_plt_s: f64,
}

/// Per-fault-event impact accounting.
#[derive(Debug, Clone, Serialize)]
pub struct FaultReport {
    /// Fault kind (`cell_outage`/`backhaul_brownout`/`handoff_storm`).
    pub kind: String,
    /// Window start, seconds.
    pub start_s: f64,
    /// Window end, seconds.
    pub end_s: f64,
    /// Impact count; meaning depends on the kind (see `impact_label`).
    pub impact: u64,
    /// What `impact` counts.
    pub impact_label: String,
}

/// The JSON artifact of a fleet scenario run.
#[derive(Debug, Clone, Serialize)]
pub struct FleetReport {
    /// Scenario name.
    pub scenario: String,
    /// Run length, seconds.
    pub duration_s: u64,
    /// Tick, milliseconds.
    pub tick_ms: u64,
    /// Ticks simulated.
    pub ticks: u64,
    /// Total UEs in the fleet.
    pub ues: u32,
    /// Total hand-offs across all groups.
    pub handoffs: u64,
    /// Per-group results, in scenario order.
    pub groups: Vec<GroupReport>,
    /// Per-fault impact, in schedule order.
    pub faults: Vec<FaultReport>,
}

impl FleetReport {
    /// Human-readable rendering.
    pub fn to_text(&self) -> String {
        let mut s = format!(
            "== Scenario `{}`: fleet of {} UEs over {} s (tick {} ms) ==\n",
            self.scenario, self.ues, self.duration_s, self.tick_ms
        );
        let rows: Vec<Vec<String>> = self
            .groups
            .iter()
            .map(|g| {
                let in_service = if g.active_ue_ticks > 0 {
                    g.in_service_ticks as f64 / g.active_ue_ticks as f64 * 100.0
                } else {
                    0.0
                };
                let app_note = match g.app.as_str() {
                    "bulk" => format!("{:.0} MB", g.bulk_mb),
                    "video" => format!("{:.1}% stall", g.video_stall_frac * 100.0),
                    _ => format!("{} pages, {:.2} s PLT", g.web_pages, g.web_mean_plt_s),
                };
                vec![
                    g.name.clone(),
                    g.tech.clone(),
                    g.app.clone(),
                    g.ues.to_string(),
                    format!("{:.1}", g.mean_bitrate_mbps),
                    format!("{in_service:.1}%"),
                    g.handoffs.to_string(),
                    app_note,
                ]
            })
            .collect();
        s += &report::table(
            "fleet groups",
            &[
                "group", "tech", "app", "UEs", "Mbps", "in-svc", "HOs", "app",
            ],
            &rows,
        );
        for f in &self.faults {
            s += &format!(
                "fault {} [{}, {}) s: {} {}\n",
                f.kind, f.start_s, f.end_s, f.impact, f.impact_label
            );
        }
        s += &format!("total hand-offs: {}\n", self.handoffs);
        s
    }
}

/// The fault state in force at one instant.
#[derive(Clone, PartialEq)]
struct ActiveFaults {
    /// Cells currently down.
    outaged: BTreeSet<u16>,
    /// Tightest active backhaul cap, Mbps.
    backhaul_mbps: Option<f64>,
    /// Effective hand-off hysteresis, dB.
    hysteresis_db: f64,
}

/// Resolves the fault schedule at time `t_s`. Overlapping windows
/// compose: outage sets union, brownout caps take the minimum, the
/// last listed storm wins.
fn faults_at(faults: &[FaultSpec], t_s: f64) -> ActiveFaults {
    let mut active = ActiveFaults {
        outaged: BTreeSet::new(),
        backhaul_mbps: None,
        hysteresis_db: DEFAULT_HYSTERESIS_DB,
    };
    for f in faults {
        let (start, end) = f.window();
        if !(t_s >= start && t_s < end) {
            continue;
        }
        match f {
            FaultSpec::CellOutage { pcis, .. } => active.outaged.extend(pcis.iter().copied()),
            FaultSpec::BackhaulBrownout { capacity_mbps, .. } => {
                active.backhaul_mbps = Some(
                    active
                        .backhaul_mbps
                        .map_or(*capacity_mbps, |c| c.min(*capacity_mbps)),
                );
            }
            FaultSpec::HandoffStorm { hysteresis_db, .. } => {
                active.hysteresis_db = *hysteresis_db;
            }
        }
    }
    active
}

/// Per-UE application state.
enum AppState {
    Bulk {
        mb: f64,
    },
    Video {
        demand_mbps: f64,
        stall_ticks: u64,
    },
    Web {
        category: WebCategory,
        think_s: f64,
        /// Remaining payload of the page in flight, megabits.
        remaining_mbit: f64,
        /// Download time accumulated on the page in flight, seconds.
        elapsed_s: f64,
        /// Think time left before the next page starts, seconds.
        think_left_s: f64,
        pages: u64,
        plt_total_s: f64,
    },
}

/// One simulated UE — the *construction* record. The tick loop never
/// touches this form: [`run_fleet_sharded`] decomposes built UEs into
/// the struct-of-arrays [`UeColumns`] so the hot path walks parallel
/// columns instead of hopping over heterogeneous structs.
struct Ue {
    group: usize,
    tech: Tech,
    arrival_tick: u64,
    /// Position per tick: either fixed or a precomputed path.
    path: UePath,
    app: AppState,
    rng: SimRng,
}

/// Struct-of-arrays fleet state for one shard: column `i` of every
/// vector belongs to the same UE, ascending by global index. The
/// measure path reads `group`/`tech`/`path`/`serving` and the
/// re-measurement cache; the grant path reads `app`/`rng` — splitting
/// the columns keeps each pass on the bytes it actually uses.
#[derive(Default)]
struct UeColumns {
    /// Global UE index per slot, ascending.
    idx: Vec<u32>,
    /// Group index per slot.
    group: Vec<u32>,
    /// Radio access technology per slot.
    tech: Vec<Tech>,
    /// Position source per slot.
    path: Vec<UePath>,
    /// Serving cell's PCI per slot.
    serving: Vec<Option<u16>>,
    /// Application state per slot.
    app: Vec<AppState>,
    /// App-private RNG per slot.
    rng: Vec<SimRng>,
    /// Incremental re-measurement cache: the exact position bits the
    /// cached survey was taken at (`None` until first measured).
    meas_pos: Vec<Option<[u64; 2]>>,
    /// Cached [`RadioEnv::survey_into`] result per slot. The survey is
    /// a pure function of `(env, pos, tech)`, so as long as the
    /// position bits match, replaying the cache is bit-identical to
    /// re-measuring.
    meas: Vec<Survey>,
}

impl UeColumns {
    fn push(&mut self, global_idx: u32, ue: Ue) {
        self.idx.push(global_idx);
        self.group.push(ue.group as u32);
        self.tech.push(ue.tech);
        self.path.push(ue.path);
        self.serving.push(None);
        self.app.push(ue.app);
        self.rng.push(ue.rng);
        self.meas_pos.push(None);
        self.meas.push(Survey::default());
    }
}

enum UePath {
    Fixed(Point),
    /// Walk the points forward; hold the last one.
    Walk(Vec<Point>),
    /// Walk the points forward and back, repeating.
    PingPong(Vec<Point>),
}

impl UePath {
    fn at(&self, tick: u64) -> Point {
        match self {
            UePath::Fixed(p) => *p,
            UePath::Walk(pts) => {
                let idx = (tick as usize).min(pts.len() - 1);
                pts[idx]
            }
            UePath::PingPong(pts) => {
                if pts.len() == 1 {
                    return pts[0];
                }
                let period = 2 * (pts.len() - 1);
                let phase = (tick as usize) % period;
                let idx = if phase < pts.len() {
                    phase
                } else {
                    period - phase
                };
                pts[idx]
            }
        }
    }
}

fn random_outdoor_point(map: &fiveg_geo::CampusMap, rng: &mut SimRng) -> Point {
    for _ in 0..10_000 {
        let p = Point::new(
            rng.range_f64(map.bounds.min.x, map.bounds.max.x),
            rng.range_f64(map.bounds.min.y, map.bounds.max.y),
        );
        if !map.is_indoor(p) {
            return p;
        }
    }
    map.bounds.center()
}

/// Draws a UE's session start, seconds into the run.
fn sample_arrival(arrival: &ArrivalSpec, duration_s: f64, rng: &mut SimRng) -> f64 {
    match arrival {
        ArrivalSpec::Steady => rng.f64() * duration_s,
        ArrivalSpec::Diurnal { peak_frac } => {
            // Raised-cosine density over the window, rejection-sampled.
            // Acceptance averages 1/2, so the loop is short; cap it for
            // pathological RNG streams.
            for _ in 0..1000 {
                let u = rng.f64();
                let w = 0.5 * (1.0 + (std::f64::consts::TAU * (u - peak_frac)).cos());
                if rng.chance(w) {
                    return u * duration_s;
                }
            }
            0.0
        }
        ArrivalSpec::FlashCrowd { at_s, spread_s } => {
            // Exponential burst after `at_s`, clamped into the run.
            let delay = -(1.0 - rng.f64()).ln() * spread_s;
            (at_s + delay).min(duration_s - 1e-9)
        }
    }
}

fn build_ue(
    sc: &Scenario,
    group_idx: usize,
    g: &UeGroupSpec,
    ue_idx: u64,
    fleet: &FleetSpec,
    run_seed: u64,
) -> Ue {
    let base = SimRng::new(run_seed).substream(&g.name);
    let mut mobility_rng = base.substream_idx("mobility", ue_idx);
    let mut arrival_rng = base.substream_idx("arrival", ue_idx);
    let app_rng = base.substream_idx("app", ue_idx);
    let tick = SimDuration::from_millis(fleet.tick_ms);
    let tick_s = tick.as_secs_f64();
    let path = match &g.mobility {
        MobilitySpec::Static => {
            UePath::Fixed(random_outdoor_point(&sc.campus.map, &mut mobility_rng))
        }
        MobilitySpec::Waypoint {
            speed_min_kmh,
            speed_max_kmh,
        } => {
            let trace = RandomWaypoint {
                speed_min_kmh: *speed_min_kmh,
                speed_max_kmh: *speed_max_kmh,
                duration: SimDuration::from_secs(fleet.duration_s),
                interval: tick,
            }
            .generate(&sc.campus.map, &mut mobility_rng);
            UePath::Walk(trace.points.iter().map(|p| p.pos).collect())
        }
        MobilitySpec::Transect {
            from,
            to,
            speed_kmh,
        } => {
            let trace = LinearTransect {
                from: Point::new(from.0, from.1),
                to: Point::new(to.0, to.1),
                speed_kmh: *speed_kmh,
                interval: tick,
            }
            .generate();
            UePath::PingPong(trace.points.iter().map(|p| p.pos).collect())
        }
    };
    let arrival_s = sample_arrival(&g.arrival, fleet.duration_s as f64, &mut arrival_rng);
    let app = match &g.app {
        AppSpec::Bulk => AppState::Bulk { mb: 0.0 },
        AppSpec::Video { resolution, scene } => AppState::Video {
            demand_mbps: video_resolution(*resolution).mean_mbps(scene_kind(*scene)),
            stall_ticks: 0,
        },
        AppSpec::Web { category, think_s } => AppState::Web {
            category: *category,
            think_s: *think_s,
            remaining_mbit: 0.0,
            elapsed_s: 0.0,
            think_left_s: 0.0,
            pages: 0,
            plt_total_s: 0.0,
        },
    };
    Ue {
        group: group_idx,
        tech: match g.tech {
            TechSpec::Lte => Tech::Lte,
            TechSpec::Nr => Tech::Nr,
        },
        arrival_tick: (arrival_s / tick_s) as u64,
        path,
        app,
        rng: app_rng,
    }
}

fn video_resolution(r: VideoRes) -> fiveg_apps::Resolution {
    match r {
        VideoRes::P720 => fiveg_apps::Resolution::P720,
        VideoRes::P1080 => fiveg_apps::Resolution::P1080,
        VideoRes::K4 => fiveg_apps::Resolution::K4,
        VideoRes::K57 => fiveg_apps::Resolution::K57,
    }
}

fn scene_kind(s: SceneSpec) -> fiveg_apps::SceneKind {
    match s {
        SceneSpec::Static => fiveg_apps::SceneKind::Static,
        SceneSpec::Dynamic => fiveg_apps::SceneKind::Dynamic,
    }
}

fn web_category(c: WebCategory) -> fiveg_apps::PageCategory {
    match c {
        WebCategory::Search => fiveg_apps::PageCategory::Search,
        WebCategory::Image => fiveg_apps::PageCategory::Image,
        WebCategory::Shopping => fiveg_apps::PageCategory::Shopping,
        WebCategory::Map => fiveg_apps::PageCategory::Map,
        WebCategory::Video => fiveg_apps::PageCategory::Video,
    }
}

/// Advances one UE's application by one tick at `bitrate_mbps`.
fn tick_app(app: &mut AppState, rng: &mut SimRng, bitrate_mbps: f64, tick_s: f64) {
    match app {
        AppState::Bulk { mb } => *mb += bitrate_mbps * tick_s / 8.0,
        AppState::Video {
            demand_mbps,
            stall_ticks,
        } => {
            if bitrate_mbps < *demand_mbps {
                *stall_ticks += 1;
            }
        }
        AppState::Web {
            category,
            think_s,
            remaining_mbit,
            elapsed_s,
            think_left_s,
            pages,
            plt_total_s,
        } => {
            let mut budget_s = tick_s;
            while budget_s > 1e-12 {
                if *think_left_s > 0.0 {
                    let used = budget_s.min(*think_left_s);
                    *think_left_s -= used;
                    budget_s -= used;
                    continue;
                }
                if *remaining_mbit <= 0.0 {
                    // Start the next page.
                    let page = fiveg_apps::WebPage::sample(web_category(*category), rng);
                    *remaining_mbit = page.size_bytes as f64 * 8.0 / 1e6;
                    *elapsed_s = 0.0;
                }
                if bitrate_mbps <= 0.0 {
                    // Stalled: the whole remaining budget burns away.
                    *elapsed_s += budget_s;
                    break;
                }
                let need_s = *remaining_mbit / bitrate_mbps;
                if need_s <= budget_s {
                    // Page completes this tick.
                    *elapsed_s += need_s;
                    budget_s -= need_s;
                    let size_mb = *remaining_mbit / 8.0;
                    let plt = *elapsed_s + web_category(*category).render_seconds(size_mb);
                    *pages += 1;
                    *plt_total_s += plt;
                    *remaining_mbit = 0.0;
                    *elapsed_s = 0.0;
                    // Exponential think time with the configured mean.
                    *think_left_s = if *think_s > 0.0 {
                        -(1.0 - rng.f64()).ln() * *think_s
                    } else {
                        0.0
                    };
                } else {
                    *remaining_mbit -= bitrate_mbps * budget_s;
                    *elapsed_s += budget_s;
                    budget_s = 0.0;
                }
            }
        }
    }
}

/// One message of the sharded fleet protocol. The per-tick exchange is
/// router-driven so every message count is a function of UE state —
/// never of the shard count:
///
/// ```text
/// t        router   TickStart  → Measure{ue} to each active UE's shard
/// t + δ    UE shard Measure    → serving-cell decision; Attach / Unattached
/// t + 2δ   router   Attach*, Unattached*, then Aggregate (router-local,
///                   max shard id ⇒ sorts after every same-time intent)
///                   → PRB + backhaul split; Grant{ue, bitrate}
/// t + 3δ   UE shard Grant      → tick_app
/// ```
///
/// with δ the engine lookahead (2δ < tick, so tick `t` fully drains
/// before tick `t+1` opens).
enum FleetEvent {
    /// Router: open tick `tick` and fan out measurement grants.
    TickStart {
        /// Tick index.
        tick: u64,
    },
    /// UE shard: run the serving-cell decision for one UE.
    Measure {
        /// Tick index.
        tick: u64,
        /// Global UE index.
        ue: u32,
    },
    /// Router: a UE wants PRBs on a cell this tick.
    Attach {
        /// Global UE index.
        ue: u32,
        /// Cell index in `env.cells`.
        cell: u32,
        /// The serving measurement.
        m: CellMeasurement,
        /// The UE's position this tick.
        pos: Point,
    },
    /// Router: an active UE has no serving cell this tick.
    Unattached {
        /// Global UE index.
        ue: u32,
    },
    /// Router: all intents for `tick` are in; allocate PRBs/backhaul.
    Aggregate {
        /// Tick index.
        tick: u64,
    },
    /// UE shard: the tick's allocated bitrate; advance the app.
    Grant {
        /// Global UE index.
        ue: u32,
        /// Allocated downlink bitrate, Mbps.
        bitrate_mbps: f64,
    },
}

/// A shard owning a cluster of UEs (whole [`crate::par::CHUNK`]-sized
/// chunks of the global UE order, assigned round-robin). Serving-cell
/// state, hand-off accounting and app state live here; radio
/// measurement scratch is **per chunk** so `phy.*` counters depend
/// only on the chunk structure — identical for any shard count.
struct UeCells<'a> {
    sc: &'a Scenario,
    spec: &'a ScenarioSpec,
    tick_s: f64,
    router: usize,
    /// Struct-of-arrays UE state, ascending by global index.
    ues: UeColumns,
    /// Re-use cached measurements for UEs whose position bits did not
    /// change since the last measure (the city-scale fast path). `false`
    /// is the full re-measure oracle used by determinism tests.
    incremental: bool,
    /// Measurements served from the per-UE cache instead of re-running
    /// [`RadioEnv::survey_into`].
    remeasure_skipped: u64,
    /// Chunk id → measurement scratch, created on first use.
    scratches: BTreeMap<u32, MeasureScratch>,
    /// Tick of the cached fault resolution (`u64::MAX` = none).
    faults_tick: u64,
    faults: ActiveFaults,
    group_active: Vec<u64>,
    group_handoffs: Vec<u64>,
    fault_impact: Vec<u64>,
    total_handoffs: u64,
    kpi_samples: u64,
}

impl UeCells<'_> {
    fn on_measure(&mut self, ctx: &mut ShardCtx<'_, FleetEvent>, tick: u64, ue: u32) {
        let t_s = tick as f64 * self.tick_s;
        if self.faults_tick != tick {
            self.faults = faults_at(&self.spec.faults, t_s);
            self.faults_tick = tick;
        }
        let Ok(slot) = self.ues.idx.binary_search(&ue) else {
            return;
        };
        let group = self.ues.group[slot] as usize;
        self.group_active[group] += 1;
        let pos = self.ues.path[slot].at(tick);
        // Incremental re-measurement: `survey_into` is a pure function
        // of `(env, pos, tech)`, so when the position bits are
        // unchanged the cached survey replays bit-identically. Compare
        // bits, not floats: `-0.0 == 0.0` yet the two can diverge
        // downstream (atan2 of a signed zero), and a cache must never
        // be *more* tolerant than the function it shadows.
        let key = [pos.x.to_bits(), pos.y.to_bits()];
        if self.incremental && self.ues.meas_pos[slot] == Some(key) {
            self.remeasure_skipped += 1;
        } else {
            let chunk = ue / crate::par::CHUNK as u32;
            let scratch = self.scratches.entry(chunk).or_default();
            self.sc
                .env
                .survey_into(pos, self.ues.tech[slot], scratch, &mut self.ues.meas[slot]);
            self.ues.meas_pos[slot] = Some(key);
        }
        self.kpi_samples += 1;
        // Select the three cells the hand-off rule reads, by position
        // in the survey: the top cell, the serving cell (unless it is
        // out) and the best cell not in outage — the first matching
        // entries of the sorted `measure_all` list.
        let survey = &self.ues.meas[slot];
        let pci_of = self.sc.env.pcis(survey.tech());
        let serving_prev = self.ues.serving[slot];
        let active = &self.faults;
        let serving_pci = serving_prev.filter(|p| !active.outaged.contains(p));
        let (top, current) = survey.top_and_select(|k| Some(pci_of[k]) == serving_pci);
        let best = match top {
            Some(t) if active.outaged.contains(&pci_of[t]) => {
                // Track outage denials: the top-ranked cell exists but
                // is administratively down.
                if let Some(fi) = self.spec.faults.iter().position(|f| {
                    let (s, e) = f.window();
                    matches!(f, FaultSpec::CellOutage { pcis, .. } if pcis.contains(&pci_of[t]))
                        && t_s >= s
                        && t_s < e
                }) {
                    self.fault_impact[fi] += 1;
                }
                survey.select(|k| !active.outaged.contains(&pci_of[k]))
            }
            t => t,
        };
        let hysteresis_db = self.faults.hysteresis_db;
        // Trace context: logical origin = chunk id (invariant under
        // the shard count); event time = this Measure event's execution
        // time (tick start + delta, also shard-count invariant).
        let trace_on = fiveg_trace::is_active();
        let trace_origin = ue / crate::par::CHUNK as u32;
        let t_ns = ctx.now().as_nanos();
        let next = match (current, best) {
            (None, Some(b)) => {
                if serving_prev.is_some() {
                    // Lost the old cell (outage or out of range).
                    self.group_handoffs[group] += 1;
                    self.total_handoffs += 1;
                    note_storm_handoff(self.spec, t_s, &mut self.fault_impact);
                    if trace_on {
                        fiveg_trace::emit(
                            trace_origin,
                            &fiveg_trace::TraceEvent::Handoff {
                                t_ns,
                                ue,
                                from_pci: serving_prev.map_or(0, u32::from),
                                to_pci: u32::from(pci_of[b]),
                                // Forced move, not a margin race.
                                margin_db: 0.0,
                                hysteresis_db,
                            },
                        );
                    }
                } else if trace_on {
                    fiveg_trace::emit(
                        trace_origin,
                        &fiveg_trace::TraceEvent::Attach {
                            t_ns,
                            ue,
                            pci: u32::from(pci_of[b]),
                            rsrp_dbm: survey.rsrp(b).value(),
                        },
                    );
                }
                Some(b)
            }
            (Some(c), Some(b)) => {
                let (b_dbm, c_dbm) = (survey.rsrp(b).value(), survey.rsrp(c).value());
                if pci_of[b] != pci_of[c] && b_dbm > c_dbm + hysteresis_db {
                    self.group_handoffs[group] += 1;
                    self.total_handoffs += 1;
                    note_storm_handoff(self.spec, t_s, &mut self.fault_impact);
                    if trace_on {
                        fiveg_trace::emit(
                            trace_origin,
                            &fiveg_trace::TraceEvent::Handoff {
                                t_ns,
                                ue,
                                from_pci: u32::from(pci_of[c]),
                                to_pci: u32::from(pci_of[b]),
                                margin_db: b_dbm - c_dbm,
                                hysteresis_db,
                            },
                        );
                    }
                    Some(b)
                } else {
                    Some(c)
                }
            }
            (Some(c), None) => Some(c),
            (None, None) => None,
        };
        self.ues.serving[slot] = next.map(|k| pci_of[k]);
        match next {
            Some(k) => {
                // Only the chosen cell gets RSRQ and SINR.
                let m = self.sc.env.materialise(survey, k);
                if let Some(idx) = self.sc.env.cell_index(m.tech, m.pci) {
                    ctx.send(
                        self.router,
                        FleetEvent::Attach {
                            ue,
                            cell: idx as u32,
                            m,
                            pos,
                        },
                    );
                }
            }
            None => ctx.send(self.router, FleetEvent::Unattached { ue }),
        }
    }

    fn on_grant(&mut self, ue: u32, bitrate_mbps: f64) {
        if let Ok(slot) = self.ues.idx.binary_search(&ue) {
            tick_app(
                &mut self.ues.app[slot],
                &mut self.ues.rng[slot],
                bitrate_mbps,
                self.tick_s,
            );
        }
    }
}

/// The wireline-router shard: owns the tick clock, the per-cell attach
/// census, PRB fractions, the shared backhaul cap and the per-group
/// bitrate statistics (pushed in global UE order, so the Welford sums
/// are bit-identical for any shard count).
struct RouterHub<'a> {
    sc: &'a Scenario,
    spec: &'a ScenarioSpec,
    tick_s: f64,
    tick_dur: SimDuration,
    ticks: u64,
    delta: SimDuration,
    shards: usize,
    /// Arrival tick per UE, global order (so only active UEs are
    /// granted a measurement).
    arrival_ticks: Vec<u64>,
    /// Group index per UE, global order.
    ue_group: Vec<usize>,
    group_bitrate: Vec<OnlineStats>,
    group_in_service: Vec<u64>,
    fault_impact: Vec<u64>,
    /// Attach intents buffered for the tick in flight.
    attach: Vec<(u32, u32, CellMeasurement, Point)>,
    unattached: Vec<u32>,
    /// Per-cell attach census.
    attached: Vec<u32>,
    /// Fault state as of the last traced tick boundary, for emitting
    /// outage/restore/brownout *transition* events.
    traced_faults: ActiveFaults,
}

impl RouterHub<'_> {
    fn shard_of(&self, ue: u32) -> usize {
        (ue as usize / crate::par::CHUNK) % self.shards
    }

    fn on_tick_start(&mut self, ctx: &mut ShardCtx<'_, FleetEvent>, tick: u64) {
        let now = ctx.now();
        if fiveg_trace::is_active() {
            self.trace_fault_transitions(tick, now.as_nanos());
        }
        for (ue, arr) in self.arrival_ticks.iter().enumerate() {
            if *arr <= tick {
                let ue = ue as u32;
                ctx.send(self.shard_of(ue), FleetEvent::Measure { tick, ue });
            }
        }
        // The router is the highest shard id, so this local event sorts
        // after every same-time Attach/Unattached intent.
        ctx.schedule_in(self.delta + self.delta, FleetEvent::Aggregate { tick });
        if tick + 1 < self.ticks {
            ctx.schedule_in(self.tick_dur, FleetEvent::TickStart { tick: tick + 1 });
        }
    }

    /// Emits outage/restore/brownout-cap deltas between the fault
    /// state at the previous traced tick and at `tick` (router-hub
    /// origin, so the stream is shard-count invariant).
    fn trace_fault_transitions(&mut self, tick: u64, t_ns: u64) {
        use fiveg_trace::{TraceEvent, ROUTER_ORIGIN};
        let t_s = tick as f64 * self.tick_s;
        let active = faults_at(&self.spec.faults, t_s);
        for pci in active.outaged.difference(&self.traced_faults.outaged) {
            fiveg_trace::emit(
                ROUTER_ORIGIN,
                &TraceEvent::CellOutage {
                    t_ns,
                    pci: u32::from(*pci),
                },
            );
        }
        for pci in self.traced_faults.outaged.difference(&active.outaged) {
            fiveg_trace::emit(
                ROUTER_ORIGIN,
                &TraceEvent::CellRestore {
                    t_ns,
                    pci: u32::from(*pci),
                },
            );
        }
        if active.backhaul_mbps != self.traced_faults.backhaul_mbps {
            fiveg_trace::emit(
                ROUTER_ORIGIN,
                &TraceEvent::BrownoutCap {
                    t_ns,
                    // Negative cap encodes "lifted".
                    cap_mbps: active.backhaul_mbps.unwrap_or(-1.0),
                },
            );
        }
        self.traced_faults = active;
    }

    fn on_aggregate(&mut self, ctx: &mut ShardCtx<'_, FleetEvent>, tick: u64) {
        let t_s = tick as f64 * self.tick_s;
        let active = faults_at(&self.spec.faults, t_s);
        // Per-tick KPI rows.
        let trace_kpi = fiveg_trace::is_active();
        let trace_t_ns = ctx.now().as_nanos();
        // Intents arrive in (origin shard, seq) order; restore the
        // global UE order, which no shard count changes.
        self.attach.sort_unstable_by_key(|&(ue, ..)| ue);
        self.unattached.sort_unstable();
        self.attached.iter_mut().for_each(|c| *c = 0);
        for &(_, cell, ..) in &self.attach {
            self.attached[cell as usize] += 1;
        }
        // KPIs under PRB sharing, backhaul cap, app progress.
        let in_service_now = self.attach.len().max(1) as f64;
        let backhaul_share = active.backhaul_mbps.map(|c| c / in_service_now);
        for i in 0..self.attach.len() {
            let (ue, cell, m, pos) = self.attach[i];
            let prb = 1.0 / f64::from(self.attached[cell as usize].max(1));
            let kpi = self.sc.env.kpi_for(m, pos, prb);
            let mut bitrate = if kpi.in_service {
                kpi.bitrate.mbps()
            } else {
                0.0
            };
            if let Some(share) = backhaul_share {
                if bitrate > share {
                    bitrate = share;
                    if let Some(fi) = brownout_index(self.spec, t_s) {
                        self.fault_impact[fi] += 1;
                    }
                }
            }
            let g = self.ue_group[ue as usize];
            if kpi.in_service {
                self.group_in_service[g] += 1;
            }
            self.group_bitrate[g].push(bitrate);
            if trace_kpi {
                fiveg_trace::emit(
                    fiveg_trace::ROUTER_ORIGIN,
                    &fiveg_trace::TraceEvent::Kpi {
                        t_ns: trace_t_ns,
                        ue,
                        pci: u32::from(m.pci),
                        in_service: kpi.in_service,
                        bitrate_mbps: bitrate,
                        rsrp_dbm: m.rsrp.value(),
                    },
                );
            }
            ctx.send(
                self.shard_of(ue),
                FleetEvent::Grant {
                    ue,
                    bitrate_mbps: bitrate,
                },
            );
        }
        // UEs that are active but unattached still burn app time at
        // zero bitrate (video stalls, pages hang).
        for i in 0..self.unattached.len() {
            let ue = self.unattached[i];
            self.group_bitrate[self.ue_group[ue as usize]].push(0.0);
            if trace_kpi {
                // `pci = u32::MAX` marks "no serving cell".
                fiveg_trace::emit(
                    fiveg_trace::ROUTER_ORIGIN,
                    &fiveg_trace::TraceEvent::Kpi {
                        t_ns: trace_t_ns,
                        ue,
                        pci: u32::MAX,
                        in_service: false,
                        bitrate_mbps: 0.0,
                        rsrp_dbm: 0.0,
                    },
                );
            }
            ctx.send(
                self.shard_of(ue),
                FleetEvent::Grant {
                    ue,
                    bitrate_mbps: 0.0,
                },
            );
        }
        self.attach.clear();
        self.unattached.clear();
    }
}

/// One shard of a fleet run: a UE cluster or the router.
enum FleetNode<'a> {
    Ue(UeCells<'a>),
    Router(RouterHub<'a>),
}

impl ShardLogic for FleetNode<'_> {
    type Event = FleetEvent;

    fn handle(&mut self, ctx: &mut ShardCtx<'_, FleetEvent>, _at: SimTime, event: FleetEvent) {
        match (self, event) {
            (FleetNode::Ue(u), FleetEvent::Measure { tick, ue }) => u.on_measure(ctx, tick, ue),
            (FleetNode::Ue(u), FleetEvent::Grant { ue, bitrate_mbps }) => {
                u.on_grant(ue, bitrate_mbps);
            }
            (FleetNode::Router(r), FleetEvent::TickStart { tick }) => r.on_tick_start(ctx, tick),
            (FleetNode::Router(r), FleetEvent::Attach { ue, cell, m, pos }) => {
                r.attach.push((ue, cell, m, pos));
            }
            (FleetNode::Router(r), FleetEvent::Unattached { ue }) => r.unattached.push(ue),
            (FleetNode::Router(r), FleetEvent::Aggregate { tick }) => r.on_aggregate(ctx, tick),
            // A misrouted event is a protocol bug.
            (_, _) => unreachable!("fleet event routed to the wrong shard kind"),
        }
    }
}

/// Runs a fleet workload against a built scenario. `run_seed` drives
/// all fleet-private randomness (the per-job derived seed).
///
/// The run partitions into `shards` UE-cluster shards (at most one per
/// [`crate::par::CHUNK`] UEs) plus a router shard on the conservative
/// engine; every observable byte (report floats, obs counters) is
/// identical for any `shards` value. The engine runs on `shards`
/// threads; `shards = 1` runs its windowed loop inline on the calling
/// thread.
pub fn run_fleet_sharded(
    sc: &Scenario,
    spec: &ScenarioSpec,
    fleet: &FleetSpec,
    run_seed: u64,
    shards: usize,
) -> FleetReport {
    run_fleet_impl(sc, spec, fleet, run_seed, shards, true)
}

fn run_fleet_impl(
    sc: &Scenario,
    spec: &ScenarioSpec,
    fleet: &FleetSpec,
    run_seed: u64,
    shards: usize,
    incremental: bool,
) -> FleetReport {
    let tick_dur = SimDuration::from_millis(fleet.tick_ms);
    let tick_s = tick_dur.as_secs_f64();
    let ticks = (fleet.duration_s as f64 / tick_s).round() as u64;
    // Build the fleet in scenario order; every UE owns independent RNG
    // substreams keyed by (group name, index), so group order never
    // perturbs another group's randomness.
    let mut ues: Vec<Ue> = Vec::new();
    for (gi, g) in fleet.groups.iter().enumerate() {
        for i in 0..u64::from(g.count) {
            ues.push(build_ue(sc, gi, g, i, fleet, run_seed));
        }
    }
    let n_ues = ues.len();
    let n_chunks = n_ues.div_ceil(crate::par::CHUNK);
    let shards = shards.clamp(1, n_chunks.max(1));
    let router_id = shards;

    // Lookahead: the access path's smallest one-way hop latency (the
    // radio hop of the canonical paper path), bounded by a quarter tick
    // so the 4-beat tick protocol always fits inside one tick.
    let net_la = PathConfig::paper(&PaperPathParams::nr_day(), Direction::Downlink).min_lookahead();
    let quarter_tick = SimDuration::from_nanos((tick_dur.as_nanos() / 4).max(1));
    let delta = if net_la.is_zero() {
        quarter_tick
    } else {
        net_la.min(quarter_tick)
    };

    if fiveg_trace::is_active() {
        // Annotate the sidecar with the fleet's group → UE-index
        // ranges so the trace CLI can filter by group name.
        let mut groups = Vec::new();
        let mut start = 0u32;
        for g in &fleet.groups {
            let end = start + g.count;
            groups.push(fiveg_trace::Group {
                name: g.name.clone(),
                start,
                end,
            });
            start = end;
        }
        fiveg_trace::set_groups(groups);
    }

    let arrival_ticks: Vec<u64> = ues.iter().map(|u| u.arrival_tick).collect();
    let ue_group: Vec<usize> = ues.iter().map(|u| u.group).collect();
    let mut per_shard: Vec<UeColumns> = (0..shards).map(|_| UeColumns::default()).collect();
    for (gi, ue) in ues.into_iter().enumerate() {
        per_shard[(gi / crate::par::CHUNK) % shards].push(gi as u32, ue);
    }
    let mut logics: Vec<FleetNode<'_>> = per_shard
        .into_iter()
        .map(|shard_ues| {
            FleetNode::Ue(UeCells {
                sc,
                spec,
                tick_s,
                router: router_id,
                ues: shard_ues,
                incremental,
                remeasure_skipped: 0,
                scratches: BTreeMap::new(),
                faults_tick: u64::MAX,
                faults: ActiveFaults {
                    outaged: BTreeSet::new(),
                    backhaul_mbps: None,
                    hysteresis_db: DEFAULT_HYSTERESIS_DB,
                },
                group_active: vec![0; fleet.groups.len()],
                group_handoffs: vec![0; fleet.groups.len()],
                fault_impact: vec![0; spec.faults.len()],
                total_handoffs: 0,
                kpi_samples: 0,
            })
        })
        .collect();
    logics.push(FleetNode::Router(RouterHub {
        sc,
        spec,
        tick_s,
        tick_dur,
        ticks,
        delta,
        shards,
        arrival_ticks,
        ue_group,
        group_bitrate: fleet.groups.iter().map(|_| OnlineStats::new()).collect(),
        group_in_service: vec![0; fleet.groups.len()],
        fault_impact: vec![0; spec.faults.len()],
        attach: Vec::new(),
        unattached: Vec::new(),
        attached: vec![0; sc.env.cells.len()],
        traced_faults: ActiveFaults {
            outaged: BTreeSet::new(),
            backhaul_mbps: None,
            hysteresis_db: DEFAULT_HYSTERESIS_DB,
        },
    }));

    let mut engine = match ShardEngine::new(delta, logics) {
        Ok(e) => e,
        Err(e) => panic!("fleet shard engine: {e}"),
    };
    if ticks > 0 {
        if let Err(e) = engine.seed(router_id, SimTime::ZERO, FleetEvent::TickStart { tick: 0 }) {
            panic!("fleet shard seed: {e}");
        }
    }
    let run = match engine.run(shards) {
        Ok(r) => r,
        Err(e) => panic!("fleet shard run: {e}"),
    };

    // Merge: integer accumulators sum commutatively in shard-id order;
    // UEs sort back into the global order so the group aggregation's
    // float sums are bit-identical for any shard count.
    let mut group_active: Vec<u64> = vec![0; fleet.groups.len()];
    let mut group_handoffs: Vec<u64> = vec![0; fleet.groups.len()];
    let mut fault_impact: Vec<u64> = vec![0; spec.faults.len()];
    let mut total_handoffs = 0u64;
    let mut kpi_samples = 0u64;
    let mut remeasure_skipped = 0u64;
    // `(global index, group, app)` — all the merge needs from a UE.
    let mut all_ues: Vec<(u32, u32, AppState)> = Vec::with_capacity(n_ues);
    let mut router = None;
    for node in run.logics {
        match node {
            FleetNode::Ue(u) => {
                for (acc, v) in group_active.iter_mut().zip(&u.group_active) {
                    *acc += v;
                }
                for (acc, v) in group_handoffs.iter_mut().zip(&u.group_handoffs) {
                    *acc += v;
                }
                for (acc, v) in fault_impact.iter_mut().zip(&u.fault_impact) {
                    *acc += v;
                }
                total_handoffs += u.total_handoffs;
                kpi_samples += u.kpi_samples;
                remeasure_skipped += u.remeasure_skipped;
                let UeColumns {
                    idx, group, app, ..
                } = u.ues;
                for ((gi, g), a) in idx.into_iter().zip(group).zip(app) {
                    all_ues.push((gi, g, a));
                }
            }
            FleetNode::Router(r) => router = Some(r),
        }
    }
    let Some(router) = router else {
        unreachable!("the engine returns every shard, router included")
    };
    for (acc, v) in fault_impact.iter_mut().zip(&router.fault_impact) {
        *acc += v;
    }
    let group_bitrate = router.group_bitrate;
    let group_in_service = router.group_in_service;
    all_ues.sort_unstable_by_key(|&(gi, _, _)| gi);

    fiveg_obs::counter_add("scenario.ticks", ticks);
    fiveg_obs::counter_add("scenario.kpi.samples", kpi_samples);
    fiveg_obs::counter_add("scenario.handoffs", total_handoffs);
    fiveg_obs::counter_add("scenario.faults", spec.faults.len() as u64);
    fiveg_obs::counter_add("city.remeasure.skipped", remeasure_skipped);

    let groups = fleet
        .groups
        .iter()
        .enumerate()
        .map(|(gi, g)| {
            let mut bulk_mb = 0.0;
            let mut stall_ticks = 0u64;
            let mut video_active = 0u64;
            let mut web_pages = 0u64;
            let mut plt_total = 0.0;
            for (_, _, app) in all_ues.iter().filter(|(_, g, _)| *g as usize == gi) {
                match app {
                    AppState::Bulk { mb } => bulk_mb += mb,
                    AppState::Video { stall_ticks: s, .. } => {
                        stall_ticks += s;
                        video_active += 1;
                    }
                    AppState::Web {
                        pages, plt_total_s, ..
                    } => {
                        web_pages += pages;
                        plt_total += plt_total_s;
                    }
                }
            }
            let video_stall_frac = if video_active > 0 && group_active[gi] > 0 {
                stall_ticks as f64 / group_active[gi] as f64
            } else {
                0.0
            };
            GroupReport {
                name: g.name.clone(),
                tech: g.tech.name().to_string(),
                app: g.app.kind().to_string(),
                ues: g.count,
                active_ue_ticks: group_active[gi],
                in_service_ticks: group_in_service[gi],
                mean_bitrate_mbps: zero_if_nan(group_bitrate[gi].mean()),
                std_bitrate_mbps: zero_if_nan(group_bitrate[gi].std_dev()),
                handoffs: group_handoffs[gi],
                bulk_mb,
                video_stall_frac,
                web_pages,
                web_mean_plt_s: if web_pages > 0 {
                    plt_total / web_pages as f64
                } else {
                    0.0
                },
            }
        })
        .collect();
    let faults = spec
        .faults
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let (start_s, end_s) = f.window();
            FaultReport {
                kind: f.kind().to_string(),
                start_s,
                end_s,
                impact: fault_impact[i],
                impact_label: match f {
                    FaultSpec::CellOutage { .. } => "UE-ticks denied their best cell".to_string(),
                    FaultSpec::BackhaulBrownout { .. } => "UE-ticks capped by backhaul".to_string(),
                    FaultSpec::HandoffStorm { .. } => "hand-offs during the storm".to_string(),
                },
            }
        })
        .collect();
    FleetReport {
        scenario: spec.name.clone(),
        duration_s: fleet.duration_s,
        tick_ms: fleet.tick_ms,
        ticks,
        ues: fleet.groups.iter().map(|g| g.count).sum(),
        handoffs: total_handoffs,
        groups,
        faults,
    }
}

fn zero_if_nan(v: f64) -> f64 {
    if v.is_nan() {
        0.0
    } else {
        v
    }
}

fn note_storm_handoff(spec: &ScenarioSpec, t_s: f64, fault_impact: &mut [u64]) {
    for (i, f) in spec.faults.iter().enumerate() {
        if let FaultSpec::HandoffStorm { start_s, end_s, .. } = f {
            if t_s >= *start_s && t_s < *end_s {
                fault_impact[i] += 1;
            }
        }
    }
}

fn brownout_index(spec: &ScenarioSpec, t_s: f64) -> Option<usize> {
    spec.faults.iter().position(|f| {
        matches!(f, FaultSpec::BackhaulBrownout { .. }) && {
            let (s, e) = f.window();
            t_s >= s && t_s < e
        }
    })
}

/// A scenario file as a campaign job (section `scenario`).
///
/// The deployment builds from the campaign's base seed, the workload's
/// private randomness from the per-unit derived seed — the same split
/// the registry jobs use. Survey workloads serialise a
/// [`crate::Table1`]; fleet workloads a [`FleetReport`].
pub struct ScenarioJob {
    spec: ScenarioSpec,
}

impl ScenarioJob {
    /// Wraps a validated spec.
    pub fn new(spec: ScenarioSpec) -> ScenarioJob {
        ScenarioJob { spec }
    }

    /// The underlying spec.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }
}

impl Job for ScenarioJob {
    fn name(&self) -> &str {
        &self.spec.name
    }

    fn section(&self) -> &str {
        "scenario"
    }

    fn run(&self, ctx: &JobCtx) -> Result<JobOutput, String> {
        let sc = build_scenario(&self.spec, ctx.base_seed);
        match &self.spec.workload {
            WorkloadSpec::Survey(s) => {
                let survey = fiveg_geo::RoadSurvey {
                    speed_kmh: s.speed_kmh,
                    interval: SimDuration::from_millis(s.interval_ms),
                };
                let t = coverage::table1_with(&sc, &survey, ctx.threads);
                let json =
                    serde_json::to_string_pretty(&t).map_err(|e| format!("serialise: {e}"))?;
                Ok(JobOutput::new(t.to_text(), json))
            }
            WorkloadSpec::Fleet(f) => {
                let r = run_fleet_sharded(&sc, &self.spec, f, ctx.seed, ctx.threads);
                let json =
                    serde_json::to_string_pretty(&r).map_err(|e| format!("serialise: {e}"))?;
                Ok(JobOutput::new(r.to_text(), json))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiveg_campaign::derive_seed;
    use fiveg_scenario::parse_scenario;

    /// [`run_fleet_sharded`] with incremental re-measurement disabled:
    /// every active UE re-runs the full `measure_all` pass every tick.
    ///
    /// The test-only determinism *oracle* for the incremental fast path:
    /// its report must be byte-identical to [`run_fleet_sharded`]'s for
    /// any scenario (the `incremental_oracle` tests).
    fn run_fleet_full_remeasure(
        sc: &Scenario,
        spec: &ScenarioSpec,
        fleet: &FleetSpec,
        run_seed: u64,
        shards: usize,
    ) -> FleetReport {
        run_fleet_impl(sc, spec, fleet, run_seed, shards, false)
    }

    fn paper_survey_spec() -> ScenarioSpec {
        parse_scenario(
            r#"{ "name": "paper_campus", "workload": { "kind": "survey" } }"#,
            "mem",
        )
        .expect("parses")
    }

    #[test]
    fn default_scenario_rebuilds_the_paper_deployment() {
        let spec = paper_survey_spec();
        let sc = build_scenario(&spec, 2020);
        let paper = Scenario::paper(2020);
        assert_eq!(sc.campus.plan, paper.campus.plan);
        assert_eq!(sc.env.num_cells(Tech::Lte), 34);
        assert_eq!(sc.env.num_cells(Tech::Nr), 13);
    }

    #[test]
    fn survey_scenario_is_byte_identical_to_table1_job() {
        let spec = paper_survey_spec();
        let job = ScenarioJob::new(spec);
        let ctx = JobCtx {
            seed: derive_seed(2020, "paper_campus", 0),
            base_seed: 2020,
            fidelity: fiveg_campaign::FidelityLevel::Quick,
            rep: 0,
            threads: 2,
        };
        let out = job.run(&ctx).expect("runs");
        let t = coverage::table1(&Scenario::paper(2020), 1);
        let expected = serde_json::to_string_pretty(&t).expect("serialises");
        assert_eq!(out.json, expected);
    }

    #[test]
    fn fleet_scenario_runs_and_faults_bite() {
        let spec = parse_scenario(
            r#"{
  "name": "outage_t",
  "workload": { "kind": "fleet", "duration_s": 40, "tick_ms": 1000, "groups": [
    { "name": "walkers", "count": 6, "tech": "nr",
      "mobility": { "model": "waypoint", "speed_min_kmh": 3, "speed_max_kmh": 10 },
      "arrival": { "process": "steady" }, "app": { "kind": "bulk" } } ] },
  "faults": [ { "kind": "cell_outage", "start_s": 10, "end_s": 30,
                "pcis": [60, 61, 62, 63, 64, 65, 66, 67, 68, 69, 70, 71, 72] } ]
}"#,
            "mem",
        )
        .expect("parses");
        let sc = build_scenario(&spec, 2020);
        let fleet = match &spec.workload {
            WorkloadSpec::Fleet(f) => f.clone(),
            WorkloadSpec::Survey(_) => unreachable!(),
        };
        let r = run_fleet_sharded(&sc, &spec, &fleet, 7, 1);
        assert_eq!(r.ticks, 40);
        assert_eq!(r.ues, 6);
        assert_eq!(r.groups.len(), 1);
        assert!(r.groups[0].active_ue_ticks > 0);
        // The outage takes down every NR cell for half the run: UEs must
        // have been denied their best cell at least once.
        assert!(r.faults[0].impact > 0, "{:?}", r.faults);
        // ... and no UE is served during it: only ticks outside
        // [10, 30) can be in service.
        let outside: u64 = (0..6)
            .map(|i| {
                let arrival = build_ue(&sc, 0, &fleet.groups[0], i, &fleet, 7).arrival_tick;
                (arrival..40).filter(|t| !(10..30).contains(t)).count() as u64
            })
            .sum();
        assert!(
            r.groups[0].in_service_ticks <= outside,
            "{} in-service UE-ticks, {outside} outside the outage",
            r.groups[0].in_service_ticks
        );
        assert!(r.groups[0].in_service_ticks < r.groups[0].active_ue_ticks);
        assert!(!r.to_text().is_empty());
    }

    #[test]
    fn fleet_runs_are_deterministic() {
        let spec = parse_scenario(
            r#"{ "name": "det", "workload": { "kind": "fleet", "duration_s": 20,
                 "tick_ms": 1000, "groups": [
                 { "name": "g", "count": 4, "tech": "nr",
                   "mobility": { "model": "waypoint" },
                   "arrival": { "process": "flash_crowd", "at_s": 2, "spread_s": 1 },
                   "app": { "kind": "video", "resolution": "4k", "scene": "dynamic" } } ] } }"#,
            "mem",
        )
        .expect("parses");
        let sc = build_scenario(&spec, 11);
        let fleet = match &spec.workload {
            WorkloadSpec::Fleet(f) => f.clone(),
            WorkloadSpec::Survey(_) => unreachable!(),
        };
        let a = run_fleet_sharded(&sc, &spec, &fleet, 99, 1);
        let b = run_fleet_sharded(&sc, &spec, &fleet, 99, 1);
        assert_eq!(
            serde_json::to_string(&a).expect("json"),
            serde_json::to_string(&b).expect("json")
        );
    }

    #[test]
    fn fleet_reports_and_counters_are_shard_count_invariant() {
        // The non-negotiable guarantee: artifact bytes AND obs
        // counters, gauges and histograms are identical for any shard
        // count (spans time the host and are left out). Three
        // groups of 40 UEs = 2 chunks, so 2/3/8 shards exercise both
        // the multi-shard and the clamped (shards > chunks) paths.
        let spec = parse_scenario(
            r#"{ "name": "inv", "workload": { "kind": "fleet", "duration_s": 30,
                 "tick_ms": 1000, "groups": [
                 { "name": "walkers", "count": 40, "tech": "nr",
                   "mobility": { "model": "waypoint" },
                   "arrival": { "process": "steady" }, "app": { "kind": "bulk" } },
                 { "name": "watchers", "count": 40, "tech": "lte",
                   "mobility": { "model": "static" },
                   "arrival": { "process": "diurnal", "peak_frac": 0.5 },
                   "app": { "kind": "video", "resolution": "1080p", "scene": "static" } },
                 { "name": "readers", "count": 40, "tech": "nr",
                   "mobility": { "model": "static" },
                   "arrival": { "process": "steady" },
                   "app": { "kind": "web", "category": "search", "think_s": 2 } } ] },
  "faults": [ { "kind": "backhaul_brownout", "start_s": 5, "end_s": 20,
                "capacity_mbps": 120 } ] }"#,
            "mem",
        )
        .expect("parses");
        let sc = build_scenario(&spec, 2020);
        let fleet = match &spec.workload {
            WorkloadSpec::Fleet(f) => f.clone(),
            WorkloadSpec::Survey(_) => unreachable!(),
        };
        let runs: Vec<(String, std::collections::BTreeMap<String, u64>)> = [1usize, 2, 3, 8]
            .iter()
            .map(|&s| {
                let m = fiveg_obs::MetricsHandle::new();
                let r = fiveg_obs::scoped(&m, || run_fleet_sharded(&sc, &spec, &fleet, 42, s));
                (
                    serde_json::to_string(&r).expect("json"),
                    m.snapshot().deterministic(),
                )
            })
            .collect();
        for (i, (json, counters)) in runs.iter().enumerate().skip(1) {
            assert_eq!(json, &runs[0].0, "report bytes diverge at shards index {i}");
            assert_eq!(
                counters, &runs[0].1,
                "obs counters, gauges or histograms diverge at shards index {i}"
            );
        }
        assert!(runs[0].1.contains_key("shard.events"));
        assert!(runs[0].1.contains_key("shard.msgs"));
    }

    mod incremental_oracle {
        use super::*;
        use proptest::prelude::*;

        /// The deployment is shared across cases: the property is about
        /// the fleet loop, and rebuilding the radio environment per case
        /// would dominate the test's runtime.
        #[expect(clippy::disallowed_types, reason = "a read-only fixture built once")]
        fn paper_sc() -> &'static Scenario {
            static SC: std::sync::OnceLock<Scenario> = std::sync::OnceLock::new();
            SC.get_or_init(|| Scenario::paper(2020))
        }

        /// A group of `count` UEs (drawn) with a drawn tech and mobility.
        fn group_strategy(
            name: &'static str,
            count: std::ops::Range<u32>,
        ) -> impl Strategy<Value = UeGroupSpec> {
            let mobility = prop_oneof![
                Just(MobilitySpec::Static),
                Just(MobilitySpec::Waypoint {
                    speed_min_kmh: 3.0,
                    speed_max_kmh: 12.0,
                }),
                Just(MobilitySpec::Transect {
                    from: (20.0, 30.0),
                    to: (460.0, 880.0),
                    speed_kmh: 30.0,
                }),
            ];
            (
                count,
                prop_oneof![Just(TechSpec::Lte), Just(TechSpec::Nr)],
                mobility,
            )
                .prop_map(move |(count, tech, mobility)| UeGroupSpec {
                    name: name.to_string(),
                    count,
                    tech,
                    mobility,
                    arrival: ArrivalSpec::Steady,
                    app: AppSpec::Bulk,
                })
        }

        /// Every case carries one crowd of 129..160 UEs, three 64-UE
        /// chunks, so a 3-shard leg runs three UE shards instead of
        /// clamping to one.
        fn crowd_strategy() -> impl Strategy<Value = UeGroupSpec> {
            group_strategy("crowd", 129..161)
        }

        /// The fleet spec of one case.
        fn case_spec(name: &str, groups: Vec<UeGroupSpec>, faults: Vec<FaultSpec>) -> ScenarioSpec {
            ScenarioSpec {
                name: name.into(),
                description: String::new(),
                campus: fiveg_scenario::CampusSpec::default(),
                city: None,
                loads: fiveg_scenario::LoadSpec::default(),
                workload: WorkloadSpec::Fleet(FleetSpec {
                    duration_s: 12,
                    tick_ms: 1000,
                    groups,
                }),
                faults,
            }
        }

        /// UE chunks of a fleet: the most UE shards it can run on.
        fn chunks(report: &FleetReport) -> usize {
            (report.ues as usize).div_ceil(crate::par::CHUNK)
        }

        fn fault_strategy() -> impl Strategy<Value = FaultSpec> {
            prop_oneof![
                (0.0f64..10.0, 1.0f64..10.0).prop_map(|(s, d)| FaultSpec::CellOutage {
                    start_s: s,
                    end_s: s + d,
                    pcis: vec![60, 61, 62, 200, 201],
                }),
                (0.0f64..10.0, 1.0f64..10.0, 10.0f64..200.0).prop_map(|(s, d, c)| {
                    FaultSpec::BackhaulBrownout {
                        start_s: s,
                        end_s: s + d,
                        capacity_mbps: c,
                    }
                }),
                (0.0f64..10.0, 1.0f64..10.0).prop_map(|(s, d)| FaultSpec::HandoffStorm {
                    start_s: s,
                    end_s: s + d,
                    hysteresis_db: 0.5,
                }),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            /// The incremental re-measurement cache is invisible in the
            /// artifact: for random mobility mixes, fault schedules and
            /// seeds, the incremental run's report bytes equal the full
            /// re-measure oracle's at one and at three UE shards.
            #[test]
            fn incremental_equals_full_remeasure(
                crowd in crowd_strategy(),
                g in group_strategy("g", 1..5),
                two in proptest::prelude::any::<bool>(),
                faults in prop::collection::vec(fault_strategy(), 0..3),
                run_seed in 0u64..1000,
            ) {
                let mut groups = vec![crowd];
                if two {
                    groups.push(g);
                }
                let spec = case_spec("oracle", groups, faults);
                prop_assert_eq!(spec.validate(), Ok(()));
                let WorkloadSpec::Fleet(fleet) = &spec.workload else {
                    unreachable!()
                };
                let sc = paper_sc();
                for shards in [1usize, 3] {
                    let fast = run_fleet_sharded(sc, &spec, fleet, run_seed, shards);
                    prop_assert!(chunks(&fast) >= 3, "{} UEs", fast.ues);
                    let full = run_fleet_full_remeasure(sc, &spec, fleet, run_seed, shards);
                    prop_assert_eq!(
                        serde_json::to_string(&fast).expect("json"),
                        serde_json::to_string(&full).expect("json"),
                        "incremental vs full diverge at shards={}", shards
                    );
                }
            }

            /// Trace artifacts are shard-count invariant: for random
            /// mobility mixes, fault schedules and seeds, a full-mode
            /// trace and an 8-event ring-mode trace of the same run at
            /// 1, 3 and 8 shards (three UE shards at 3 and 8) each
            /// produce byte-identical binary columns and sidecar, and
            /// the ring counts every event the full trace keeps.
            #[test]
            fn trace_bytes_are_shard_count_invariant(
                crowd in crowd_strategy(),
                g in group_strategy("g", 1..5),
                faults in prop::collection::vec(fault_strategy(), 0..3),
                run_seed in 0u64..1000,
            ) {
                let spec = case_spec("traced", vec![crowd, g], faults);
                prop_assert_eq!(spec.validate(), Ok(()));
                let WorkloadSpec::Fleet(fleet) = &spec.workload else {
                    unreachable!()
                };
                let sc = paper_sc();
                let leg = |mode: fiveg_trace::TraceMode, shards: usize| {
                    let t = fiveg_trace::TraceHandle::new(fiveg_trace::TraceConfig { mode, ring: 8 });
                    let r = fiveg_trace::scoped(&t, || {
                        run_fleet_sharded(sc, &spec, fleet, run_seed, shards)
                    });
                    (chunks(&r), t.finish())
                };
                let mut full_events = None;
                for mode in [fiveg_trace::TraceMode::Full, fiveg_trace::TraceMode::Ring] {
                    let (n_chunks, base) = leg(mode, 1);
                    prop_assert!(n_chunks >= 3, "{} chunks", n_chunks);
                    prop_assert!(base.events > 0, "a traced fleet run must emit events");
                    let full_events = *full_events.get_or_insert(base.events);
                    prop_assert_eq!(base.events, full_events, "{} mode events", mode.name());
                    if mode == fiveg_trace::TraceMode::Ring {
                        prop_assert!(base.rows < base.events, "the ring must truncate");
                    }
                    for shards in [3usize, 8] {
                        let (_, out) = leg(mode, shards);
                        prop_assert_eq!(
                            &out.bin, &base.bin,
                            "{} trace bytes diverge at shards={}", mode.name(), shards
                        );
                        prop_assert_eq!(
                            &out.sidecar, &base.sidecar,
                            "{} trace sidecar diverges at shards={}", mode.name(), shards
                        );
                    }
                }
            }
        }

        /// The cache really hits: on a mostly-parked 2x2 dense-urban
        /// fleet at two shards, the incremental run skips more than half
        /// of its re-measurements (the parked majority is cache-hot from
        /// its second active tick on), the full re-measure run skips
        /// none, and both write the same report bytes.
        #[test]
        fn cache_hits_dominate_a_mostly_parked_city_fleet() {
            let spec = parse_scenario(
                r#"{
  "name": "parked_city",
  "city": { "preset": "dense_urban" },
  "workload": { "kind": "fleet", "duration_s": 30, "tick_ms": 1000, "groups": [
    { "name": "walkers", "count": 64, "tech": "nr",
      "mobility": { "model": "waypoint", "speed_min_kmh": 3, "speed_max_kmh": 10 },
      "arrival": { "process": "steady" }, "app": { "kind": "bulk" } },
    { "name": "parked", "count": 128, "tech": "lte",
      "mobility": { "model": "static" },
      "arrival": { "process": "steady" },
      "app": { "kind": "video", "resolution": "1080p", "scene": "static" } } ] }
}"#,
                "mem",
            )
            .expect("parses");
            let WorkloadSpec::Fleet(fleet) = &spec.workload else {
                unreachable!()
            };
            let sc = build_scenario(&spec, 2020);
            let leg = |run: fn(&Scenario, &ScenarioSpec, &FleetSpec, u64, usize) -> FleetReport| {
                let m = fiveg_obs::MetricsHandle::new();
                let r = fiveg_obs::scoped(&m, || run(&sc, &spec, fleet, 2020 ^ 0xc17, 2));
                let counters = m.snapshot().deterministic();
                let count = |name: &str| counters.get(name).copied().unwrap_or(0);
                (
                    serde_json::to_string(&r).expect("json"),
                    count("scenario.kpi.samples"),
                    count("city.remeasure.skipped"),
                )
            };
            let (inc_json, samples, skipped) = leg(run_fleet_sharded);
            let (full_json, full_samples, full_skipped) = leg(run_fleet_full_remeasure);
            assert_eq!(inc_json, full_json, "incremental vs full report bytes");
            assert_eq!(samples, full_samples);
            assert!(
                skipped * 2 > samples,
                "cache hits should dominate a mostly-parked fleet: {skipped} of {samples}"
            );
            assert_eq!(full_skipped, 0, "the full re-measure run never hits");
        }
    }

    #[test]
    fn city_scenario_builds_tiled_deployment_and_runs() {
        let spec = parse_scenario(
            r#"{
  "name": "metro_t",
  "city": { "preset": "dense_urban", "tiles_x": 3, "tiles_y": 3 },
  "workload": { "kind": "fleet", "duration_s": 10, "tick_ms": 1000, "groups": [
    { "name": "walkers", "count": 8, "tech": "nr",
      "mobility": { "model": "waypoint", "speed_min_kmh": 3, "speed_max_kmh": 10 },
      "arrival": { "process": "steady" }, "app": { "kind": "bulk" } },
    { "name": "parked", "count": 8, "tech": "lte",
      "mobility": { "model": "static" },
      "arrival": { "process": "steady" }, "app": { "kind": "bulk" } } ] }
}"#,
            "mem",
        )
        .expect("parses");
        let sc = build_scenario(&spec, 2020);
        // 3x3 dense-urban tiles cross the tiled-index threshold, and the
        // site grid scales with the spec: 9 tiles x 4 eNB x 3 sectors.
        assert!(sc.campus.map.buildings.len() >= fiveg_geo::TILED_INDEX_THRESHOLD);
        assert_eq!(sc.env.num_cells(Tech::Lte), 108);
        assert_eq!(sc.env.num_cells(Tech::Nr), 54);
        let fleet = match &spec.workload {
            WorkloadSpec::Fleet(f) => f.clone(),
            WorkloadSpec::Survey(_) => unreachable!(),
        };
        let m = fiveg_obs::MetricsHandle::new();
        let r = fiveg_obs::scoped(&m, || run_fleet_sharded(&sc, &spec, &fleet, 7, 2));
        assert_eq!(r.ues, 16);
        assert!(r.groups.iter().all(|g| g.active_ue_ticks > 0));
        // Static UEs hit the re-measurement cache after their first
        // measured tick; the counter must see those skips.
        let skipped = m
            .snapshot()
            .counters
            .get("city.remeasure.skipped")
            .copied()
            .unwrap_or(0);
        assert!(skipped > 0, "static UEs should skip re-measurement");
    }

    /// A 5x5 dense-urban city numbers NR cells into the LTE range, so
    /// PCI 205 names an LTE and an NR cell. An NR UE on PCI 205 must be
    /// counted (and share PRBs) on the NR cell: a crowd of LTE UEs on
    /// the LTE cell 205 leaves its bitrate unchanged.
    #[test]
    fn nr_attach_on_a_pci_shared_with_lte_counts_on_the_nr_cell() {
        let city = r#""city": { "preset": "dense_urban", "tiles_x": 5, "tiles_y": 5 }"#;
        let base = parse_scenario(
            &format!(r#"{{ "name": "shared_pci", {city}, "workload": {{ "kind": "survey" }} }}"#),
            "mem",
        )
        .expect("parses");
        let sc = build_scenario(&base, 2020);
        let env = &sc.env;
        let (nr, lte) = (
            env.cell_index(Tech::Nr, 205).expect("NR 205"),
            env.cell_index(Tech::Lte, 205).expect("LTE 205"),
        );
        assert_ne!(nr, lte);
        // A short transect on the cell's boresight where it serves.
        let near = |idx: usize, tech: Tech| {
            let c = &env.cells[idx];
            let az = c.antenna.azimuth_deg.to_radians();
            let at = |d: f64| c.pos + Point::new(az.cos(), az.sin()) * d;
            let serves = |p: Point| {
                let m = env.serving_into(p, tech, &mut MeasureScratch::new());
                m.map(|m| m.pci) == Some(205)
            };
            let d = (4..40)
                .map(|i| f64::from(i) * 5.0)
                .find(|&d| serves(at(d)) && serves(at(d + 5.0)))
                .expect("cell 205 serves somewhere on its boresight");
            let (from, to) = (at(d), at(d + 5.0));
            format!(
                r#""mobility": {{ "model": "transect", "from": [{}, {}], "to": [{}, {}], "speed_kmh": 1 }}"#,
                from.x, from.y, to.x, to.y
            )
        };
        let nr_group = format!(
            r#"{{ "name": "nr", "count": 1, "tech": "nr", {},
                 "arrival": {{ "process": "steady" }}, "app": {{ "kind": "bulk" }} }}"#,
            near(nr, Tech::Nr)
        );
        let lte_group = format!(
            r#"{{ "name": "lte", "count": 8, "tech": "lte", {},
                 "arrival": {{ "process": "steady" }}, "app": {{ "kind": "bulk" }} }}"#,
            near(lte, Tech::Lte)
        );
        let run = |groups: &str| {
            let spec = parse_scenario(
                &format!(
                    r#"{{ "name": "shared_pci", {city}, "workload": {{ "kind": "fleet",
                         "duration_s": 10, "tick_ms": 1000, "groups": [{groups}] }} }}"#
                ),
                "mem",
            )
            .expect("parses");
            let WorkloadSpec::Fleet(fleet) = &spec.workload else {
                unreachable!()
            };
            run_fleet_sharded(&sc, &spec, fleet, 7, 1)
        };
        let alone = run(&nr_group);
        let crowded = run(&format!("{nr_group}, {lte_group}"));
        let (a, c) = (&alone.groups[0], &crowded.groups[0]);
        assert!(a.in_service_ticks > 0);
        assert_eq!(a.in_service_ticks, c.in_service_ticks);
        assert_eq!(a.mean_bitrate_mbps.to_bits(), c.mean_bitrate_mbps.to_bits());
        // Rated on the NR carrier: faster than any LTE cell can serve.
        let lte_peak = env.cells[lte].carrier.dl_rate_at_peak_mcs(1.0).mbps();
        assert!(a.mean_bitrate_mbps > lte_peak, "{a:?}");
    }

    #[test]
    fn web_app_loads_pages() {
        let spec = parse_scenario(
            r#"{ "name": "web_t", "workload": { "kind": "fleet", "duration_s": 60,
                 "tick_ms": 1000, "groups": [
                 { "name": "readers", "count": 3, "tech": "lte",
                   "mobility": { "model": "static" },
                   "arrival": { "process": "steady" },
                   "app": { "kind": "web", "category": "search", "think_s": 2 } } ] } }"#,
            "mem",
        )
        .expect("parses");
        let sc = build_scenario(&spec, 2020);
        let fleet = match &spec.workload {
            WorkloadSpec::Fleet(f) => f.clone(),
            WorkloadSpec::Survey(_) => unreachable!(),
        };
        let r = run_fleet_sharded(&sc, &spec, &fleet, 3, 1);
        assert!(r.groups[0].web_pages > 0, "{:?}", r.groups);
        assert!(r.groups[0].web_mean_plt_s > 0.0);
    }
}
