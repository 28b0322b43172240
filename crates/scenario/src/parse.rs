//! Strict scenario parsing over the `fiveg-obs` JSON reader.
//!
//! Scenario files are machine- and human-written JSON. Parsing is
//! deliberately strict: unknown keys are rejected (a typo like
//! `"speeed_kmh"` must fail loudly, not silently fall back to a
//! default), enum tags must match exactly, and every semantic error
//! carries `file:line` so a failing campaign names the offending line
//! of the scenario file rather than a Rust backtrace.
//!
//! The `fiveg-obs` reader keeps object keys in a sorted map without
//! source offsets, so a semantic error names the dotted key path of
//! the offending value (`workload.groups[1].count`) and its line is
//! recovered from that path ([`fiveg_obs::json::key_path_offset`]).
//! Structural errors, duplicate keys included, carry exact byte
//! offsets already.

use crate::spec::{
    AppSpec, ArrivalSpec, CampusSpec, CityDslSpec, CityPreset, FaultSpec, FleetSpec, LoadSpec,
    MobilitySpec, Period, ScenarioSpec, SceneSpec, SurveySpec, TechSpec, UeGroupSpec, VideoRes,
    WebCategory, WorkloadSpec,
};
use fiveg_obs::json::key_path_offset;
use fiveg_obs::{parse_json, JsonValue};
use std::collections::BTreeMap;

/// A scenario parse/validation failure, located in the source file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// File the scenario came from (display name, as given).
    pub file: String,
    /// 1-based line of the offending value (0 = unknown).
    pub line: usize,
    /// Dotted key path of the offending value or object
    /// (`workload.groups[1].count`); empty at top level.
    pub path: String,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.file)?;
        if self.line > 0 {
            write!(f, ":{}", self.line)?;
        }
        if !self.path.is_empty() {
            write!(f, ": {}", self.path)?;
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for ScenarioError {}

/// 1-based line number of a byte offset in `src`.
fn line_of_offset(src: &str, offset: usize) -> usize {
    let upto = offset.min(src.len());
    1 + src.as_bytes()[..upto]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
}

/// Parses `src` as JSON; a syntax error carries its line.
pub(crate) fn parse_source(src: &str, file: &str) -> Result<JsonValue, ScenarioError> {
    parse_json(src).map_err(|e| ScenarioError {
        file: file.to_string(),
        line: line_of_offset(src, e.offset),
        path: String::new(),
        message: e.message,
    })
}

/// Shared parse context: the raw source for location recovery, and the
/// key path of the value being parsed.
pub(crate) struct Ctx<'a> {
    src: &'a str,
    file: &'a str,
    path: String,
}

impl<'a> Ctx<'a> {
    /// The context of the whole file.
    pub(crate) fn root(src: &'a str, file: &'a str) -> Ctx<'a> {
        Ctx {
            src,
            file,
            path: String::new(),
        }
    }

    /// The context of member `key` of this object.
    pub(crate) fn child(&self, key: &str) -> Ctx<'a> {
        let path = if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        };
        Ctx { path, ..*self }
    }

    /// The context of element `i` of this array.
    pub(crate) fn item(&self, i: usize) -> Ctx<'a> {
        Ctx {
            path: format!("{}[{i}]", self.path),
            ..*self
        }
    }

    /// An error at this context's value, on its line when the path is
    /// found in the source, else on the line of its nearest enclosing
    /// value that is (a defaulted key has no line of its own).
    pub(crate) fn err(&self, message: String) -> ScenarioError {
        let mut enclosing = std::iter::successors(Some(self.path.as_str()), |p| {
            p.rfind(['.', '['])
                .map(|end| &p[..end])
                .filter(|p| !p.is_empty())
        });
        ScenarioError {
            file: self.file.to_string(),
            line: enclosing
                .find_map(|p| key_path_offset(self.src, p))
                .map_or(0, |at| line_of_offset(self.src, at)),
            path: self.path.clone(),
            message,
        }
    }

    /// An error at member `key` of this object.
    pub(crate) fn err_at_key(&self, key: &str, message: String) -> ScenarioError {
        self.child(key).err(message)
    }

    /// Rejects keys of `map` not in `allowed` — the strictness rule.
    pub(crate) fn check_keys(
        &self,
        map: &BTreeMap<String, JsonValue>,
        allowed: &[&str],
        what: &str,
    ) -> Result<(), ScenarioError> {
        for key in map.keys() {
            if !allowed.contains(&key.as_str()) {
                return Err(self.err_at_key(
                    key,
                    format!(
                        "unknown key `{key}` in {what} (allowed: {})",
                        allowed.join(", ")
                    ),
                ));
            }
        }
        Ok(())
    }

    pub(crate) fn obj<'v>(
        &self,
        v: &'v JsonValue,
        what: &str,
    ) -> Result<&'v BTreeMap<String, JsonValue>, ScenarioError> {
        v.as_object()
            .ok_or_else(|| self.err(format!("{what} must be a JSON object")))
    }

    fn str_field(
        &self,
        map: &BTreeMap<String, JsonValue>,
        key: &str,
    ) -> Result<Option<String>, ScenarioError> {
        match map.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_str()
                .map(|s| Some(s.to_string()))
                .ok_or_else(|| self.err_at_key(key, format!("`{key}` must be a string"))),
        }
    }

    pub(crate) fn req_str(
        &self,
        map: &BTreeMap<String, JsonValue>,
        key: &str,
        what: &str,
    ) -> Result<String, ScenarioError> {
        self.str_field(map, key)?
            .ok_or_else(|| self.err(format!("{what} is missing required key `{key}`")))
    }

    fn f64_field(
        &self,
        map: &BTreeMap<String, JsonValue>,
        key: &str,
    ) -> Result<Option<f64>, ScenarioError> {
        match map.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_f64()
                .map(Some)
                .ok_or_else(|| self.err_at_key(key, format!("`{key}` must be a number"))),
        }
    }

    fn f64_or(
        &self,
        map: &BTreeMap<String, JsonValue>,
        key: &str,
        default: f64,
    ) -> Result<f64, ScenarioError> {
        Ok(self.f64_field(map, key)?.unwrap_or(default))
    }

    fn u64_field(
        &self,
        map: &BTreeMap<String, JsonValue>,
        key: &str,
    ) -> Result<Option<u64>, ScenarioError> {
        match map.get(key) {
            None => Ok(None),
            Some(v) => v.as_u64().map(Some).ok_or_else(|| {
                self.err_at_key(key, format!("`{key}` must be a non-negative integer"))
            }),
        }
    }

    fn u64_or(
        &self,
        map: &BTreeMap<String, JsonValue>,
        key: &str,
        default: u64,
    ) -> Result<u64, ScenarioError> {
        Ok(self.u64_field(map, key)?.unwrap_or(default))
    }

    fn u32_or(
        &self,
        map: &BTreeMap<String, JsonValue>,
        key: &str,
        default: u32,
    ) -> Result<u32, ScenarioError> {
        let v = self.u64_or(map, key, u64::from(default))?;
        u32::try_from(v)
            .map_err(|_| self.err_at_key(key, format!("`{key}` = {v} does not fit in u32")))
    }

    fn req_f64(
        &self,
        map: &BTreeMap<String, JsonValue>,
        key: &str,
        what: &str,
    ) -> Result<f64, ScenarioError> {
        self.f64_field(map, key)?
            .ok_or_else(|| self.err(format!("{what} is missing required key `{key}`")))
    }

    fn xy_field(
        &self,
        map: &BTreeMap<String, JsonValue>,
        key: &str,
        what: &str,
    ) -> Result<(f64, f64), ScenarioError> {
        let v = map
            .get(key)
            .ok_or_else(|| self.err(format!("{what} is missing required key `{key}`")))?;
        let bad = || self.err_at_key(key, format!("`{key}` must be a [x, y] pair of numbers"));
        match v {
            JsonValue::Array(items) if items.len() == 2 => {
                let x = items[0].as_f64().ok_or_else(bad)?;
                let y = items[1].as_f64().ok_or_else(bad)?;
                Ok((x, y))
            }
            _ => Err(bad()),
        }
    }
}

fn parse_campus(ctx: &Ctx<'_>, v: &JsonValue) -> Result<CampusSpec, ScenarioError> {
    let map = ctx.obj(v, "`campus`")?;
    ctx.check_keys(
        map,
        &[
            "width_m",
            "height_m",
            "enb_sites",
            "gnb_sites",
            "concrete_fraction",
        ],
        "`campus`",
    )?;
    let d = CampusSpec::default();
    Ok(CampusSpec {
        width_m: ctx.f64_or(map, "width_m", d.width_m)?,
        height_m: ctx.f64_or(map, "height_m", d.height_m)?,
        enb_sites: ctx.u32_or(map, "enb_sites", d.enb_sites)?,
        gnb_sites: ctx.u32_or(map, "gnb_sites", d.gnb_sites)?,
        concrete_fraction: ctx.f64_or(map, "concrete_fraction", d.concrete_fraction)?,
    })
}

fn parse_city(ctx: &Ctx<'_>, v: &JsonValue) -> Result<CityDslSpec, ScenarioError> {
    let map = ctx.obj(v, "`city`")?;
    ctx.check_keys(
        map,
        &[
            "preset",
            "tiles_x",
            "tiles_y",
            "enb_per_tile",
            "gnb_per_tile",
            "concrete_fraction",
        ],
        "`city`",
    )?;
    let name = ctx.req_str(map, "preset", "`city`")?;
    let preset = CityPreset::from_name(&name).ok_or_else(|| {
        ctx.err_at_key(
            "preset",
            format!("unknown city preset `{name}` (expected dense_urban, rural or indoor_hotspot)"),
        )
    })?;
    let d = CityDslSpec::from_preset(preset);
    Ok(CityDslSpec {
        preset,
        tiles_x: ctx.u32_or(map, "tiles_x", d.tiles_x)?,
        tiles_y: ctx.u32_or(map, "tiles_y", d.tiles_y)?,
        enb_per_tile: ctx.u32_or(map, "enb_per_tile", d.enb_per_tile)?,
        gnb_per_tile: ctx.u32_or(map, "gnb_per_tile", d.gnb_per_tile)?,
        concrete_fraction: ctx.f64_or(map, "concrete_fraction", d.concrete_fraction)?,
    })
}

fn parse_loads(ctx: &Ctx<'_>, v: &JsonValue) -> Result<LoadSpec, ScenarioError> {
    let map = ctx.obj(v, "`loads`")?;
    ctx.check_keys(map, &["period", "lte", "nr"], "`loads`")?;
    let period = match self_or_default(ctx.str_field(map, "period")?, "day").as_str() {
        "day" => Period::Day,
        "night" => Period::Night,
        other => {
            return Err(ctx.err_at_key(
                "period",
                format!("unknown period `{other}` (expected `day` or `night`)"),
            ))
        }
    };
    Ok(LoadSpec {
        period,
        lte: ctx.f64_field(map, "lte")?,
        nr: ctx.f64_field(map, "nr")?,
    })
}

fn self_or_default(v: Option<String>, default: &str) -> String {
    v.unwrap_or_else(|| default.to_string())
}

fn parse_mobility(ctx: &Ctx<'_>, v: &JsonValue) -> Result<MobilitySpec, ScenarioError> {
    let map = ctx.obj(v, "`mobility`")?;
    let model = ctx.req_str(map, "model", "`mobility`")?;
    match model.as_str() {
        "static" => {
            ctx.check_keys(map, &["model"], "`mobility` (static)")?;
            Ok(MobilitySpec::Static)
        }
        "waypoint" => {
            ctx.check_keys(
                map,
                &["model", "speed_min_kmh", "speed_max_kmh"],
                "`mobility` (waypoint)",
            )?;
            Ok(MobilitySpec::Waypoint {
                speed_min_kmh: ctx.f64_or(map, "speed_min_kmh", 3.0)?,
                speed_max_kmh: ctx.f64_or(map, "speed_max_kmh", 10.0)?,
            })
        }
        "transect" => {
            ctx.check_keys(
                map,
                &["model", "from", "to", "speed_kmh"],
                "`mobility` (transect)",
            )?;
            Ok(MobilitySpec::Transect {
                from: ctx.xy_field(map, "from", "`mobility` (transect)")?,
                to: ctx.xy_field(map, "to", "`mobility` (transect)")?,
                speed_kmh: ctx.f64_or(map, "speed_kmh", 4.5)?,
            })
        }
        other => Err(ctx.err_at_key(
            "model",
            format!("unknown mobility model `{other}` (expected static, waypoint or transect)"),
        )),
    }
}

fn parse_arrival(ctx: &Ctx<'_>, v: &JsonValue) -> Result<ArrivalSpec, ScenarioError> {
    let map = ctx.obj(v, "`arrival`")?;
    let process = ctx.req_str(map, "process", "`arrival`")?;
    match process.as_str() {
        "steady" => {
            ctx.check_keys(map, &["process"], "`arrival` (steady)")?;
            Ok(ArrivalSpec::Steady)
        }
        "diurnal" => {
            ctx.check_keys(map, &["process", "peak_frac"], "`arrival` (diurnal)")?;
            Ok(ArrivalSpec::Diurnal {
                peak_frac: ctx.f64_or(map, "peak_frac", 0.5)?,
            })
        }
        "flash_crowd" => {
            ctx.check_keys(
                map,
                &["process", "at_s", "spread_s"],
                "`arrival` (flash_crowd)",
            )?;
            Ok(ArrivalSpec::FlashCrowd {
                at_s: ctx.req_f64(map, "at_s", "`arrival` (flash_crowd)")?,
                spread_s: ctx.f64_or(map, "spread_s", 5.0)?,
            })
        }
        other => Err(ctx.err_at_key(
            "process",
            format!("unknown arrival process `{other}` (expected steady, diurnal or flash_crowd)"),
        )),
    }
}

fn parse_app(ctx: &Ctx<'_>, v: &JsonValue) -> Result<AppSpec, ScenarioError> {
    let map = ctx.obj(v, "`app`")?;
    let kind = ctx.req_str(map, "kind", "`app`")?;
    match kind.as_str() {
        "bulk" => {
            ctx.check_keys(map, &["kind"], "`app` (bulk)")?;
            Ok(AppSpec::Bulk)
        }
        "video" => {
            ctx.check_keys(map, &["kind", "resolution", "scene"], "`app` (video)")?;
            let resolution = match self_or_default(ctx.str_field(map, "resolution")?, "4k").as_str()
            {
                "720p" => VideoRes::P720,
                "1080p" => VideoRes::P1080,
                "4k" => VideoRes::K4,
                "5.7k" => VideoRes::K57,
                other => {
                    return Err(ctx.err_at_key(
                        "resolution",
                        format!("unknown resolution `{other}` (expected 720p, 1080p, 4k or 5.7k)"),
                    ))
                }
            };
            let scene = match self_or_default(ctx.str_field(map, "scene")?, "static").as_str() {
                "static" => SceneSpec::Static,
                "dynamic" => SceneSpec::Dynamic,
                other => {
                    return Err(ctx.err_at_key(
                        "scene",
                        format!("unknown scene `{other}` (expected static or dynamic)"),
                    ))
                }
            };
            Ok(AppSpec::Video { resolution, scene })
        }
        "web" => {
            ctx.check_keys(map, &["kind", "category", "think_s"], "`app` (web)")?;
            let category = match self_or_default(ctx.str_field(map, "category")?, "search").as_str()
            {
                "search" => WebCategory::Search,
                "image" => WebCategory::Image,
                "shopping" => WebCategory::Shopping,
                "map" => WebCategory::Map,
                "video" => WebCategory::Video,
                other => {
                    return Err(ctx.err_at_key(
                        "category",
                        format!(
                            "unknown category `{other}` (expected search, image, shopping, map or video)"
                        ),
                    ))
                }
            };
            Ok(AppSpec::Web {
                category,
                think_s: ctx.f64_or(map, "think_s", 5.0)?,
            })
        }
        other => Err(ctx.err_at_key(
            "kind",
            format!("unknown app kind `{other}` (expected bulk, video or web)"),
        )),
    }
}

fn parse_group(ctx: &Ctx<'_>, v: &JsonValue) -> Result<UeGroupSpec, ScenarioError> {
    let map = ctx.obj(v, "fleet group")?;
    ctx.check_keys(
        map,
        &["name", "count", "tech", "mobility", "arrival", "app"],
        "fleet group",
    )?;
    let name = ctx.req_str(map, "name", "fleet group")?;
    let tech = match self_or_default(ctx.str_field(map, "tech")?, "nr").as_str() {
        "lte" => TechSpec::Lte,
        "nr" => TechSpec::Nr,
        other => {
            return Err(ctx.err_at_key(
                "tech",
                format!("unknown tech `{other}` (expected lte or nr)"),
            ))
        }
    };
    let mobility = match map.get("mobility") {
        Some(v) => parse_mobility(&ctx.child("mobility"), v)?,
        None => MobilitySpec::Waypoint {
            speed_min_kmh: 3.0,
            speed_max_kmh: 10.0,
        },
    };
    let arrival = match map.get("arrival") {
        Some(v) => parse_arrival(&ctx.child("arrival"), v)?,
        None => ArrivalSpec::Steady,
    };
    let app = match map.get("app") {
        Some(v) => parse_app(&ctx.child("app"), v)?,
        None => AppSpec::Bulk,
    };
    Ok(UeGroupSpec {
        name,
        count: ctx.u32_or(map, "count", 1)?,
        tech,
        mobility,
        arrival,
        app,
    })
}

fn parse_workload(ctx: &Ctx<'_>, v: &JsonValue) -> Result<WorkloadSpec, ScenarioError> {
    let map = ctx.obj(v, "`workload`")?;
    let kind = ctx.req_str(map, "kind", "`workload`")?;
    match kind.as_str() {
        "survey" => {
            ctx.check_keys(
                map,
                &["kind", "speed_kmh", "interval_ms"],
                "`workload` (survey)",
            )?;
            let d = SurveySpec::default();
            Ok(WorkloadSpec::Survey(SurveySpec {
                speed_kmh: ctx.f64_or(map, "speed_kmh", d.speed_kmh)?,
                interval_ms: ctx.u64_or(map, "interval_ms", d.interval_ms)?,
            }))
        }
        "fleet" => {
            ctx.check_keys(
                map,
                &["kind", "duration_s", "tick_ms", "groups"],
                "`workload` (fleet)",
            )?;
            let groups_v = map.get("groups").ok_or_else(|| {
                ctx.err("`workload` (fleet) is missing required key `groups`".into())
            })?;
            let JsonValue::Array(items) = groups_v else {
                return Err(ctx.err_at_key("groups", "`groups` must be an array".to_string()));
            };
            let groups_ctx = ctx.child("groups");
            let mut groups = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                groups.push(parse_group(&groups_ctx.item(i), item)?);
            }
            Ok(WorkloadSpec::Fleet(FleetSpec {
                duration_s: ctx.u64_or(map, "duration_s", 120)?,
                tick_ms: ctx.u64_or(map, "tick_ms", 500)?,
                groups,
            }))
        }
        other => Err(ctx.err_at_key(
            "kind",
            format!("unknown workload kind `{other}` (expected survey or fleet)"),
        )),
    }
}

fn parse_fault(ctx: &Ctx<'_>, v: &JsonValue, idx: usize) -> Result<FaultSpec, ScenarioError> {
    let map = ctx.obj(v, "fault event")?;
    let what = format!("fault[{idx}]");
    let kind = ctx.req_str(map, "kind", &what)?;
    let start_s = ctx.req_f64(map, "start_s", &what)?;
    let end_s = ctx.req_f64(map, "end_s", &what)?;
    match kind.as_str() {
        "cell_outage" => {
            ctx.check_keys(map, &["kind", "start_s", "end_s", "pcis"], "fault (cell_outage)")?;
            let pcis_v = map
                .get("pcis")
                .ok_or_else(|| ctx.err(format!("{what} (cell_outage) is missing `pcis`")))?;
            let JsonValue::Array(items) = pcis_v else {
                return Err(ctx.err_at_key("pcis", "`pcis` must be an array".to_string()));
            };
            let mut pcis = Vec::with_capacity(items.len());
            for item in items {
                let v = item.as_u64().and_then(|v| u16::try_from(v).ok()).ok_or_else(
                    || ctx.err_at_key("pcis", "`pcis` entries must be PCIs (u16)".to_string()),
                )?;
                pcis.push(v);
            }
            Ok(FaultSpec::CellOutage {
                start_s,
                end_s,
                pcis,
            })
        }
        "backhaul_brownout" => {
            ctx.check_keys(
                map,
                &["kind", "start_s", "end_s", "capacity_mbps"],
                "fault (backhaul_brownout)",
            )?;
            Ok(FaultSpec::BackhaulBrownout {
                start_s,
                end_s,
                capacity_mbps: ctx.req_f64(map, "capacity_mbps", &what)?,
            })
        }
        "handoff_storm" => {
            ctx.check_keys(
                map,
                &["kind", "start_s", "end_s", "hysteresis_db"],
                "fault (handoff_storm)",
            )?;
            Ok(FaultSpec::HandoffStorm {
                start_s,
                end_s,
                hysteresis_db: ctx.f64_or(map, "hysteresis_db", 0.0)?,
            })
        }
        other => Err(ctx.err_at_key(
            "kind",
            format!(
                "unknown fault kind `{other}` (expected cell_outage, backhaul_brownout or handoff_storm)"
            ),
        )),
    }
}

/// Parses a scenario from an already-parsed JSON value. `src`/`file`
/// feed error locations, and `path` is the key path of `v` in `src`
/// (empty for a whole scenario file).
pub fn scenario_from_value(
    v: &JsonValue,
    src: &str,
    file: &str,
    path: &str,
) -> Result<ScenarioSpec, ScenarioError> {
    let ctx = Ctx {
        src,
        file,
        path: path.to_string(),
    };
    let map = v
        .as_object()
        .ok_or_else(|| ctx.err("scenario file must be a JSON object".into()))?;
    ctx.check_keys(
        map,
        &[
            "name",
            "description",
            "campus",
            "city",
            "loads",
            "workload",
            "faults",
        ],
        "scenario",
    )?;
    let name = ctx.req_str(map, "name", "scenario")?;
    let description = self_or_default(ctx.str_field(map, "description")?, "");
    let campus = match map.get("campus") {
        Some(v) => parse_campus(&ctx.child("campus"), v)?,
        None => CampusSpec::default(),
    };
    let city = match map.get("city") {
        Some(v) => Some(parse_city(&ctx.child("city"), v)?),
        None => None,
    };
    let loads = match map.get("loads") {
        Some(v) => parse_loads(&ctx.child("loads"), v)?,
        None => LoadSpec::default(),
    };
    let workload_v = map
        .get("workload")
        .ok_or_else(|| ctx.err("scenario is missing required key `workload`".into()))?;
    let workload = parse_workload(&ctx.child("workload"), workload_v)?;
    let faults = match map.get("faults") {
        None => Vec::new(),
        Some(JsonValue::Array(items)) => {
            let faults_ctx = ctx.child("faults");
            let mut faults = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                faults.push(parse_fault(&faults_ctx.item(i), item, i)?);
            }
            faults
        }
        Some(_) => return Err(ctx.err_at_key("faults", "`faults` must be an array".to_string())),
    };
    let spec = ScenarioSpec {
        name,
        description,
        campus,
        city,
        loads,
        workload,
        faults,
    };
    spec.validate().map_err(|e| {
        ctx.child(&e.path)
            .err(format!("invalid scenario: {}", e.message))
    })?;
    Ok(spec)
}

/// Parses a scenario file's text. `file` is the display name used in
/// error locations (typically the path).
pub fn parse_scenario(src: &str, file: &str) -> Result<ScenarioSpec, ScenarioError> {
    scenario_from_value(&parse_source(src, file)?, src, file, "")
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"{
  "name": "smoke",
  "workload": { "kind": "survey" }
}"#;

    #[test]
    fn minimal_survey_parses_with_defaults() {
        let s = parse_scenario(MINIMAL, "mem").unwrap();
        assert_eq!(s.name, "smoke");
        assert_eq!(s.campus, CampusSpec::default());
        assert_eq!(s.loads.resolve(), (0.5, 0.05));
        assert_eq!(
            s.workload,
            WorkloadSpec::Survey(SurveySpec {
                speed_kmh: 4.5,
                interval_ms: 1000
            })
        );
    }

    #[test]
    fn unknown_key_is_rejected_with_file_and_line() {
        let src = "{\n  \"name\": \"x\",\n  \"workload\": { \"kind\": \"survey\" },\n  \"campus\": {\n    \"widht_m\": 400\n  }\n}";
        let e = parse_scenario(src, "bad.json").unwrap_err();
        assert_eq!(e.file, "bad.json");
        assert_eq!(e.line, 5, "{e}");
        assert!(e.message.contains("unknown key `widht_m`"), "{e}");
        assert!(e.message.contains("allowed:"), "{e}");

        let src =
            "{\n  \"name\": \"x\",\n  \"workload\": { \"kind\": \"survey\" },\n  \"trace\": {}\n}";
        let e = parse_scenario(src, "bad.json").unwrap_err();
        assert_eq!(e.file, "bad.json");
        assert_eq!(e.line, 4, "{e}");
        assert!(e.message.contains("unknown key `trace`"), "{e}");
    }

    #[test]
    fn syntax_error_carries_line() {
        let e = parse_scenario("{\n  \"name\": \"x\",,\n}", "syntax.json").unwrap_err();
        assert_eq!(e.file, "syntax.json");
        assert_eq!(e.line, 2, "{e}");
    }

    #[test]
    fn unknown_enum_tags_are_rejected() {
        let src = r#"{"name":"x","workload":{"kind":"teleport"}}"#;
        let e = parse_scenario(src, "m").unwrap_err();
        assert!(
            e.message.contains("unknown workload kind `teleport`"),
            "{e}"
        );

        let src = r#"{"name":"x","workload":{"kind":"fleet","groups":[
            {"name":"g","count":1,"mobility":{"model":"hover"}}]}}"#;
        let e = parse_scenario(src, "m").unwrap_err();
        assert!(e.message.contains("unknown mobility model `hover`"), "{e}");
    }

    #[test]
    fn type_errors_name_the_key() {
        let src = r#"{"name":"x","workload":{"kind":"survey","speed_kmh":"fast"}}"#;
        let e = parse_scenario(src, "m").unwrap_err();
        assert!(e.message.contains("`speed_kmh` must be a number"), "{e}");

        let src =
            r#"{"name":"x","workload":{"kind":"fleet","duration_s":-3,"groups":[{"name":"g"}]}}"#;
        let e = parse_scenario(src, "m").unwrap_err();
        assert!(
            e.message
                .contains("`duration_s` must be a non-negative integer"),
            "{e}"
        );
    }

    #[test]
    fn fleet_with_all_features_parses() {
        let src = r#"{
  "name": "full",
  "description": "everything at once",
  "campus": { "gnb_sites": 4 },
  "loads": { "period": "night", "nr": 0.1 },
  "workload": {
    "kind": "fleet",
    "duration_s": 60,
    "tick_ms": 250,
    "groups": [
      { "name": "walkers", "count": 10, "tech": "nr",
        "mobility": { "model": "waypoint", "speed_min_kmh": 3, "speed_max_kmh": 10 },
        "arrival": { "process": "steady" },
        "app": { "kind": "bulk" } },
      { "name": "callers", "count": 5, "tech": "nr",
        "mobility": { "model": "static" },
        "arrival": { "process": "flash_crowd", "at_s": 10, "spread_s": 2 },
        "app": { "kind": "video", "resolution": "5.7k", "scene": "dynamic" } },
      { "name": "readers", "count": 8, "tech": "lte",
        "mobility": { "model": "transect", "from": [10, 10], "to": [400, 800], "speed_kmh": 5 },
        "arrival": { "process": "diurnal", "peak_frac": 0.4 },
        "app": { "kind": "web", "category": "news_is_wrong", "think_s": 4 } }
    ]
  }
}"#;
        // One deliberate error to prove deep group parsing runs:
        let e = parse_scenario(src, "m").unwrap_err();
        assert!(
            e.message.contains("unknown category `news_is_wrong`"),
            "{e}"
        );
        let fixed = src.replace("news_is_wrong", "shopping");
        let s = parse_scenario(&fixed, "m").unwrap();
        match &s.workload {
            WorkloadSpec::Fleet(f) => {
                assert_eq!(f.groups.len(), 3);
                assert_eq!(f.groups[1].app.kind(), "video");
                assert_eq!(f.groups[2].tech, TechSpec::Lte);
            }
            other => panic!("expected fleet, got {other:?}"),
        }
        assert_eq!(s.loads.resolve(), (0.2, 0.1));
    }

    #[test]
    fn fault_schedule_parses_and_validates() {
        let src = r#"{
  "name": "faulty",
  "workload": { "kind": "fleet", "groups": [ { "name": "g", "count": 2 } ] },
  "faults": [
    { "kind": "cell_outage", "start_s": 10, "end_s": 20, "pcis": [60, 61] },
    { "kind": "backhaul_brownout", "start_s": 30, "end_s": 40, "capacity_mbps": 200 },
    { "kind": "handoff_storm", "start_s": 50, "end_s": 60, "hysteresis_db": 0 }
  ]
}"#;
        let s = parse_scenario(src, "m").unwrap();
        assert_eq!(s.faults.len(), 3);
        assert_eq!(s.faults[0].kind(), "cell_outage");
        // Inverted window rejected by validation.
        let bad = src.replace("\"end_s\": 20", "\"end_s\": 5");
        let e = parse_scenario(&bad, "m").unwrap_err();
        assert!(e.message.contains("window"), "{e}");
    }

    #[test]
    fn errors_name_the_key_path_and_its_line() {
        // Three groups, each with a `count`; break the second one.
        let src = include_str!("../../../golden/scenarios/outage-demo.json");
        let bad = src.replacen("\"count\": 6,", "\"count\": \"six\",", 1);
        assert_ne!(bad, src);
        let e = parse_scenario(&bad, "outage-demo.json").unwrap_err();
        assert_eq!(e.path, "workload.groups[1].count", "{e}");
        assert_eq!(e.line, 37, "{e}");
        assert_eq!(
            e.to_string(),
            "outage-demo.json:37: workload.groups[1].count: \
             `count` must be a non-negative integer"
        );
    }

    /// A semantic error found after parsing names the offending key and
    /// its line, like a parse error does.
    #[test]
    fn validation_errors_name_the_key_path_and_its_line() {
        let src = "{\n  \"name\": \"x\",\n  \"workload\": { \"kind\": \"fleet\",\n    \"groups\": [\n      { \"name\": \"a\",\n        \"count\": 0 } ] }\n}";
        let e = parse_scenario(src, "zero.json").unwrap_err();
        assert_eq!(e.path, "workload.groups[0].count", "{e}");
        assert_eq!(e.line, 6, "{e}");
        assert_eq!(
            e.to_string(),
            "zero.json:6: workload.groups[0].count: invalid scenario: group `a` has zero UEs"
        );
        // A defaulted key has no line of its own: the error sits on the
        // line of the value that encloses it.
        let src = "{\n  \"name\": \"x\",\n  \"campus\": {\n    \"enb_sites\": 2 },\n  \"workload\": { \"kind\": \"survey\" }\n}";
        let e = parse_scenario(src, "sites.json").unwrap_err();
        assert_eq!(e.path, "campus.gnb_sites", "{e}");
        assert_eq!(e.line, 3, "{e}");
    }

    #[test]
    fn duplicate_keys_are_rejected_with_their_line() {
        let src = "{\n  \"name\": \"x\",\n  \"campus\": { \"width_m\": 500,\n    \"width_m\": 600 },\n  \"workload\": { \"kind\": \"survey\" }\n}";
        let e = parse_scenario(src, "dup.json").unwrap_err();
        assert_eq!(e.line, 4, "{e}");
        assert!(e.message.contains("duplicate key `width_m`"), "{e}");
    }
}
