//! Parameterized scenario families: grid/sweep expansion.
//!
//! A *family file* holds one base scenario plus a list of axes, each a
//! dotted parameter path and a list of values:
//!
//! ```json
//! {
//!   "base": { ... any scenario ... },
//!   "axes": [
//!     { "path": "campus.gnb_sites", "values": [2, 4, 6, 9] },
//!     { "path": "loads.nr", "values": [0.05, 0.3] }
//!   ]
//! }
//! ```
//!
//! [`expand`] takes the cartesian product of the axes (file order,
//! last axis fastest) and yields one scenario per grid point, its name
//! suffixed with the axis settings (`paper_campus_gnb_sites_4_nr_0p3`)
//! so every variant is a distinct campaign job with its own derived
//! seed. Expansion is pure data → data; `scen expand` writes each
//! variant as a canonical scenario file.

use crate::parse::{parse_source, scenario_from_value, Ctx, ScenarioError};
use crate::spec::{ScenarioSpec, SurveySpec, WorkloadSpec};
use fiveg_obs::JsonValue;

/// One sweep axis: a parameter path and the values it takes.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    /// Dotted parameter path, e.g. `campus.gnb_sites`.
    pub path: String,
    /// Values in sweep order.
    pub values: Vec<f64>,
}

/// A parsed family file: the base scenario plus sweep axes.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilySpec {
    /// The scenario every variant starts from.
    pub base: ScenarioSpec,
    /// Sweep axes, in file order.
    pub axes: Vec<Axis>,
}

/// The numeric parameter paths [`set_path`] understands.
pub const PATHS: &[&str] = &[
    "campus.width_m",
    "campus.height_m",
    "campus.enb_sites",
    "campus.gnb_sites",
    "campus.concrete_fraction",
    "city.tiles_x",
    "city.tiles_y",
    "city.enb_per_tile",
    "city.gnb_per_tile",
    "city.concrete_fraction",
    "loads.lte",
    "loads.nr",
    "workload.speed_kmh",
    "workload.interval_ms",
    "workload.duration_s",
    "workload.tick_ms",
];

fn as_u32(path: &str, v: f64) -> Result<u32, String> {
    if v.fract() == 0.0 && (0.0..=f64::from(u32::MAX)).contains(&v) {
        Ok(v as u32)
    } else {
        Err(format!("`{path}` needs a non-negative integer, got {v}"))
    }
}

fn as_u64_int(path: &str, v: f64) -> Result<u64, String> {
    if v.fract() == 0.0 && v >= 0.0 && v <= u64::MAX as f64 {
        Ok(v as u64)
    } else {
        Err(format!("`{path}` needs a non-negative integer, got {v}"))
    }
}

/// Sets one swept parameter on a spec. Unknown paths and workload
/// mismatches (survey path on a fleet scenario) are errors.
pub fn set_path(spec: &mut ScenarioSpec, path: &str, value: f64) -> Result<(), String> {
    match path {
        "campus.width_m" => spec.campus.width_m = value,
        "campus.height_m" => spec.campus.height_m = value,
        "campus.enb_sites" => spec.campus.enb_sites = as_u32(path, value)?,
        "campus.gnb_sites" => spec.campus.gnb_sites = as_u32(path, value)?,
        "campus.concrete_fraction" => spec.campus.concrete_fraction = value,
        "city.tiles_x"
        | "city.tiles_y"
        | "city.enb_per_tile"
        | "city.gnb_per_tile"
        | "city.concrete_fraction" => {
            let Some(city) = &mut spec.city else {
                return Err(format!(
                    "`{path}` needs a `city` block in the base scenario"
                ));
            };
            match path {
                "city.tiles_x" => city.tiles_x = as_u32(path, value)?,
                "city.tiles_y" => city.tiles_y = as_u32(path, value)?,
                "city.enb_per_tile" => city.enb_per_tile = as_u32(path, value)?,
                "city.gnb_per_tile" => city.gnb_per_tile = as_u32(path, value)?,
                _ => city.concrete_fraction = value,
            }
        }
        "loads.lte" => spec.loads.lte = Some(value),
        "loads.nr" => spec.loads.nr = Some(value),
        "workload.speed_kmh" => match &mut spec.workload {
            WorkloadSpec::Survey(SurveySpec { speed_kmh, .. }) => *speed_kmh = value,
            WorkloadSpec::Fleet(_) => {
                return Err("`workload.speed_kmh` applies to survey workloads only".into())
            }
        },
        "workload.interval_ms" => match &mut spec.workload {
            WorkloadSpec::Survey(SurveySpec { interval_ms, .. }) => {
                *interval_ms = as_u64_int(path, value)?;
            }
            WorkloadSpec::Fleet(_) => {
                return Err("`workload.interval_ms` applies to survey workloads only".into())
            }
        },
        "workload.duration_s" => match &mut spec.workload {
            WorkloadSpec::Fleet(f) => f.duration_s = as_u64_int(path, value)?,
            WorkloadSpec::Survey(_) => {
                return Err("`workload.duration_s` applies to fleet workloads only".into())
            }
        },
        "workload.tick_ms" => match &mut spec.workload {
            WorkloadSpec::Fleet(f) => f.tick_ms = as_u64_int(path, value)?,
            WorkloadSpec::Survey(_) => {
                return Err("`workload.tick_ms` applies to fleet workloads only".into())
            }
        },
        other => {
            return Err(format!(
                "unknown sweep path `{other}` (known: {})",
                PATHS.join(", ")
            ))
        }
    }
    Ok(())
}

/// Renders a swept value as a name-safe token: `0.3` → `0p3`,
/// `-2.5` → `m2p5`, `4.0` → `4`.
pub fn value_token(v: f64) -> String {
    format!("{v}").replace('.', "p").replace('-', "m")
}

/// Last path segment, used in variant names (`campus.gnb_sites` →
/// `gnb_sites`).
fn path_tag(path: &str) -> &str {
    path.rsplit('.').next().unwrap_or(path)
}

/// Expands a family into its variant scenarios (cartesian product,
/// file order, last axis fastest). Every variant is re-validated; the
/// first invalid grid point aborts the expansion with a message naming
/// the variant.
pub fn expand(family: &FamilySpec) -> Result<Vec<ScenarioSpec>, String> {
    let mut total: usize = 1;
    for axis in &family.axes {
        if axis.values.is_empty() {
            return Err(format!("axis `{}` has no values", axis.path));
        }
        total = total.saturating_mul(axis.values.len());
    }
    if total > 4096 {
        return Err(format!(
            "family expands to {total} variants (limit 4096); trim the axes"
        ));
    }
    let mut out = Vec::with_capacity(total);
    // Odometer over the axes: index i counts in mixed radix with the
    // last axis as the least significant digit.
    for i in 0..total {
        let mut spec = family.base.clone();
        let mut name = spec.name.clone();
        let mut rem = i;
        let mut picks = vec![0usize; family.axes.len()];
        for (k, axis) in family.axes.iter().enumerate().rev() {
            picks[k] = rem % axis.values.len();
            rem /= axis.values.len();
        }
        for (axis, &pick) in family.axes.iter().zip(&picks) {
            let v = axis.values[pick];
            set_path(&mut spec, &axis.path, v).map_err(|e| format!("variant {i}: {e}"))?;
            name.push('_');
            name.push_str(path_tag(&axis.path));
            name.push('_');
            name.push_str(&value_token(v));
        }
        spec.name = name;
        spec.validate()
            .map_err(|e| format!("variant `{}` is invalid: {e}", spec.name))?;
        out.push(spec);
    }
    Ok(out)
}

/// Parses a family file. `file` is the display name for errors, which
/// carry the key path and line of the offending value.
pub fn parse_family(src: &str, file: &str) -> Result<FamilySpec, ScenarioError> {
    let v = parse_source(src, file)?;
    let ctx = Ctx::root(src, file);
    let map = ctx.obj(&v, "family file")?;
    ctx.check_keys(map, &["base", "axes"], "family file")?;
    let base_v = map
        .get("base")
        .ok_or_else(|| ctx.err("family file is missing required key `base`".into()))?;
    let base = scenario_from_value(base_v, src, file, "base")?;
    let axes_v = map
        .get("axes")
        .ok_or_else(|| ctx.err("family file is missing required key `axes`".into()))?;
    let axes_ctx = ctx.child("axes");
    let JsonValue::Array(items) = axes_v else {
        return Err(axes_ctx.err("`axes` must be an array".into()));
    };
    let mut axes = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let actx = axes_ctx.item(i);
        let amap = actx.obj(item, "an axis")?;
        actx.check_keys(amap, &["path", "values"], "an axis")?;
        let path = actx.req_str(amap, "path", "an axis")?;
        if !PATHS.contains(&path.as_str()) {
            return Err(actx.err_at_key(
                "path",
                format!("unknown sweep path `{path}` (known: {})", PATHS.join(", ")),
            ));
        }
        let values_v = amap
            .get("values")
            .ok_or_else(|| actx.err("an axis is missing required key `values`".into()))?;
        let vctx = actx.child("values");
        let JsonValue::Array(value_items) = values_v else {
            return Err(vctx.err("`values` must be an array".into()));
        };
        let values = value_items
            .iter()
            .enumerate()
            .map(|(k, v)| {
                v.as_f64()
                    .ok_or_else(|| vctx.item(k).err("sweep values must be numbers".into()))
            })
            .collect::<Result<_, _>>()?;
        axes.push(Axis { path, values });
    }
    Ok(FamilySpec { base, axes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CampusSpec, LoadSpec};

    fn base() -> ScenarioSpec {
        ScenarioSpec {
            name: "sweep".into(),
            description: String::new(),
            campus: CampusSpec::default(),
            city: None,
            loads: LoadSpec::default(),
            workload: WorkloadSpec::Survey(SurveySpec::default()),
            faults: Vec::new(),
        }
    }

    #[test]
    fn expand_is_a_cartesian_product_in_order() {
        let family = FamilySpec {
            base: base(),
            axes: vec![
                Axis {
                    path: "campus.gnb_sites".into(),
                    values: vec![2.0, 6.0],
                },
                Axis {
                    path: "loads.nr".into(),
                    values: vec![0.05, 0.3],
                },
            ],
        };
        let variants = expand(&family).unwrap();
        assert_eq!(variants.len(), 4);
        let names: Vec<&str> = variants.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "sweep_gnb_sites_2_nr_0p05",
                "sweep_gnb_sites_2_nr_0p3",
                "sweep_gnb_sites_6_nr_0p05",
                "sweep_gnb_sites_6_nr_0p3",
            ]
        );
        assert_eq!(variants[0].campus.gnb_sites, 2);
        assert_eq!(variants[3].campus.gnb_sites, 6);
        assert_eq!(variants[3].loads.nr, Some(0.3));
    }

    #[test]
    fn invalid_grid_points_are_named() {
        let family = FamilySpec {
            base: base(),
            axes: vec![Axis {
                path: "campus.gnb_sites".into(),
                values: vec![99.0], // > enb_sites → validate() fails
            }],
        };
        let e = expand(&family).unwrap_err();
        assert!(e.contains("sweep_gnb_sites_99"), "{e}");
        assert!(e.contains("gnb_sites"), "{e}");
    }

    #[test]
    fn workload_mismatched_paths_fail() {
        let mut spec = base();
        assert!(set_path(&mut spec, "workload.duration_s", 60.0)
            .unwrap_err()
            .contains("fleet workloads only"));
        assert!(set_path(&mut spec, "bogus.path", 1.0)
            .unwrap_err()
            .contains("unknown sweep path"));
        assert!(set_path(&mut spec, "campus.enb_sites", 2.5)
            .unwrap_err()
            .contains("integer"));
    }

    #[test]
    fn family_file_parses_and_expands() {
        let src = r#"{
  "base": {
    "name": "density",
    "workload": { "kind": "survey" }
  },
  "axes": [
    { "path": "campus.gnb_sites", "values": [2, 4] }
  ]
}"#;
        let family = parse_family(src, "fam.json").unwrap();
        assert_eq!(family.base.name, "density");
        let variants = expand(&family).unwrap();
        assert_eq!(variants.len(), 2);
        assert_eq!(variants[1].name, "density_gnb_sites_4");
    }

    #[test]
    fn family_file_rejects_unknown_keys_and_paths() {
        let src = r#"{ "base": { "name": "x", "workload": { "kind": "survey" } },
                       "axes": [ { "path": "campus.magic", "values": [1] } ] }"#;
        let e = parse_family(src, "fam.json").unwrap_err();
        assert!(
            e.message.contains("unknown sweep path `campus.magic`"),
            "{e}"
        );

        let src = r#"{ "base": { "name": "x", "workload": { "kind": "survey" } },
                       "axes": [ { "path": "trace.sample", "values": [1] } ] }"#;
        let e = parse_family(src, "fam.json").unwrap_err();
        assert!(
            e.message.contains("unknown sweep path `trace.sample`"),
            "{e}"
        );

        let src = r#"{ "base": { "name": "x", "workload": { "kind": "survey" } },
                       "axes": [], "extra": 1 }"#;
        let e = parse_family(src, "fam.json").unwrap_err();
        assert!(e.message.contains("unknown key `extra`"), "{e}");
    }

    #[test]
    fn axis_errors_carry_their_key_path_and_line() {
        let good = include_str!("../../../golden/scenarios/families/gnb-density.json");
        let bad = good.replacen("\"values\": [4,", "\"values\": [\"x\", 4,", 1);
        assert_ne!(bad, good, "the fixture changed shape");
        let line = 1 + bad[..bad.find("\"x\"").unwrap()].matches('\n').count();
        let e = parse_family(&bad, "fam-bad.json").unwrap_err();
        assert_eq!(e.path, "axes[0].values[0]", "{e}");
        assert_eq!(e.line, line, "{e}");
        assert!(e.message.contains("must be numbers"), "{e}");
    }

    #[test]
    fn value_tokens_are_name_safe() {
        assert_eq!(value_token(0.3), "0p3");
        assert_eq!(value_token(4.0), "4");
        assert_eq!(value_token(-2.5), "m2p5");
    }
}
