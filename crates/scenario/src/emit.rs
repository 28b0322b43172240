//! Canonical scenario emission.
//!
//! [`emit_scenario`] renders a [`ScenarioSpec`] as JSON in one fixed
//! shape: fixed key order, two-space indent, `\n` line ends, floats in
//! Rust `{}` form. `scen fmt` rewrites files into this form and CI
//! checks committed scenarios stay in it, so diffs over scenario files
//! are always semantic. Emission is total (no panics) and round-trip
//! stable: `emit(parse(emit(s))) == emit(s)`.

use fiveg_obs::json::escape_into;

use crate::spec::{
    AppSpec, ArrivalSpec, FaultSpec, MobilitySpec, ScenarioSpec, SurveySpec, UeGroupSpec,
    WorkloadSpec,
};

/// Writer with canonical indentation. All content goes through
/// `line`/`open`/`close` so the output shape is decided in one place.
struct Emitter {
    out: String,
    depth: usize,
}

impl Emitter {
    fn new() -> Self {
        Emitter {
            out: String::with_capacity(1024),
            depth: 0,
        }
    }

    fn indent(&mut self) {
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }

    /// Emits one full line at the current depth. `comma` appends the
    /// separator for non-final aggregate members.
    fn line(&mut self, content: &str, comma: bool) {
        self.indent();
        self.out.push_str(content);
        if comma {
            self.out.push(',');
        }
        self.out.push('\n');
    }

    /// Opens an aggregate (`{` / `[`), optionally keyed.
    fn open(&mut self, key: Option<&str>, bracket: char) {
        self.indent();
        if let Some(key) = key {
            self.out.push_str(&json_string(key));
            self.out.push_str(": ");
        }
        self.out.push(bracket);
        self.out.push('\n');
        self.depth += 1;
    }

    fn close(&mut self, bracket: char, comma: bool) {
        self.depth = self.depth.saturating_sub(1);
        self.indent();
        self.out.push(bracket);
        if comma {
            self.out.push(',');
        }
        self.out.push('\n');
    }
}

/// JSON string literal, escaped by the `fiveg-obs` writer.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

/// Canonical float form: Rust `{}` Display. Integral floats print as
/// integers (`4.0` → `"4"`), which the parser reads back as the same
/// value, keeping round trips byte-stable.
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

fn kv_str(key: &str, v: &str) -> String {
    format!("{}: {}", json_string(key), json_string(v))
}

fn kv_f64(key: &str, v: f64) -> String {
    format!("{}: {}", json_string(key), fmt_f64(v))
}

fn kv_u64(key: &str, v: u64) -> String {
    format!("{}: {v}", json_string(key))
}

fn emit_survey(e: &mut Emitter, s: &SurveySpec, comma: bool) {
    e.open(Some("workload"), '{');
    e.line(&kv_str("kind", "survey"), true);
    e.line(&kv_f64("speed_kmh", s.speed_kmh), true);
    e.line(&kv_u64("interval_ms", s.interval_ms), false);
    e.close('}', comma);
}

fn emit_group(e: &mut Emitter, g: &UeGroupSpec, comma: bool) {
    e.open(None, '{');
    e.line(&kv_str("name", &g.name), true);
    e.line(&kv_u64("count", u64::from(g.count)), true);
    e.line(&kv_str("tech", g.tech.name()), true);
    e.open(Some("mobility"), '{');
    match &g.mobility {
        MobilitySpec::Static => e.line(&kv_str("model", "static"), false),
        MobilitySpec::Waypoint {
            speed_min_kmh,
            speed_max_kmh,
        } => {
            e.line(&kv_str("model", "waypoint"), true);
            e.line(&kv_f64("speed_min_kmh", *speed_min_kmh), true);
            e.line(&kv_f64("speed_max_kmh", *speed_max_kmh), false);
        }
        MobilitySpec::Transect {
            from,
            to,
            speed_kmh,
        } => {
            e.line(&kv_str("model", "transect"), true);
            e.line(
                &format!("\"from\": [{}, {}]", fmt_f64(from.0), fmt_f64(from.1)),
                true,
            );
            e.line(
                &format!("\"to\": [{}, {}]", fmt_f64(to.0), fmt_f64(to.1)),
                true,
            );
            e.line(&kv_f64("speed_kmh", *speed_kmh), false);
        }
    }
    e.close('}', true);
    e.open(Some("arrival"), '{');
    match &g.arrival {
        ArrivalSpec::Steady => e.line(&kv_str("process", "steady"), false),
        ArrivalSpec::Diurnal { peak_frac } => {
            e.line(&kv_str("process", "diurnal"), true);
            e.line(&kv_f64("peak_frac", *peak_frac), false);
        }
        ArrivalSpec::FlashCrowd { at_s, spread_s } => {
            e.line(&kv_str("process", "flash_crowd"), true);
            e.line(&kv_f64("at_s", *at_s), true);
            e.line(&kv_f64("spread_s", *spread_s), false);
        }
    }
    e.close('}', true);
    e.open(Some("app"), '{');
    match &g.app {
        AppSpec::Bulk => e.line(&kv_str("kind", "bulk"), false),
        AppSpec::Video { resolution, scene } => {
            e.line(&kv_str("kind", "video"), true);
            e.line(&kv_str("resolution", resolution.name()), true);
            e.line(&kv_str("scene", scene.name()), false);
        }
        AppSpec::Web { category, think_s } => {
            e.line(&kv_str("kind", "web"), true);
            e.line(&kv_str("category", category.name()), true);
            e.line(&kv_f64("think_s", *think_s), false);
        }
    }
    e.close('}', false);
    e.close('}', comma);
}

fn emit_fault(e: &mut Emitter, f: &FaultSpec, comma: bool) {
    e.open(None, '{');
    let (start_s, end_s) = f.window();
    e.line(&kv_str("kind", f.kind()), true);
    e.line(&kv_f64("start_s", start_s), true);
    match f {
        FaultSpec::CellOutage { pcis, .. } => {
            e.line(&kv_f64("end_s", end_s), true);
            let list = pcis
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(", ");
            e.line(&format!("\"pcis\": [{list}]"), false);
        }
        FaultSpec::BackhaulBrownout { capacity_mbps, .. } => {
            e.line(&kv_f64("end_s", end_s), true);
            e.line(&kv_f64("capacity_mbps", *capacity_mbps), false);
        }
        FaultSpec::HandoffStorm { hysteresis_db, .. } => {
            e.line(&kv_f64("end_s", end_s), true);
            e.line(&kv_f64("hysteresis_db", *hysteresis_db), false);
        }
    }
    e.close('}', comma);
}

/// Renders a scenario in canonical form (ends with a newline).
pub fn emit_scenario(spec: &ScenarioSpec) -> String {
    let mut e = Emitter::new();
    e.open(None, '{');
    let have_faults = !spec.faults.is_empty();
    e.line(&kv_str("name", &spec.name), true);
    if !spec.description.is_empty() {
        e.line(&kv_str("description", &spec.description), true);
    }
    e.open(Some("campus"), '{');
    e.line(&kv_f64("width_m", spec.campus.width_m), true);
    e.line(&kv_f64("height_m", spec.campus.height_m), true);
    e.line(&kv_u64("enb_sites", u64::from(spec.campus.enb_sites)), true);
    e.line(&kv_u64("gnb_sites", u64::from(spec.campus.gnb_sites)), true);
    e.line(
        &kv_f64("concrete_fraction", spec.campus.concrete_fraction),
        false,
    );
    e.close('}', true);
    if let Some(city) = &spec.city {
        e.open(Some("city"), '{');
        e.line(&kv_str("preset", city.preset.name()), true);
        e.line(&kv_u64("tiles_x", u64::from(city.tiles_x)), true);
        e.line(&kv_u64("tiles_y", u64::from(city.tiles_y)), true);
        e.line(&kv_u64("enb_per_tile", u64::from(city.enb_per_tile)), true);
        e.line(&kv_u64("gnb_per_tile", u64::from(city.gnb_per_tile)), true);
        e.line(&kv_f64("concrete_fraction", city.concrete_fraction), false);
        e.close('}', true);
    }
    e.open(Some("loads"), '{');
    let mut load_lines: Vec<String> = vec![kv_str("period", spec.loads.period.name())];
    if let Some(lte) = spec.loads.lte {
        load_lines.push(kv_f64("lte", lte));
    }
    if let Some(nr) = spec.loads.nr {
        load_lines.push(kv_f64("nr", nr));
    }
    let last = load_lines.len() - 1;
    for (i, l) in load_lines.iter().enumerate() {
        e.line(l, i != last);
    }
    e.close('}', true);
    match &spec.workload {
        WorkloadSpec::Survey(s) => emit_survey(&mut e, s, have_faults),
        WorkloadSpec::Fleet(f) => {
            e.open(Some("workload"), '{');
            e.line(&kv_str("kind", "fleet"), true);
            e.line(&kv_u64("duration_s", f.duration_s), true);
            e.line(&kv_u64("tick_ms", f.tick_ms), true);
            e.open(Some("groups"), '[');
            let last = f.groups.len().saturating_sub(1);
            for (i, g) in f.groups.iter().enumerate() {
                emit_group(&mut e, g, i != last);
            }
            e.close(']', false);
            e.close('}', have_faults);
        }
    }
    if have_faults {
        e.open(Some("faults"), '[');
        let last = spec.faults.len() - 1;
        for (i, f) in spec.faults.iter().enumerate() {
            emit_fault(&mut e, f, i != last);
        }
        e.close(']', false);
    }
    e.close('}', false);
    e.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_scenario;
    use crate::spec::{CampusSpec, LoadSpec};

    fn survey_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "paper_campus".into(),
            description: "paper-default road survey".into(),
            campus: CampusSpec::default(),
            city: None,
            loads: LoadSpec::default(),
            workload: WorkloadSpec::Survey(SurveySpec::default()),
            faults: Vec::new(),
        }
    }

    #[test]
    fn emit_parse_round_trip_preserves_spec() {
        let spec = survey_spec();
        let text = emit_scenario(&spec);
        let back = parse_scenario(&text, "mem").expect("canonical text parses");
        assert_eq!(back, spec);
    }

    #[test]
    fn emit_is_byte_stable_under_round_trip() {
        let spec = survey_spec();
        let first = emit_scenario(&spec);
        let reparsed = parse_scenario(&first, "mem").expect("parses");
        assert_eq!(emit_scenario(&reparsed), first);
    }

    #[test]
    fn canonicalises_a_sparse_handwritten_file() {
        let sparse = r#"{"workload":{"kind":"survey"},"name":"smoke"}"#;
        let spec = parse_scenario(sparse, "mem").expect("parses");
        let text = emit_scenario(&spec);
        assert!(text.starts_with("{\n  \"name\": \"smoke\",\n"), "{text}");
        assert!(text.ends_with("}\n"), "{text}");
        assert!(text.contains("\"speed_kmh\": 4.5"), "{text}");
        // Stable on re-format.
        let again = emit_scenario(&parse_scenario(&text, "mem").expect("parses"));
        assert_eq!(again, text);
    }

    #[test]
    fn city_block_round_trips_with_preset_defaults_filled() {
        // A sparse handwritten city block picks up preset defaults on
        // parse; the canonical emission is fully concrete and stable.
        let sparse = r#"{
  "name": "metro",
  "city": { "preset": "dense_urban", "tiles_x": 4 },
  "workload": { "kind": "survey" }
}"#;
        let spec = parse_scenario(sparse, "mem").expect("parses");
        let city = spec.city.as_ref().expect("city block present");
        assert_eq!(city.tiles_x, 4);
        assert_eq!(city.tiles_y, 2); // dense_urban preset default
        assert_eq!(city.enb_per_tile, 4);
        let text = emit_scenario(&spec);
        assert!(text.contains("\"preset\": \"dense_urban\""), "{text}");
        assert!(text.contains("\"tiles_x\": 4"), "{text}");
        assert!(text.contains("\"gnb_per_tile\": 2"), "{text}");
        let back = parse_scenario(&text, "mem").expect("canonical parses");
        assert_eq!(back, spec);
        assert_eq!(emit_scenario(&back), text);
    }

    #[test]
    fn unknown_city_preset_is_rejected_at_parse() {
        let bad = r#"{
  "name": "metro",
  "city": { "preset": "megalopolis" },
  "workload": { "kind": "survey" }
}"#;
        let e = parse_scenario(bad, "mem").expect_err("unknown preset fails");
        assert!(e.message.contains("unknown city preset"), "{e}");
    }

    #[test]
    fn integral_floats_survive_round_trip() {
        let mut spec = survey_spec();
        spec.campus.width_m = 400.0; // prints as "400", reparses as UInt
        spec.faults.push(FaultSpec::BackhaulBrownout {
            start_s: 30.0,
            end_s: 60.5,
            capacity_mbps: 200.0,
        });
        let text = emit_scenario(&spec);
        assert!(text.contains("\"width_m\": 400,"), "{text}");
        assert!(text.contains("\"end_s\": 60.5"), "{text}");
        let back = parse_scenario(&text, "mem").expect("parses");
        assert_eq!(back, spec);
        assert_eq!(emit_scenario(&back), text);
    }

    #[test]
    fn strings_are_escaped() {
        let mut spec = survey_spec();
        spec.description = "say \"hi\"\nback\\slash".into();
        let text = emit_scenario(&spec);
        assert!(text.contains(r#""say \"hi\"\nback\\slash""#), "{text}");
        let back = parse_scenario(&text, "mem").expect("parses");
        assert_eq!(back.description, spec.description);
    }
}
