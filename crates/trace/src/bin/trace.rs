//! `trace` — read-side CLI for fiveg-trace columnar artifacts.
//!
//! ```text
//! trace dump  <stem>[.trace.bin] [--kind NAME] [--ue N] [--group NAME]
//!                               [--from SEC] [--to SEC] [--limit N]
//! trace stats <stem>[.trace.bin]
//! trace chrome <spans.json>
//! ```
//!
//! `<stem>` names a campaign artifact pair `{stem}.trace.bin` +
//! `{stem}.trace.json` as written by `repro --trace`. `stats` prints
//! per-kind counts and reconstructs per-UE handoff timelines with
//! sojourn times (the paper's Fig. 8-style analysis). `chrome`
//! converts a span-timer self-profile (`{stem}.trace.spans.json`)
//! into chrome://tracing trace-event JSON.
//!
//! Bad input exits 2 with a message naming the file. Output stops at
//! the first failed write; a closed pipe (`trace dump | head`) is not
//! an error.

use std::io::{self, Write};
use std::process::ExitCode;

use fiveg_obs::json::{escape_into, JsonValue};
use fiveg_trace::{decode, Group, Row, COLUMNS, KINDS, NO_UE};

const USAGE: &str = "usage:
  trace dump  <stem>[.trace.bin] [--kind NAME] [--ue N] [--group NAME] [--from SEC] [--to SEC] [--limit N]
  trace stats <stem>[.trace.bin]
  trace chrome <spans.json>

kinds: attach handoff cell_outage cell_restore brownout_cap cc_state kpi";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => return usage_err("missing subcommand"),
    };
    let out = &mut io::stdout().lock();
    let res = match cmd {
        "dump" => cmd_dump(rest, out),
        "stats" => cmd_stats(rest, out),
        "chrome" => cmd_chrome(rest, out),
        _ => return usage_err(&format!("unknown subcommand `{cmd}`")),
    };
    match res {
        Ok(()) | Err(Fail::Closed) => ExitCode::SUCCESS,
        Err(Fail::Msg(e)) => {
            eprintln!("trace: {e}");
            ExitCode::from(2)
        }
    }
}

/// Why a command stopped early.
enum Fail {
    /// Bad arguments or input; the message names the file.
    Msg(String),
    /// Stdout's reader went away.
    Closed,
}

impl From<String> for Fail {
    fn from(msg: String) -> Fail {
        Fail::Msg(msg)
    }
}

impl From<io::Error> for Fail {
    fn from(e: io::Error) -> Fail {
        if e.kind() == io::ErrorKind::BrokenPipe {
            Fail::Closed
        } else {
            Fail::Msg(format!("stdout: {e}"))
        }
    }
}

fn usage_err(msg: &str) -> ExitCode {
    eprintln!("trace: {msg}\n{USAGE}");
    ExitCode::from(2)
}

/// A loaded trace: merged rows + sidecar metadata.
struct Loaded {
    rows: Vec<Row>,
    groups: Vec<Group>,
    mode: String,
}

fn stem_paths(arg: &str) -> (String, String) {
    let stem = arg.strip_suffix(".trace.bin").unwrap_or(arg);
    (format!("{stem}.trace.bin"), format!("{stem}.trace.json"))
}

fn load(arg: &str) -> Result<Loaded, String> {
    let (bin_path, side_path) = stem_paths(arg);
    let bin = std::fs::read(&bin_path).map_err(|e| format!("{bin_path}: {e}"))?;
    let rows = decode(&bin).map_err(|e| format!("{bin_path}: {e}"))?;
    let side_text = std::fs::read_to_string(&side_path).map_err(|e| format!("{side_path}: {e}"))?;
    let side = fiveg_obs::parse_json(&side_text).map_err(|e| format!("{side_path}: {e}"))?;
    if !columns_match(&side) {
        return Err(format!(
            "{side_path}: `columns` is not the trace row layout ({})",
            COLUMNS.map(|(name, ty)| format!("{name}: {ty}")).join(", ")
        ));
    }
    let groups = side
        .get("groups")
        .and_then(|g| match g {
            JsonValue::Array(items) => Some(items),
            _ => None,
        })
        .map(|items| {
            items
                .iter()
                .filter_map(|it| {
                    Some(Group {
                        name: it.get("name")?.as_str()?.to_string(),
                        start: it.get("start")?.as_u64()? as u32,
                        end: it.get("end")?.as_u64()? as u32,
                    })
                })
                .collect()
        })
        .unwrap_or_default();
    Ok(Loaded {
        rows,
        groups,
        mode: side
            .get("mode")
            .and_then(|v| v.as_str())
            .unwrap_or("?")
            .to_string(),
    })
}

/// Whether the sidecar's `columns` list is [`COLUMNS`].
fn columns_match(side: &JsonValue) -> bool {
    let Some(JsonValue::Array(cols)) = side.get("columns") else {
        return false;
    };
    cols.len() == COLUMNS.len()
        && cols.iter().zip(COLUMNS).all(|(c, (name, ty))| {
            c.get("name").and_then(JsonValue::as_str) == Some(name)
                && c.get("ty").and_then(JsonValue::as_str) == Some(ty)
        })
}

fn kind_name(kind: u8) -> &'static str {
    KINDS
        .get(kind as usize)
        .copied()
        .flatten()
        .map_or("?", |k| k.0)
}

fn secs(t_ns: u64) -> f64 {
    t_ns as f64 / 1e9
}

fn group_of(groups: &[Group], ue: u32) -> Option<&str> {
    groups
        .iter()
        .find(|g| ue >= g.start && ue < g.end)
        .map(|g| g.name.as_str())
}

// -------------------------------------------------------------- dump

struct DumpFilter {
    kind: Option<u8>,
    ue: Option<u32>,
    group: Option<String>,
    from_s: f64,
    to_s: f64,
    limit: usize,
}

fn cmd_dump(rest: &[String], out: &mut impl Write) -> Result<(), Fail> {
    let (target, mut it) = match rest.split_first() {
        Some((t, r)) => (t, r.iter()),
        None => return Err(format!("dump: missing <stem>\n{USAGE}").into()),
    };
    let mut f = DumpFilter {
        kind: None,
        ue: None,
        group: None,
        from_s: f64::NEG_INFINITY,
        to_s: f64::INFINITY,
        limit: usize::MAX,
    };
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("dump: {name} needs a value"))
        };
        match flag.as_str() {
            "--kind" => {
                let v = val("--kind")?;
                let k = KINDS.iter().position(|k| k.is_some_and(|(n, _)| n == v));
                f.kind = Some(k.ok_or_else(|| format!("dump: unknown kind `{v}`"))? as u8);
            }
            "--ue" => f.ue = Some(parse_num(&val("--ue")?, "--ue")?),
            "--group" => f.group = Some(val("--group")?),
            "--from" => f.from_s = parse_num(&val("--from")?, "--from")?,
            "--to" => f.to_s = parse_num(&val("--to")?, "--to")?,
            "--limit" => f.limit = parse_num::<usize>(&val("--limit")?, "--limit")?,
            other => return Err(format!("dump: unknown flag `{other}`\n{USAGE}").into()),
        }
    }
    let loaded = load(target)?;
    let mut shown = 0usize;
    for r in &loaded.rows {
        if shown >= f.limit {
            writeln!(out, "... (limit {} reached)", f.limit)?;
            break;
        }
        if f.kind.is_some_and(|k| k != r.kind) || f.ue.is_some_and(|u| u != r.ue) {
            continue;
        }
        let t = secs(r.t_ns);
        if t < f.from_s || t > f.to_s {
            continue;
        }
        if let Some(ref want) = f.group {
            if group_of(&loaded.groups, r.ue) != Some(want.as_str()) {
                continue;
            }
        }
        writeln!(out, "{}", render(r, &loaded.groups))?;
        shown += 1;
    }
    Ok(())
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("dump: bad {flag} `{s}`"))
}

fn render(r: &Row, groups: &[Group]) -> String {
    let t = secs(r.t_ns);
    let who = if r.ue == NO_UE {
        String::new()
    } else {
        match group_of(groups, r.ue) {
            Some(g) => format!(" ue {} ({g})", r.ue),
            None => format!(" ue {}", r.ue),
        }
    };
    let detail = match r.kind {
        0 => format!("pci {} rsrp {:.1} dBm", r.a, r.v0),
        1 => format!(
            "pci {} -> {} margin {:.2} dB (hysteresis {:.2} dB)",
            r.a, r.b, r.v0, r.v1
        ),
        2 | 3 => format!("pci {}", r.a),
        4 => {
            if r.v0 < 0.0 {
                "lifted".to_string()
            } else {
                format!("cap {:.1} Mbit/s", r.v0)
            }
        }
        7 => format!(
            "flow {} state {} alg {}",
            r.ue,
            ["open", "recovery", "loss"]
                .get(r.a as usize)
                .unwrap_or(&"?"),
            r.b
        ),
        _ => format!(
            "pci {} in_service {} bitrate {:.2} Mbit/s rsrp {:.1} dBm",
            r.a, r.b, r.v0, r.v1
        ),
    };
    format!("{t:>10.3}s [{:>14}]{} {}", kind_name(r.kind), who, detail)
}

// ------------------------------------------------------------- stats

fn cmd_stats(rest: &[String], out: &mut impl Write) -> Result<(), Fail> {
    let target = rest
        .first()
        .ok_or_else(|| format!("stats: missing <stem>\n{USAGE}"))?;
    let loaded = load(target)?;
    writeln!(out, "mode {}  rows {}", loaded.mode, loaded.rows.len())?;
    let mut counts = [0u64; 9];
    let (mut t_min, mut t_max) = (u64::MAX, 0u64);
    for r in &loaded.rows {
        if let Some(c) = counts.get_mut(r.kind as usize) {
            *c += 1;
        }
        t_min = t_min.min(r.t_ns);
        t_max = t_max.max(r.t_ns);
    }
    if !loaded.rows.is_empty() {
        writeln!(out, "window {:.3}s .. {:.3}s", secs(t_min), secs(t_max))?;
    }
    for (kind, n) in KINDS.iter().zip(counts) {
        if let Some((name, _)) = kind.filter(|_| n > 0) {
            writeln!(out, "  {name:<16} {n}")?;
        }
    }
    timelines(&loaded, out)
}

/// Per-UE serving-cell timeline with sojourn times (Fig. 8 style).
/// A timeline is *complete* when the UE's first radio event is an
/// attach, so every sojourn has a defined start.
fn timelines(loaded: &Loaded, out: &mut impl Write) -> Result<(), Fail> {
    use std::collections::BTreeMap;
    let mut per_ue: BTreeMap<u32, Vec<&Row>> = BTreeMap::new();
    for r in &loaded.rows {
        if (r.kind == 0 || r.kind == 1) && r.ue != NO_UE {
            per_ue.entry(r.ue).or_default().push(r);
        }
    }
    let with_handoffs = per_ue
        .iter()
        .filter(|(_, evs)| evs.iter().any(|r| r.kind == 1))
        .count();
    writeln!(
        out,
        "handoff timelines: {} UEs with radio events, {} with handoffs",
        per_ue.len(),
        with_handoffs
    )?;
    let mut shown = 0;
    for (ue, evs) in &per_ue {
        if !evs.iter().any(|r| r.kind == 1) {
            continue;
        }
        if shown == 8 {
            writeln!(out, "  ... ({} more)", with_handoffs - shown)?;
            break;
        }
        shown += 1;
        let complete = evs.first().is_some_and(|r| r.kind == 0);
        let who = match group_of(&loaded.groups, *ue) {
            Some(g) => format!("ue {ue} ({g})"),
            None => format!("ue {ue}"),
        };
        let tag = if complete { "complete" } else { "partial" };
        let mut line = format!("  {who} [{tag}]: ");
        let mut prev_t: Option<u64> = None;
        for r in evs {
            match r.kind {
                0 => {
                    line.push_str(&format!("attach pci {} @{:.1}s", r.a, secs(r.t_ns)));
                    prev_t = Some(r.t_ns);
                }
                _ => {
                    let sojourn = prev_t
                        .map(|p| format!(" (sojourn {:.1}s)", secs(r.t_ns.saturating_sub(p))))
                        .unwrap_or_default();
                    line.push_str(&format!(
                        " | {} -> {} @{:.1}s{sojourn}",
                        r.a,
                        r.b,
                        secs(r.t_ns)
                    ));
                    prev_t = Some(r.t_ns);
                }
            }
        }
        writeln!(out, "{line}")?;
    }
    Ok(())
}

// ------------------------------------------------------------ chrome

/// Converts an obs span self-profile (the `{stem}.trace.spans.json`
/// artifact, or any obs snapshot JSON with a `spans` section) into
/// chrome://tracing trace-event JSON on stdout.
fn cmd_chrome(rest: &[String], out: &mut impl Write) -> Result<(), Fail> {
    let path = rest
        .first()
        .ok_or_else(|| format!("chrome: missing <spans.json>\n{USAGE}"))?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let snap = fiveg_obs::parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let spans = snap
        .get("spans")
        .and_then(JsonValue::as_object)
        .ok_or_else(|| format!("{path}: no `spans` section"))?;
    // The vendored serde_json has no `json!` macro; the document is
    // simple enough to assemble by hand.
    let mut doc = String::from("{\"traceEvents\":[");
    let mut ts = 0.0f64;
    for (i, (name, sp)) in spans.iter().enumerate() {
        let total_ns = sp.get("total_ns").and_then(JsonValue::as_u64).unwrap_or(0);
        let count = sp.get("count").and_then(JsonValue::as_u64).unwrap_or(0);
        let max_ns = sp.get("max_ns").and_then(JsonValue::as_u64).unwrap_or(0);
        let dur_us = total_ns as f64 / 1e3;
        if i > 0 {
            doc.push(',');
        }
        doc.push_str("\n  {\"name\":\"");
        escape_into(&mut doc, name);
        doc.push_str(&format!(
            "\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{ts:.3},\"dur\":{dur_us:.3},\"args\":{{\"count\":{count},\"max_ns\":{max_ns}}}}}"
        ));
        ts += dur_us;
    }
    doc.push_str("\n],\"displayTimeUnit\":\"ms\"}");
    writeln!(out, "{doc}")?;
    Ok(())
}
