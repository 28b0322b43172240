//! End-to-end tests of the `trace` binary over a trace written through
//! [`TraceHandle`]: filtered dumps, per-kind stats, rejected inputs and
//! a closed stdout pipe.

use fiveg_trace::{Group, TraceConfig, TraceEvent, TraceHandle, TraceMode};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

const UES: u32 = 40;
const TICKS: u64 = 50;

/// Writes a full trace of `UES` attaches, one handoff per even UE and
/// `UES * TICKS` KPI rows (about 180 KB of `dump` output) to a fresh
/// directory; returns the stem and the handoffs as `(ue, from, to)`.
fn write_trace(tag: &str) -> (PathBuf, Vec<(u32, u32, u32)>) {
    let dir = std::env::temp_dir().join(format!("fiveg-trace-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let h = TraceHandle::new(TraceConfig {
        mode: TraceMode::Full,
        ..TraceConfig::default()
    });
    h.set_groups(vec![Group {
        name: "walkers".into(),
        start: 0,
        end: UES,
    }]);
    let mut handoffs = Vec::new();
    for ue in 0..UES {
        let pci = 60 + ue % 7;
        h.emit(
            ue,
            &TraceEvent::Attach {
                t_ns: 1_000_000,
                ue,
                pci,
                rsrp_dbm: -80.0,
            },
        );
        if ue % 2 == 0 {
            h.emit(
                ue,
                &TraceEvent::Handoff {
                    t_ns: 2_000_000_000 + u64::from(ue),
                    ue,
                    from_pci: pci,
                    to_pci: pci + 1,
                    margin_db: 3.5,
                    hysteresis_db: 3.0,
                },
            );
            handoffs.push((ue, pci, pci + 1));
        }
        for tick in 0..TICKS {
            h.emit(
                ue,
                &TraceEvent::Kpi {
                    t_ns: tick * 100_000_000,
                    ue,
                    pci,
                    in_service: true,
                    bitrate_mbps: 12.5,
                    rsrp_dbm: -81.0,
                },
            );
        }
    }
    let out = h.finish();
    let stem = dir.join("t");
    std::fs::write(stem.with_extension("trace.bin"), &out.bin).unwrap();
    std::fs::write(stem.with_extension("trace.json"), &out.sidecar).unwrap();
    (stem, handoffs)
}

fn trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace"))
        .args(args)
        .output()
        .unwrap()
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

#[test]
fn dump_kind_handoff_lists_exactly_the_emitted_handoffs() {
    let (stem, handoffs) = write_trace("dump");
    let o = trace(&["dump", stem.to_str().unwrap(), "--kind", "handoff"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let lines: Vec<String> = stdout(&o).lines().map(str::to_string).collect();
    let want: Vec<String> = handoffs
        .iter()
        .map(|&(ue, from, to)| {
            format!(
                "     2.000s [       handoff] ue {ue} (walkers) pci {from} -> {to} margin 3.50 dB (hysteresis 3.00 dB)"
            )
        })
        .collect();
    assert_eq!(lines, want);
}

#[test]
fn stats_reports_the_per_kind_counts() {
    let (stem, handoffs) = write_trace("stats");
    let o = trace(&["stats", stem.to_str().unwrap()]);
    assert!(o.status.success(), "{}", stderr(&o));
    let text = stdout(&o);
    let rows = UES as usize + handoffs.len() + (UES as u64 * TICKS) as usize;
    assert!(
        text.starts_with(&format!("mode full  rows {rows}\n")),
        "{text}"
    );
    for line in [
        format!("  attach           {UES}"),
        format!("  handoff          {}", handoffs.len()),
        format!("  kpi              {}", UES as u64 * TICKS),
        format!(
            "handoff timelines: {UES} UEs with radio events, {} with handoffs",
            handoffs.len()
        ),
    ] {
        assert!(
            text.lines().any(|l| l == line),
            "missing `{line}` in\n{text}"
        );
    }
}

#[test]
fn bad_inputs_exit_2_and_name_the_file() {
    let (stem, _) = write_trace("bad");
    let stem_arg = stem.to_str().unwrap();
    let bin_path = stem.with_extension("trace.bin");
    let side_path = stem.with_extension("trace.json");
    let bin = std::fs::read(&bin_path).unwrap();
    let side = std::fs::read_to_string(&side_path).unwrap();
    let expect_rejected = |file: &PathBuf, what: &str| {
        let o = trace(&["dump", stem_arg]);
        let err = stderr(&o);
        assert_eq!(o.status.code(), Some(2), "{err}");
        assert!(
            err.contains(file.to_str().unwrap()) && err.contains(what),
            "{err}"
        );
        assert!(o.stdout.is_empty());
    };

    // Kind codes 5 and 6 are reserved: their old names are unknown.
    let o = trace(&["dump", stem_arg, "--kind", "shard_msg_send"]);
    let err = stderr(&o);
    assert_eq!(o.status.code(), Some(2), "{err}");
    assert!(err.contains("unknown kind `shard_msg_send`"), "{err}");
    assert!(o.stdout.is_empty());

    std::fs::write(&bin_path, &bin[..bin.len() - 1]).unwrap();
    expect_rejected(&bin_path, "truncated");

    // A header that claims 2^61 rows of the 9 columns.
    let mut huge = bin[..12].to_vec();
    huge.extend_from_slice(&(1u64 << 61).to_le_bytes());
    std::fs::write(&bin_path, &huge).unwrap();
    expect_rejected(&bin_path, "2305843009213693952 rows");

    // A reserved (5) or unknown (9) kind code in the kind column, which
    // follows the 16 bytes a row of t_ns, origin and seq take.
    let rows = (bin.len() - 20) / 45;
    for (row, kind) in [(0, 5u8), (rows - 1, 9)] {
        let mut planted = bin.clone();
        planted[20 + 16 * rows + row] = kind;
        std::fs::write(&bin_path, &planted).unwrap();
        expect_rejected(&bin_path, &format!("row {row} has kind code {kind}"));
    }

    std::fs::write(&bin_path, &bin).unwrap();
    let renamed = side.replace("\"name\": \"v1\"", "\"name\": \"v2\"");
    assert_ne!(renamed, side);
    std::fs::write(&side_path, renamed).unwrap();
    expect_rejected(&side_path, "`columns`");
}

#[test]
fn a_closed_pipe_exits_0() {
    let (stem, _) = write_trace("pipe");
    let mut child = Command::new(env!("CARGO_BIN_EXE_trace"))
        .args(["dump", stem.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // The dump is larger than a pipe buffer, so it must meet the
    // closed read end whether or not it started writing yet.
    drop(child.stdout.take());
    let o = child.wait_with_output().unwrap();
    assert!(o.status.success(), "{:?}: {}", o.status, stderr(&o));
}
