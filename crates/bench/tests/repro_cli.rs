//! Exit-code tests for the `repro` binary: every bad `--trace`
//! invocation must exit 2 with the usage text, before any job runs, and
//! `--check` exits 0 against its own `--bless` and 1 on drift.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

#[test]
fn unknown_trace_mode_exits_2_with_usage() {
    let out = repro(&["--trace=firehose", "--only", "scenario"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown mode `firehose`"),
        "stderr names the bad mode: {stderr}"
    );
    assert!(
        stderr.contains("Usage: repro"),
        "stderr shows usage: {stderr}"
    );
}

#[test]
fn trace_without_a_target_exits_2_with_usage() {
    for args in [&["--trace"][..], &["--trace=full"][..]] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--trace requires a target"),
            "stderr explains the missing target: {stderr}"
        );
        assert!(
            stderr.contains("Usage: repro"),
            "stderr shows usage: {stderr}"
        );
    }
}

#[test]
fn trace_with_a_target_passes_flag_validation() {
    // A filter that matches nothing still clears flag parsing; the
    // failure is the late "no jobs matched" path, not the usage text.
    let out = repro(&["--trace=ring", "--only", "no-such-job-anywhere"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no jobs matched"), "got: {stderr}");
    assert!(!stderr.contains("Usage: repro"), "got: {stderr}");
}

#[test]
fn check_passes_on_its_own_bless_and_fails_after_one_golden_byte() {
    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro-cli-golden");
    let _ = std::fs::remove_dir_all(&tmp);
    let (out, golden) = (tmp.join("out"), tmp.join("golden"));
    let (out, golden) = (out.to_str().unwrap(), golden.to_str().unwrap());
    let run = |flag: &str| {
        repro(&[
            "--only", "table4", "--jobs", "1", "--out", out, flag, golden,
        ])
    };

    let blessed = run("--bless");
    assert_eq!(blessed.status.code(), Some(0), "{blessed:?}");
    let clean = run("--check");
    assert_eq!(clean.status.code(), Some(0), "{clean:?}");

    let file = tmp.join("golden/table4.json");
    let mut bytes = std::fs::read(&file).unwrap();
    let at = bytes.iter().position(u8::is_ascii_digit).unwrap();
    bytes[at] = if bytes[at] == b'9' {
        b'0'
    } else {
        bytes[at] + 1
    };
    std::fs::write(&file, bytes).unwrap();
    let drifted = run("--check");
    assert_eq!(drifted.status.code(), Some(1), "{drifted:?}");
    let stderr = String::from_utf8_lossy(&drifted.stderr);
    assert!(
        stderr.contains("DRIFT   table4.json") && stderr.contains("1 drifted"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&tmp);
}
