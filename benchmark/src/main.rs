//! Benchmark command line.
//!
//! ```text
//! fiveg-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! fiveg-benchmark --bless-expected
//! ```
//!
//! Prints every metric as `workload metric value unit`, writes the run's
//! record under `out/`, and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

use fiveg_benchmark::catalog::WORKLOADS;
use fiveg_benchmark::oracle::{self, Expected, Oracle, EXPECTED_SEED};
use fiveg_benchmark::{run_workload, setup, Detail, Params, ResultLine};
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: fiveg-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
       fiveg-benchmark --bless-expected
workloads: campaign-quick bulk-flows fleet-metro coverage-sweep";

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Cmd {
    Run(RunArgs),
    Bless,
}

fn parse(args: &[String]) -> Result<Cmd, String> {
    let mut workload = None;
    let mut seed = EXPECTED_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--bless-expected" {
            return if args.len() == 1 {
                Ok(Cmd::Bless)
            } else {
                Err("--bless-expected takes no other arguments".into())
            };
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.iter().any(|(w, _)| w == value) {
                    return Err(format!("unknown workload `{value}`"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Cmd::Run(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    }))
}

/// The run's full record: the result plus raw timings and notes.
#[derive(Serialize)]
struct Record {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    result: ResultLine,
    notes: Vec<String>,
    detail: Detail,
}

fn run(a: &RunArgs) -> Result<(), String> {
    let oracle = Oracle::load(&a.workload, a.seed)?;
    let out = run_workload(
        &a.workload,
        a.seed,
        a.seconds,
        a.trace,
        &Params::standard(),
        &oracle,
    )?;
    for note in &out.notes {
        eprintln!("FAIL {}: {note}", a.workload);
    }
    for (name, value, unit) in &out.metrics {
        if !value.is_finite() {
            return Err(format!("{name} is not a finite number"));
        }
        println!("{} {name} {value} {unit}", a.workload);
    }
    let record = Record {
        workload: a.workload.clone(),
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        result: out.result_line(),
        notes: out.notes,
        detail: out.detail,
    };
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let file = dir.join(format!(
        "{}-seed{}-trace{}.json",
        a.workload,
        a.seed,
        u8::from(a.trace)
    ));
    let line = serde_json::to_string(&record.result).map_err(|e| e.to_string())?;
    let json = serde_json::to_string_pretty(&record).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&file, json + "\n"))
        .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    println!("{line}");
    Ok(())
}

/// Regenerates `expected/` from one untraced round of every workload at
/// the committed seed.
fn bless() -> Result<(), String> {
    let params = Params::standard();
    let mut all = BTreeMap::new();
    for (name, _) in WORKLOADS {
        let round = setup(name, EXPECTED_SEED, &params)?.round(None);
        if round.errors > 0 {
            return Err(format!("{name}: {} ops failed", round.errors));
        }
        eprintln!("{name}: {} ops", round.ops);
        all.insert(
            name.to_string(),
            Expected {
                digests: round.digests,
                counters: round.counters,
            },
        );
    }
    let path = oracle::expected_path();
    std::fs::write(&path, oracle::render_expected(all))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    // The simulator's grid sweeps read their thread count once, from the
    // environment; the benchmark measures single-threaded work.
    std::env::set_var("FIVEG_SWEEP_THREADS", "1");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse(&args) {
        Ok(Cmd::Run(a)) => run(&a),
        Ok(Cmd::Bless) => bless(),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
