//! Regenerates every table and figure of the paper via the campaign
//! executor.
//!
//! A thin CLI over [`fiveg_campaign`]: job selection, worker count and
//! golden checks live in the library; this binary only parses flags,
//! streams progress to stderr and sets the exit code.

use fiveg_bench::{compare_to_baseline, BenchReport, BENCH_SCHEMA};
use fiveg_campaign::{check_run, run, write_golden, write_run, JobEvent, RunConfig};
use fiveg_core::campaign::FidelityLevel;
use fiveg_core::jobs::paper_registry;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
Usage: repro [OPTIONS]

Regenerates the paper's tables and figures as text + JSON artifacts.

Options:
  --paper          paper-methodology fidelity (default: quick)
  --out DIR        artifact directory (default: repro-out)
  --seed N         base seed (default: 2020)
  --jobs N         threads: concurrent jobs, and each job's sweep threads
                   and fleet shards (default: all cores; results are
                   byte-identical for any value)
  --only FILTER    run only jobs whose name or section contains FILTER
  --scenario FILE  register a scenario file (fiveg-scenario DSL) as an
                   extra job in section `scenario`; repeatable. Parse or
                   validation errors exit 2 with a file:line location
  --check DIR      diff the run's JSON artifacts and trace sidecars
                   against golden DIR and exit non-zero on any drift
  --bless DIR      write them to DIR as new goldens; one over 1 MiB is
                   pinned by its hash in DIR/json_hash.txt instead
  --bench          also write a benchmark report (BENCH_0004.json in the
                   artifact directory): per-job wall time, events
                   simulated, events/sec and all deterministic counters
  --bench-check FILE
                   compare this run's benchmark report against baseline
                   FILE (implies --bench): counter drift fails, >25%
                   events/sec regression only warns
  --trace[=MODE]   record a deterministic per-unit event trace; MODE is
                   `ring` (bounded flight recorder, the default) or
                   `full`. Writes {job}.trace.bin + {job}.trace.json
                   (+ .trace.spans.json) next to the artifacts; inspect
                   with the `trace` binary. Requires a target: --scenario
                   and/or --only
  --list           list registered jobs and exit
  -h, --help       show this help
";

struct Cli {
    fidelity: FidelityLevel,
    out: PathBuf,
    seed: u64,
    jobs: usize,
    only: Option<String>,
    scenarios: Vec<PathBuf>,
    check: Option<PathBuf>,
    bless: Option<PathBuf>,
    bench: bool,
    bench_check: Option<PathBuf>,
    trace: Option<fiveg_trace::TraceMode>,
    list: bool,
}

fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        fidelity: FidelityLevel::Quick,
        out: PathBuf::from("repro-out"),
        seed: 2020,
        jobs: default_jobs(),
        only: None,
        scenarios: Vec::new(),
        check: None,
        bless: None,
        bench: false,
        bench_check: None,
        trace: None,
        list: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--paper" => cli.fidelity = FidelityLevel::Paper,
            "--out" => cli.out = PathBuf::from(value("--out")?),
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--jobs" => {
                cli.jobs = value("--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
                if cli.jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--only" => cli.only = Some(value("--only")?.to_string()),
            "--scenario" => cli.scenarios.push(PathBuf::from(value("--scenario")?)),
            "--check" => cli.check = Some(PathBuf::from(value("--check")?)),
            "--bless" => cli.bless = Some(PathBuf::from(value("--bless")?)),
            "--bench" => cli.bench = true,
            "--bench-check" => {
                cli.bench = true;
                cli.bench_check = Some(PathBuf::from(value("--bench-check")?));
            }
            "--trace" => cli.trace = Some(fiveg_trace::TraceMode::Ring),
            "--list" => cli.list = true,
            "-h" | "--help" => return Err(String::new()),
            other => {
                if let Some(mode) = other.strip_prefix("--trace=") {
                    cli.trace = Some(match mode {
                        "full" => fiveg_trace::TraceMode::Full,
                        "ring" => fiveg_trace::TraceMode::Ring,
                        bad => {
                            return Err(format!(
                                "--trace: unknown mode `{bad}` (expected `full` or `ring`)"
                            ))
                        }
                    });
                } else {
                    return Err(format!("unknown flag `{other}`"));
                }
            }
        }
    }
    // Tracing the whole registry would record every experiment; require
    // an explicit target so a stray --trace can't turn a full repro run
    // into gigabytes of event rows.
    if cli.trace.is_some() && cli.scenarios.is_empty() && cli.only.is_none() {
        return Err("--trace requires a target: --scenario FILE and/or --only FILTER".into());
    }
    Ok(cli)
}

fn progress(ev: &JobEvent) {
    match ev {
        JobEvent::Started { name, rep } => {
            if *rep == 0 {
                eprintln!("        start  {name}");
            } else {
                eprintln!("        start  {name} (rep {rep})");
            }
        }
        JobEvent::Finished {
            name,
            rep,
            ok,
            error,
            attempts,
            wall_ms,
            done,
            total,
        } => {
            let status = if *ok { "ok    " } else { "FAILED" };
            let rep_tag = if *rep == 0 {
                String::new()
            } else {
                format!(" (rep {rep})")
            };
            let retry_tag = if *attempts > 1 {
                format!(", {attempts} attempts")
            } else {
                String::new()
            };
            eprintln!("[{done:>2}/{total}] {status} {name}{rep_tag}  {wall_ms} ms{retry_tag}");
            if let Some(e) = error {
                eprintln!("        error: {e}");
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}\n");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    // Validate paths before spending minutes on the run: a mistyped
    // golden directory or baseline file should fail like a bad flag.
    if let Some(dir) = &cli.check {
        if !dir.is_dir() {
            eprintln!(
                "error: --check: golden directory `{}` does not exist\n",
                dir.display()
            );
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    }
    if let Some(file) = &cli.bench_check {
        if !file.is_file() {
            eprintln!(
                "error: --bench-check: baseline file `{}` does not exist\n",
                file.display()
            );
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    }

    let mut registry = paper_registry();
    // Scenario-file jobs ride alongside the registry jobs: parse and
    // validate up front (a broken file fails like a bad flag), and
    // reject names colliding with registered jobs before the executor's
    // duplicate-name assert would turn it into a panic.
    for path in &cli.scenarios {
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: --scenario: reading {}: {e}\n", path.display());
                eprint!("{USAGE}");
                return ExitCode::from(2);
            }
        };
        let spec = match fiveg_core::scenario_dsl::parse_scenario(&src, &path.display().to_string())
        {
            Ok(spec) => spec,
            Err(e) => {
                eprintln!("error: --scenario: {e}\n");
                eprint!("{USAGE}");
                return ExitCode::from(2);
            }
        };
        if registry.jobs().iter().any(|j| j.name() == spec.name) {
            eprintln!(
                "error: --scenario: {}: scenario name `{}` collides with an already registered job\n",
                path.display(),
                spec.name
            );
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
        registry.register(fiveg_core::scenario_run::ScenarioJob::new(spec));
    }
    if cli.list {
        // `let _ =`: a closed pipe (`repro --list | head`) is fine.
        let mut out = std::io::stdout().lock();
        for (name, section, reps) in registry.describe() {
            if reps > 1 {
                let _ = writeln!(out, "{name:<14} {section}  ({reps} reps)");
            } else {
                let _ = writeln!(out, "{name:<14} {section}");
            }
        }
        return ExitCode::SUCCESS;
    }

    let mut cfg = RunConfig::new(cli.seed)
        .fidelity(cli.fidelity)
        .workers(cli.jobs);
    if let Some(f) = &cli.only {
        cfg = cfg.only(f.clone());
    }
    if let Some(mode) = cli.trace {
        cfg = cfg.trace(mode);
    }

    eprintln!(
        "fiveg repro — fidelity {}, seed {}, {} workers, output {}",
        cli.fidelity.name(),
        cli.seed,
        cfg.workers,
        cli.out.display()
    );

    let report = run(&registry, &cfg, &mut progress);
    if report.results.is_empty() {
        eprintln!(
            "error: no jobs matched{}",
            cli.only
                .as_deref()
                .map(|f| format!(" `{f}`"))
                .unwrap_or_default()
        );
        return ExitCode::from(2);
    }

    // The classic human-readable report, in deterministic job order.
    // Write errors (closed pipe) don't abort the run: artifacts and the
    // exit code still matter to whoever truncated our stdout.
    let mut stdout = std::io::stdout().lock();
    for r in &report.results {
        if let Some(out) = &r.output {
            let _ = writeln!(stdout, "{}", out.text);
        }
    }
    drop(stdout);

    match write_run(&cli.out, &report) {
        Ok(n) => eprintln!(
            "wrote {n} artifacts + manifest.json to {} in {:.1} s",
            cli.out.display(),
            report.wall.as_secs_f64()
        ),
        Err(e) => {
            eprintln!("error: writing artifacts to {}: {e}", cli.out.display());
            return ExitCode::from(2);
        }
    }

    if let Some(dir) = &cli.bless {
        match write_golden(dir, &report) {
            Ok(n) => eprintln!("blessed {n} golden artifacts in {}", dir.display()),
            Err(e) => {
                eprintln!("error: blessing goldens in {}: {e}", dir.display());
                return ExitCode::from(2);
            }
        }
    }

    let mut failed = report.failures() > 0;

    if cli.bench {
        let bench = BenchReport::from_run(&report);
        let path = cli.out.join(format!("BENCH_{BENCH_SCHEMA:04}.json"));
        if let Err(e) = std::fs::write(&path, bench.to_json()) {
            eprintln!("error: writing bench report to {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "wrote bench report ({} jobs, {} events) to {}",
            bench.jobs.len(),
            bench.totals.events,
            path.display()
        );
        if let Some(baseline) = &cli.bench_check {
            let baseline_json = match std::fs::read_to_string(baseline) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: reading baseline {}: {e}", baseline.display());
                    return ExitCode::from(2);
                }
            };
            match compare_to_baseline(&bench, &baseline_json) {
                Ok(cmp) => {
                    eprint!("{}", cmp.summary());
                    failed |= !cmp.ok();
                }
                Err(e) => {
                    eprintln!("error: baseline {}: {e}", baseline.display());
                    return ExitCode::from(2);
                }
            }
        }
    }

    if let Some(dir) = &cli.check {
        match check_run(dir, &report) {
            Ok(golden) => {
                eprint!("{}", golden.summary());
                failed |= !golden.ok();
            }
            Err(e) => {
                eprintln!("error: reading goldens in {}: {e}", dir.display());
                return ExitCode::from(2);
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
