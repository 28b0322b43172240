//! End-to-end and per-layer benchmark of the fiveg simulator.
//!
//! Every workload is a closed loop with one caller: it builds its input
//! (timed as set-up), then calls the simulator's public entry point for
//! one *round* of fixed work, waits for it, and repeats both until the
//! run's time is up. Rounds of one run build the same input from the
//! same seed, so every round must reproduce the first one's outputs
//! exactly; at the committed seed they must also match `expected/`.
//!
//! The untraced pass reports the end-to-end metrics. The traced pass
//! alternates untraced and traced rounds: traced rounds time the calls
//! into each layer from outside (spans kept in memory), and the pair
//! gives the tracing overhead.

pub mod campaign;
pub mod catalog;
pub mod fleet;
pub mod flows;
pub mod oracle;
pub mod stats;
pub mod sweep;
pub mod timed;

use catalog::{END_TO_END, PER_LAYER};
use oracle::Oracle;
use serde::Serialize;
use stats::{median, median_s, tail_quantile, LatencyHistogram};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// What one round of a workload produced.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Operations attempted: campaign jobs, flows, fleet runs or sweeps.
    pub ops: u64,
    /// Operations that reported an error.
    pub errors: u64,
    /// Work units completed (defined per workload in the README).
    pub work: f64,
    /// Output digest per operation.
    pub digests: BTreeMap<String, String>,
    /// Deterministic obs counters of the whole round.
    pub counters: BTreeMap<String, u64>,
    /// Deterministic obs counters per operation, where the workload
    /// checks them one by one (campaign jobs against the bench baseline).
    pub op_counters: BTreeMap<String, BTreeMap<String, u64>>,
}

/// In-memory spans and call timings of the traced pass.
#[derive(Debug, Default)]
pub struct Probe {
    /// Total time per span name.
    pub spans: BTreeMap<String, Duration>,
    /// Latency of each call across the workload's innermost boundary
    /// the benchmark can time from outside.
    pub calls: LatencyHistogram,
    /// Counts that go with the spans, summed over traced rounds.
    pub counts: BTreeMap<String, u64>,
    /// Values measured by legs outside the timed loop, by metric name.
    pub extras: BTreeMap<&'static str, f64>,
}

impl Probe {
    /// Adds `d` to span `name`.
    pub fn add(&mut self, name: &str, d: Duration) {
        *self.spans.entry(name.to_string()).or_default() += d;
    }

    /// Adds `n` to count `name`.
    pub fn count(&mut self, name: &str, n: u64) {
        *self.counts.entry(name.to_string()).or_default() += n;
    }

    fn span_s(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, Duration::as_secs_f64)
    }
}

/// Span names the workloads record and [`per_layer`] reads.
pub mod span {
    /// Campaign executor time outside the jobs it runs.
    pub const CAMPAIGN_SELF: &str = "campaign.self";
    /// Time inside campaign jobs; `job.<name>` splits it per job.
    pub const JOBS: &str = "core.jobs";
    /// Time inside `NetSim::run_until`, sender callbacks included.
    pub const NET_RUN: &str = "net.run_until";
    /// Time inside sender callbacks; `transport.cc.<alg>` splits it.
    pub const CC: &str = "transport.cc";
    /// Time inside `run_fleet_sharded`.
    pub const FLEET: &str = "core.fleet";
    /// Time inside `RadioEnv::measure_all_into`.
    pub const MEASURE: &str = "phy.measure";
}

/// A set-up input, ready to run rounds.
pub trait Workload {
    /// Runs one round; `probe` is given in traced rounds.
    fn round(&self, probe: Option<&mut Probe>) -> Round;

    /// Workload-specific checks of the first round (beyond round-to-round
    /// equality and `expected/`). Each returned note is one failed op.
    fn check(&self, _first: &Round, _oracle: &Oracle) -> Vec<String> {
        Vec::new()
    }

    /// Traced-pass legs run once after the timed loop, given the first
    /// round and the median untraced round wall. They record into
    /// `probe.extras` and return one note per failed op.
    fn extra_legs(&self, _first: &Round, _untraced_s: f64, _probe: &mut Probe) -> Vec<String> {
        Vec::new()
    }
}

/// Input sizes of every workload. [`Params::standard`] is what the
/// benchmark runs; tests pass smaller ones.
#[derive(Debug, Clone)]
pub struct Params {
    /// Registry jobs in one campaign round.
    pub campaign_jobs: Vec<&'static str>,
    /// Bulk flow lengths.
    pub flows: flows::FlowParams,
    /// Fleet scenario size.
    pub fleet: fleet::FleetParams,
    /// Coverage sweep size.
    pub sweep: sweep::SweepParams,
    /// Shortest set-up sample, seconds: a sample times as many set-ups
    /// as fill it, so a set-up of a few microseconds is timed over many
    /// calls, away from timer and scheduler noise.
    pub setup_batch_s: f64,
}

impl Params {
    /// The benchmark's inputs.
    pub fn standard() -> Params {
        Params {
            campaign_jobs: campaign::ROUND_JOBS.to_vec(),
            flows: flows::FlowParams {
                flow_ms: 1_500,
                handoff_ms: 3_000,
            },
            fleet: fleet::FleetParams {
                tiles: 3,
                ues_per_group: 512,
                duration_s: 300,
            },
            sweep: sweep::SweepParams {
                tiles: 5,
                grid_m: 12.0,
            },
            setup_batch_s: 0.1,
        }
    }
}

/// Builds workload `name`'s input from `seed`.
pub fn setup(name: &str, seed: u64, params: &Params) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "campaign-quick" => Box::new(campaign::Campaign::new(seed, &params.campaign_jobs)?),
        "bulk-flows" => Box::new(flows::Flows::new(seed, &params.flows)),
        "fleet-metro" => Box::new(fleet::Fleet::new(seed, &params.fleet)?),
        "coverage-sweep" => Box::new(sweep::Sweep::new(seed, &params.sweep)),
        _ => return Err(format!("unknown workload `{name}`")),
    })
}

/// The result of one benchmark run.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// Metrics in catalog order: `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// One line per failed check.
    pub notes: Vec<String>,
    /// Raw timings for the run's JSON record.
    pub detail: Detail,
}

/// Raw timings behind an [`Outcome`].
#[derive(Debug, Default, Serialize)]
pub struct Detail {
    /// Set-up time of every sample, seconds, one sample before each
    /// round; a sample averages a batch of set-ups lasting at least
    /// [`Params::setup_batch_s`].
    pub setup_s: Vec<f64>,
    /// Untraced round walls, seconds.
    pub rounds_s: Vec<f64>,
    /// Traced round walls, seconds (traced pass only).
    pub traced_rounds_s: Vec<f64>,
    /// Span totals, seconds (traced pass only).
    pub spans_s: BTreeMap<String, f64>,
    /// Boundary-call histogram as `(bucket midpoint ns, count)`.
    pub call_buckets: Vec<(u64, u64)>,
    /// The first round's deterministic counters.
    pub counters: BTreeMap<String, u64>,
}

/// One metric in the result line.
#[derive(Debug, Serialize)]
pub struct MetricValue {
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// The result line a run prints last.
#[derive(Debug, Serialize)]
pub struct ResultLine {
    /// Whether every op succeeded and every output matched its oracle.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// Every metric of the pass, by name.
    pub metrics: BTreeMap<String, MetricValue>,
}

impl Outcome {
    /// Whether every op succeeded and every output matched its oracle.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The run's result line.
    pub fn result_line(&self) -> ResultLine {
        ResultLine {
            correct: self.correct(),
            attempted: self.attempted,
            failed: self.failed,
            metrics: self
                .metrics
                .iter()
                .map(|&(name, value, unit)| {
                    let unit = unit.to_string();
                    (name.to_string(), MetricValue { value, unit })
                })
                .collect(),
        }
    }
}

/// Runs `f` and returns its result with its wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// Compares `round` with the reference outputs; one note per differing
/// op, plus one if the round's counters differ.
fn compare(
    what: &str,
    round: &Round,
    digests: &BTreeMap<String, String>,
    counters: &BTreeMap<String, u64>,
) -> Vec<String> {
    let mut notes = Vec::new();
    for (op, want) in digests {
        match round.digests.get(op) {
            Some(got) if got == want => {}
            Some(got) => notes.push(format!("{what}: {op} gave {got}, expected {want}")),
            None => notes.push(format!("{what}: {op} produced no output")),
        }
    }
    for op in round.digests.keys().filter(|op| !digests.contains_key(*op)) {
        notes.push(format!("{what}: unexpected op {op}"));
    }
    if &round.counters != counters {
        let keys: BTreeSet<&String> = counters.keys().chain(round.counters.keys()).collect();
        let diff: Vec<String> = keys
            .into_iter()
            .filter(|k| counters.get(*k) != round.counters.get(*k))
            .map(|k| format!("{k} {:?} -> {:?}", counters.get(k), round.counters.get(k)))
            .collect();
        notes.push(format!("{what}: counters differ: {}", diff.join(", ")));
    }
    notes
}

/// Peak resident set of this process, MB (`VmHWM`). Each run is its own
/// process, so this covers exactly one workload's set-up and rounds.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Takes one set-up sample into `input`: a batch of `batch` set-ups,
/// doubled until the batch lasts [`Params::setup_batch_s`]. Each set-up
/// replaces the input before it, which is freed first so memory holds
/// one copy; the freeing is timed with it. Returns the time of one
/// set-up.
fn setup_sample(
    name: &str,
    seed: u64,
    params: &Params,
    input: &mut Option<Box<dyn Workload>>,
    batch: &mut usize,
) -> Result<f64, String> {
    loop {
        let start = Instant::now();
        for _ in 0..*batch {
            drop(input.take());
            *input = Some(setup(name, seed, params)?);
        }
        let total = start.elapsed().as_secs_f64();
        if total >= params.setup_batch_s {
            return Ok(total / *batch as f64);
        }
        *batch *= 2;
    }
}

/// Runs workload `name` for `seconds` of rounds and checks its outputs.
pub fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    params: &Params,
    oracle: &Oracle,
) -> Result<Outcome, String> {
    let mut detail = Detail::default();
    let mut input = None;
    let mut batch = 1;
    let mut rounds = Vec::new();
    let mut traced_rounds = Vec::new();
    let mut probe = Probe::default();
    let start = Instant::now();
    // Every round runs on a fresh set-up, so set-up is sampled over the
    // same stretch of the run as the rounds: the host's speed drifts by
    // tens of percent within a minute.
    while rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let each = setup_sample(name, seed, params, &mut input, &mut batch)?;
        detail.setup_s.push(each);
        let Some(w) = input.as_deref() else {
            unreachable!("a set-up sample leaves an input")
        };
        rounds.push(timed(|| w.round(None)));
        if traced {
            traced_rounds.push(timed(|| w.round(Some(&mut probe))));
        }
    }
    let Some(w) = input else {
        unreachable!("the loop above sets up at least once")
    };
    let peak_rss = peak_rss_mb();

    let first = &rounds[0].0;
    let mut notes = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    for (i, (r, _)) in rounds.iter().chain(&traced_rounds).enumerate() {
        attempted += r.ops;
        failed += r.errors;
        if i > 0 {
            notes.extend(compare(
                &format!("round {i} vs round 0"),
                r,
                &first.digests,
                &first.counters,
            ));
        }
    }
    if let Some(exp) = &oracle.expected {
        notes.extend(compare(
            "round 0 vs expected",
            first,
            &exp.digests,
            &exp.counters,
        ));
    }
    notes.extend(w.check(first, oracle));

    detail.rounds_s = rounds.iter().map(|(_, d)| d.as_secs_f64()).collect();
    detail.counters = first.counters.clone();
    let untraced_s = median(&detail.rounds_s);
    if traced {
        notes.extend(w.extra_legs(first, untraced_s, &mut probe));
    }
    failed += notes.len() as u64;
    attempted += notes.len() as u64;

    let metrics = if traced {
        let walls: Vec<Duration> = traced_rounds.iter().map(|(_, d)| *d).collect();
        detail.traced_rounds_s = walls.iter().map(Duration::as_secs_f64).collect();
        detail.spans_s = probe
            .spans
            .iter()
            .map(|(k, d)| (k.clone(), d.as_secs_f64()))
            .collect();
        detail.call_buckets = probe.calls.buckets();
        let values = per_layer(&probe, first, &walls, untraced_s);
        PER_LAYER
            .iter()
            .map(|m| (m.name, values.get(m.name).copied().unwrap_or(0.0), m.unit))
            .collect()
    } else {
        let values = [
            first.work / untraced_s,
            median(&detail.setup_s),
            peak_rss.ok_or("cannot read VmHWM from /proc/self/status")?,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, v, m.unit))
            .collect()
    };
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        notes,
        detail,
    })
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Derives the per-layer metrics from the traced rounds' spans, the
/// first round's counters and the extra legs.
pub fn per_layer(
    probe: &Probe,
    first: &Round,
    traced_walls: &[Duration],
    untraced_s: f64,
) -> BTreeMap<&'static str, f64> {
    let wall: f64 = traced_walls.iter().map(Duration::as_secs_f64).sum();
    let rounds = traced_walls.len() as f64;
    let count = |k: &str| first.counters.get(k).copied().unwrap_or(0) as f64;
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();

    v.insert(
        "bench.trace_overhead_frac",
        ratio(median_s(traced_walls), untraced_s) - 1.0,
    );
    v.insert("boundary.call_ns.p50", probe.calls.quantile(0.5));
    v.insert(
        "boundary.call_ns.tail",
        probe.calls.quantile(tail_quantile(probe.calls.count())),
    );
    v.insert(
        "boundary.calls_per_round",
        ratio(probe.calls.count() as f64, rounds),
    );

    let cc = probe.span_s(span::CC);
    let jobs = probe.span_s(span::JOBS);
    let layers = [
        ("campaign.self_share", probe.span_s(span::CAMPAIGN_SELF)),
        ("core.jobs.self_share", jobs),
        ("net.self_share", probe.span_s(span::NET_RUN) - cc),
        ("transport.cc.self_share", cc),
        ("core.fleet.self_share", probe.span_s(span::FLEET)),
        ("phy.measure.self_share", probe.span_s(span::MEASURE)),
    ];
    let mut covered = 0.0;
    for (name, s) in layers {
        covered += s;
        v.insert(name, ratio(s, wall));
    }
    v.insert("bench.self_share", ratio(wall - covered, wall));

    let mut named_jobs = 0.0;
    for (job, metric) in campaign::JOB_SHARES {
        let s = probe.span_s(&format!("job.{job}"));
        named_jobs += s;
        v.insert(metric, ratio(s, jobs));
    }
    v.insert("campaign.job_share.other", ratio(jobs - named_jobs, jobs));
    for (label, metric) in flows::CC_SHARES {
        v.insert(
            metric,
            ratio(probe.span_s(&format!("{}.{label}", span::CC)), cc),
        );
    }
    for (group, metric) in flows::GROUPS {
        let events = probe.counts.get(&format!("sim.events.{group}"));
        v.insert(
            metric,
            ratio(
                probe.span_s(&format!("{}.{group}", span::NET_RUN)) * 1e9,
                events.copied().unwrap_or(0) as f64,
            ),
        );
    }

    for m in PER_LAYER.iter().filter(|m| m.unit == "count") {
        if first.counters.contains_key(m.name) {
            v.insert(m.name, count(m.name));
        }
    }
    v.insert(
        "sim.events_per_s",
        ratio(count("sim.events.executed") * rounds, wall),
    );
    let delivered = count("net.packets.delivered");
    v.insert(
        "net.delivered_frac",
        ratio(delivered, delivered + count("net.packets.dropped")),
    );
    let measured = count("phy.measure.samples");
    v.insert(
        "phy.rays_per_meas",
        ratio(count("phy.rays.traced"), measured),
    );
    v.insert(
        "phy.buildings_pruned_per_meas",
        ratio(count("phy.buildings.pruned"), measured),
    );
    let skipped = count("city.remeasure.skipped");
    v.insert(
        "fleet.remeasure_hit_frac",
        ratio(skipped, skipped + measured),
    );
    // Only the fleet has shard messages; its work unit is the UE-tick.
    v.insert(
        "shard.msgs_per_ue_tick",
        ratio(count("shard.msgs"), first.work),
    );
    for (k, x) in &probe.extras {
        v.insert(k, *x);
    }
    v
}
