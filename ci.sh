#!/usr/bin/env bash
# CI gate, in stages: formatting and lints across the whole workspace,
# build, tests, a golden-regression smoke, a benchmark perf gate and
# determinism checks across --jobs, the run's one thread count (workers,
# sweep threads and fleet shards). Each stage is timed; on failure the exit message
# names the stage that broke. Machine-readable per-stage timings land in
# target/ci-timings.json, and any stage that exceeds its committed
# budget (golden/ci-budget.json) prints a soft warning.
set -euo pipefail
cd "$(dirname "$0")"

REPRO=(cargo run --release -q -p fiveg-bench --bin repro --)
BASELINE=golden/bench-baseline.json
BUDGETS=golden/ci-budget.json

CURRENT_STAGE="(setup)"
STAGE_START=$SECONDS
STAGE_NAMES=()
STAGE_SECS=()
STAGE_STATUS=()

# Records the finished CURRENT_STAGE with the given status, and prints
# a soft warning when it ran over its committed per-stage budget or has
# none (the stage name is the budget's key, so a renamed stage shows up
# here instead of silently losing its budget).
finish_stage() {
  local status=$1 secs=$2
  STAGE_NAMES+=("$CURRENT_STAGE")
  STAGE_SECS+=("$secs")
  STAGE_STATUS+=("$status")
  if [[ -f "$BUDGETS" ]]; then
    local budget
    budget=$(sed -n "s|.*\"${CURRENT_STAGE}\": *\([0-9][0-9]*\).*|\1|p" "$BUDGETS" | head -1)
    if [[ -z "$budget" ]]; then
      echo "ci: WARNING stage '${CURRENT_STAGE}' has no budget in ${BUDGETS}" >&2
    elif [[ "$secs" -gt "$budget" ]]; then
      echo "ci: WARNING stage '${CURRENT_STAGE}' took ${secs}s, over its ${budget}s budget" >&2
    fi
  fi
}

stage() {
  local now=$SECONDS
  if [[ "$CURRENT_STAGE" != "(setup)" ]]; then
    finish_stage ok $((now - STAGE_START))
  fi
  CURRENT_STAGE="$1"
  STAGE_START=$now
  echo "== ${1} =="
}

# target/ci-timings.json: one row per stage (name, seconds, pass/fail),
# in the same `{}`-style JSON the repo's artifacts use.
write_timings() {
  mkdir -p target
  {
    printf '{\n  "schema": 1,\n  "stages": [\n'
    local i
    local last=$((${#STAGE_NAMES[@]} - 1))
    for i in "${!STAGE_NAMES[@]}"; do
      local sep=','
      [[ "$i" -eq "$last" ]] && sep=''
      printf '    {"name": "%s", "seconds": %s, "status": "%s"}%s\n' \
        "${STAGE_NAMES[$i]}" "${STAGE_SECS[$i]}" "${STAGE_STATUS[$i]}" "$sep"
    done
    printf '  ]\n}\n'
  } > target/ci-timings.json
}

on_exit() {
  local code=$?
  local now=$SECONDS
  if [[ $code -ne 0 ]]; then
    finish_stage failed $((now - STAGE_START))
  else
    finish_stage ok $((now - STAGE_START))
  fi
  write_timings
  echo "-- stage times --"
  local i
  for i in "${!STAGE_NAMES[@]}"; do
    printf '%4ss  %s\n' "${STAGE_SECS[$i]}" "${STAGE_NAMES[$i]}"
  done
  if [[ $code -ne 0 ]]; then
    echo "ci: FAILED in stage '${CURRENT_STAGE}' (exit ${code})" >&2
  else
    echo "ci: all green"
  fi
}
trap on_exit EXIT

# same_artifacts LABEL A B [GLOB...]: every file in A matching a GLOB
# (default *.json) must be byte-identical to its namesake in B. The
# manifest and the bench report embed wall times and are skipped; their
# deterministic parts go through same_fingerprints and --bench-check.
# Fails when a GLOB matches no file in A.
same_artifacts() {
  local label=$1 a=$2 b=$3
  shift 3
  (($#)) || set -- '*.json'
  local pat f name compared
  for pat in "$@"; do
    compared=0
    for f in "$a"/$pat; do
      [[ -e "$f" ]] || continue
      name=$(basename "$f")
      [[ "$name" == manifest.json || "$name" == BENCH_0003.json ]] && continue
      cmp "$f" "$b/$name" \
        || { echo "${label}: artifact $name differs between $a and $b" >&2; exit 1; }
      compared=$((compared + 1))
    done
    ((compared > 0)) || { echo "${label}: no $pat artifact in $a" >&2; exit 1; }
  done
}

# same_fingerprints LABEL A B KEY...: the manifest lines holding each
# KEY must be identical in A and B. Fails when A's manifest holds no
# fingerprint value for a KEY.
same_fingerprints() {
  local label=$1 a=$2 b=$3
  shift 3
  local key
  for key in "$@"; do
    grep -q "\"${key}\": \"" "$a/manifest.json" \
      || { echo "${label}: no ${key} fingerprint in $a/manifest.json" >&2; exit 1; }
    diff <(grep "\"${key}\"" "$a/manifest.json") <(grep "\"${key}\"" "$b/manifest.json") \
      || { echo "${label}: manifest ${key} fingerprints differ between $a and $b" >&2; exit 1; }
  done
}

# spans_chunks LABEL FILE MIN: the fleet artifact FILE must report more
# than (MIN-1)*64 UEs, i.e. span at least MIN 64-UE chunks, so a run at
# --jobs >= MIN really runs MIN UE shards.
spans_chunks() {
  local label=$1 file=$2 min=$3 ues
  ues=$(sed -n 's/^  "ues": \([0-9][0-9]*\),$/\1/p' "$file")
  if (( ${ues:-0} <= (min - 1) * 64 )); then
    echo "${label}: ${ues:-no} UEs in $file span fewer than ${min} 64-UE chunks" >&2
    exit 1
  fi
}

# vendor/ holds offline subsets of external crates and keeps upstream
# formatting; everything we author is held to rustfmt. Lint fixtures
# are deliberate hazard snippets, checked by the fiveg-lint fixture
# suite under cargo test rather than by rustfmt.
stage "rustfmt --check (workspace)"
find crates tests examples -name '*.rs' -not -path '*/fixtures/*' -print0 \
  | xargs -0 rustfmt --edition 2021 --check

# Determinism linter, before anything expensive: no S001 / S003 / F001
# / W001 finding and no malformed pragma. On failure fiveg-lint names the
# rule id with the most findings and the pragma to use.
stage "fiveg-lint --check (determinism invariants)"
cargo run --release -q -p fiveg-lint -- --check

# --all-targets lints test and example code too, as benchmark/check.sh
# does for the benchmark package. The one-line determinism rules are
# lints here: crates/clippy.toml (HashMap/HashSet, partial_cmp, wall
# clock, environment reads), unsafe_code = "forbid", and unwrap/expect/missing_docs at
# each lib root (DESIGN.md §7).
stage "cargo clippy --workspace --all-targets"
cargo clippy --release --workspace --all-targets -- -D warnings

stage "cargo build --release"
cargo build --release --workspace

# Debug-profile tests: [profile.test] keeps debug-assertions on, so the
# debug_assert! invariants in fiveg-phy / fiveg-simcore actually
# execute here (a --release test run would compile most of them out).
stage "cargo test (debug profile, debug_assert! active)"
cargo test -q --workspace

# Release-profile tests for the event kernel and the packet simulator:
# with debug_assert! compiled out, a past schedule is clamped instead of
# panicking, and only here do the clamp tests and the lane-fallback
# paths run as users build them. The clamp count reaches
# sim.events.clamped at two flush sites: NetSim::drop
# (crates/net/src/sim.rs) and ShardEngine::run (crates/simcore/src/shard.rs).
stage "cargo test --release (simcore + net, debug_assert! off)"
cargo test --release -q -p fiveg-simcore -p fiveg-net

# Opt-in (FIVEG_CI_MIRI=1): the shard kernel's unit tests under miri,
# which catches UB the type system can't — even with every crate at
# forbid(unsafe_code), the kernel leans on std sync primitives whose
# misuse (e.g. a racy Ordering) only miri models. Skips are clean and
# named so the stage never fails a container without a nightly+miri.
stage "miri: simcore shard kernel (opt-in)"
if [[ "${FIVEG_CI_MIRI:-0}" != "1" ]]; then
  echo "miri: skipped — set FIVEG_CI_MIRI=1 to opt in"
elif ! command -v rustup > /dev/null 2>&1; then
  echo "miri: skipped — no rustup on PATH (cannot select a nightly toolchain)"
elif ! rustup toolchain list 2> /dev/null | grep -q '^nightly'; then
  echo "miri: skipped — no nightly toolchain installed"
elif ! rustup component list --toolchain nightly --installed 2> /dev/null | grep -q '^miri'; then
  echo "miri: skipped — miri component not installed on the nightly toolchain"
else
  cargo +nightly miri test -p fiveg-simcore shard
fi

# Rustdoc as a hard gate: broken intra-doc links or malformed doc
# fragments are docs-rot the moment they land, and missing_docs only
# keeps its teeth if what's written actually renders.
stage "cargo doc --workspace --no-deps (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --release --workspace --no-deps -q

stage "cargo build --release --examples"
cargo build --release --workspace --examples

stage "golden smoke: repro --only table1 --check"
"${REPRO[@]}" --only table1 --out target/ci-repro-out --check golden/quick-s2020

# Committed scenario files must parse, validate and stay in canonical
# form (`scen fmt` is the formatter; drift here means someone edited a
# file by hand without re-running it).
stage "scenario files: scen check + fmt --check + expand"
SCEN_BIN=(cargo run --release -q -p fiveg-scenario --bin scen --)
"${SCEN_BIN[@]}" check golden/scenarios/*.json
"${SCEN_BIN[@]}" fmt --check golden/scenarios/*.json
# Family expansion: capture output so a failure names its cause, and
# assert the variant count (4 gnb_sites x 3 nr loads = 12) instead of
# discarding everything the tool printed.
rm -rf target/ci-scen-family
if ! "${SCEN_BIN[@]}" expand golden/scenarios/families/gnb-density.json \
    --out target/ci-scen-family > target/ci-scen-expand.log 2>&1; then
  echo "scen expand failed:" >&2
  cat target/ci-scen-expand.log >&2
  exit 1
fi
variants=$(find target/ci-scen-family -name '*.json' | wc -l)
if [[ "$variants" -ne 12 ]]; then
  echo "scen expand: expected 12 variants (4 gnb_sites x 3 nr loads), got ${variants}" >&2
  cat target/ci-scen-expand.log >&2
  exit 1
fi

# The scenario DSL end-to-end: the committed scenarios (including the
# fault-injection demo) must reproduce golden/scenario-s2020 at 8, 2
# and 1 workers (as many fleet shards, up to each fleet's chunk count),
# and the paper-equivalent survey scenario must be
# byte-identical to the registry's table1 golden.
stage "scenario golden: repro --scenario vs golden/scenario-s2020"
SCEN_JOBS=(--scenario golden/scenarios/paper-campus.json
           --scenario golden/scenarios/outage-demo.json
           --scenario golden/scenarios/flash-crowd.json
           --scenario golden/scenarios/diurnal-web.json
           --scenario golden/scenarios/night-sparse.json)
"${REPRO[@]}" "${SCEN_JOBS[@]}" --only scenario --jobs 8 \
  --out target/ci-scen-j8 --check golden/scenario-s2020 > /dev/null
"${REPRO[@]}" "${SCEN_JOBS[@]}" --only scenario --jobs 2 \
  --out target/ci-scen-j2 --check golden/scenario-s2020 > /dev/null
"${REPRO[@]}" "${SCEN_JOBS[@]}" --only scenario --jobs 1 \
  --out target/ci-scen-j1 --check golden/scenario-s2020 > /dev/null
cmp target/ci-scen-j8/paper_campus.json golden/quick-s2020/table1.json \
  || { echo "scenario: paper_campus.json differs from the table1 golden" >&2; exit 1; }

# Full quick campaign at 8 workers. Counter drift against the committed
# baseline fails the gate (including the phy.sample and shard.fleet.*
# microbench counters — the latter embed the sharded-vs-serial report
# identity); a >25 % events/sec drop only warns (wall time depends on
# the host).
stage "perf gate: repro --bench vs ${BASELINE}"
rm -rf target/ci-bench-j8 target/ci-bench-j1   # stale artifacts from older schemas
"${REPRO[@]}" --jobs 8 --out target/ci-bench-j8 --bench \
  --bench-check "${BASELINE}" > /dev/null

# Same campaign single-threaded — one worker, one sweep thread, one
# fleet shard: every artifact byte, every manifest fingerprint and
# every metrics counter must match the --jobs 8 run.
stage "determinism: --jobs 1 vs --jobs 8"
"${REPRO[@]}" --jobs 1 --out target/ci-bench-j1 --bench \
  --bench-check target/ci-bench-j8/BENCH_0003.json > /dev/null
same_artifacts "determinism (-j1 vs -j8)" target/ci-bench-j1 target/ci-bench-j8
same_fingerprints "determinism (-j1 vs -j8)" target/ci-bench-j1 target/ci-bench-j8 json_hash

# City smoke: the procedural dense-urban scenario exercises the whole
# city fast path end to end — generate_city, the tiled spatial index
# (3x3 tiles cross the 256-building auto-select threshold; the geo unit
# test indexed_queries_match_full_scan holds its queries to full scans),
# the SoA fleet columns and the incremental re-measurement cache. Its
# artifact must match golden/scenario-s2020 (so a fleet change that is
# wrong at every shard count fails too) and be byte-identical between
# --jobs 1 (one UE shard) and --jobs 8 (one shard per 64-UE chunk, so
# the fleet must span at least three). Counter identity for the city micros
# (city.sweep.100k, city.attach.*) rides the perf gate above.
stage "city smoke: dense-urban scenario (golden, --jobs 1 vs 8)"
rm -rf target/ci-city-j1 target/ci-city-j8
CITY_JOBS=(--scenario golden/scenarios/dense-urban-smoke.json)
"${REPRO[@]}" "${CITY_JOBS[@]}" --only scenario --jobs 1 --out target/ci-city-j1 \
  --check golden/scenario-s2020 > /dev/null
"${REPRO[@]}" "${CITY_JOBS[@]}" --only scenario --jobs 8 --out target/ci-city-j8 > /dev/null
spans_chunks "city smoke" target/ci-city-j1/dense_urban_smoke.json 3
same_artifacts "city smoke (--jobs 1 vs 8)" target/ci-city-j1 target/ci-city-j8
same_fingerprints "city smoke (--jobs 1 vs 8)" target/ci-city-j1 target/ci-city-j8 json_hash

# Trace determinism: the flight recorder's byte contract. A full-mode
# trace of the dense-urban smoke scenario (three UE shards at --jobs 8)
# must be byte-identical — binary
# columns, sidecar schema and manifest trace fingerprints — between
# --jobs 1 and --jobs 8, and `trace stats` must reconstruct at least
# one complete per-UE handoff timeline from it. Trace overhead and
# event/byte counts ride the perf gate above (trace.full / trace.ring
# micros).
stage "trace determinism: dense-urban-smoke --trace=full (--jobs 1 vs 8)"
rm -rf target/ci-trace-j1 target/ci-trace-j8
"${REPRO[@]}" "${CITY_JOBS[@]}" --only scenario --jobs 1 --trace=full \
  --out target/ci-trace-j1 > /dev/null
"${REPRO[@]}" "${CITY_JOBS[@]}" --only scenario --jobs 8 --trace=full \
  --out target/ci-trace-j8 > /dev/null
spans_chunks "trace determinism" target/ci-trace-j1/dense_urban_smoke.json 3
same_artifacts "trace determinism (--jobs 1 vs 8)" target/ci-trace-j1 target/ci-trace-j8 \
  '*.trace.bin' '*.trace.json'
same_fingerprints "trace determinism (--jobs 1 vs 8)" target/ci-trace-j1 target/ci-trace-j8 trace_hash
cargo run --release -q -p fiveg-trace --bin trace -- \
  stats target/ci-trace-j1/dense_urban_smoke.trace.bin > target/ci-trace-stats.txt
grep -q '\[complete\]' target/ci-trace-stats.txt \
  || { echo "trace determinism: stats reconstructs no complete handoff timeline" >&2;
       cat target/ci-trace-stats.txt >&2; exit 1; }

# The benchmark (BENCHMARK.json): build it with its own command and run
# every workload for 2 s at seed 2020. Its oracle is the only gate on
# the tiled-city coverage-sweep digests and on the phy.* counters of the
# sweep and the fleet round (benchmark/expected/seed-2020.json), so the
# last line of each run must report "correct":true and "failed":0.
stage "benchmark: every workload 2 s at seed 2020 (correct, failed 0)"
mapfile -t BENCH_CMD < <(python3 -c \
  'import json; print("\n".join(json.load(open("BENCHMARK.json"))["command"]))')
mapfile -t BENCH_WORKLOADS < <(python3 -c \
  'import json; print("\n".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
mkdir -p target
for w in "${BENCH_WORKLOADS[@]}"; do
  log="target/ci-benchmark-${w}.log"
  "${BENCH_CMD[@]}" --workload "$w" --seed 2020 --seconds 2 > "$log"
  last=$(tail -n 1 "$log")
  if [[ "$last" != *'"correct":true'* || "$last" != *'"failed":0,'* ]]; then
    echo "benchmark: workload $w failed its checks: $last" >&2
    exit 1
  fi
done
