#!/usr/bin/env bash
# CI gate, in stages: formatting and lints across the whole workspace,
# build, tests, then the byte contract: the golden scenarios and the
# full quick campaign at several --jobs values (the run's one thread
# count: workers, sweep threads and fleet shards), each held with
# `repro --check` to its committed goldens and, for the campaign, with
# `--bench-check` to the committed counter baseline. Every run is
# checked against the same committed bytes, so two runs that pass are
# byte-identical to each other too. Each stage is timed; on failure the
# exit message names the stage that broke. Machine-readable per-stage
# timings land in target/ci-timings.json, and any stage that exceeds its
# committed budget (golden/ci-budget.json) prints a soft warning.
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
# here instead of silently losing its budget; dead_budgets warns about
# the key it left behind).
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

# After a green run, which ran every stage: a soft warning for each
# budget key that names none of them (a deleted or renamed stage).
dead_budgets() {
  [[ -f "$BUDGETS" ]] || return 0
  local key name found
  while IFS= read -r key; do
    found=0
    for name in "${STAGE_NAMES[@]}"; do
      if [[ "$name" == "$key" ]]; then found=1; fi
    done
    if ((found == 0)); then
      echo "ci: WARNING budget '${key}' in ${BUDGETS} names no stage" >&2
    fi
  done < <(sed -n 's|^    "\(.*\)": *[0-9][0-9]*,\{0,1\}$|\1|p' "$BUDGETS")
}

on_exit() {
  local code=$?
  local now=$SECONDS
  if [[ $code -ne 0 ]]; then
    finish_stage failed $((now - STAGE_START))
  else
    finish_stage ok $((now - STAGE_START))
    dead_budgets
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
# formatting; everything we author is held to rustfmt.
stage "rustfmt --check (workspace)"
find crates tests examples -name '*.rs' -print0 | xargs -0 rustfmt --edition 2021 --check

# --all-targets lints test and example code too, as benchmark/check.sh
# does for the benchmark package. The determinism rules are lints here
# (DESIGN.md §7): crates/clippy.toml (HashMap/HashSet, partial_cmp, wall
# clock, environment reads, shared mutable state, debug-only asserts),
# unsafe_code = "forbid", reasons on every suppression, and
# unwrap/expect/missing_docs at each lib root. The layering DAG is tests/layering.rs.
stage "cargo clippy --workspace --all-targets"
cargo clippy --release --workspace --all-targets -- -D warnings

stage "cargo build --release"
cargo build --release --workspace

# Every invariant check under crates/ is an assert! that runs in every
# profile (clippy rejects the debug-only assert macros, U002), so one
# test profile covers what a release build does.
stage "cargo test --workspace"
cargo test -q --workspace

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

# The scenario DSL end-to-end: the committed scenarios (the
# fault-injection demo and the procedural dense-urban city included)
# must reproduce golden/scenario-s2020 at 8, 2 and 1 workers (as many
# fleet shards, up to each fleet's chunk count; the 192-UE city spans
# three). The city runs generate_city, the tiled spatial index, the SoA
# fleet columns and the incremental re-measurement cache end to end; the
# tiled-city sweep digest and counters and fleet-metro's
# city.remeasure.skipped are pinned by the benchmark stage below. The
# paper-equivalent survey scenario's golden must be the registry's
# table1 golden.
stage "scenario golden: repro --scenario vs golden/scenario-s2020"
CITY_JOBS=(--scenario golden/scenarios/dense-urban-smoke.json)
SCEN_JOBS=(--scenario golden/scenarios/paper-campus.json
           --scenario golden/scenarios/outage-demo.json
           --scenario golden/scenarios/flash-crowd.json
           --scenario golden/scenarios/diurnal-web.json
           --scenario golden/scenarios/night-sparse.json
           "${CITY_JOBS[@]}")
for j in 8 2 1; do
  "${REPRO[@]}" "${SCEN_JOBS[@]}" --only scenario --jobs "$j" \
    --out "target/ci-scen-j$j" --check golden/scenario-s2020 > /dev/null
done
cmp golden/scenario-s2020/paper_campus.json golden/quick-s2020/table1.json \
  || { echo "scenario: the paper_campus golden differs from the table1 golden" >&2; exit 1; }

# Full quick campaign at 8 workers and at 1 (one worker, one sweep
# thread, one fleet shard). Every artifact must match golden/quick-s2020
# (fig11's 23 MB artifact by its hash in json_hash.txt), and every job's
# counters the committed baseline; a >25 % events/sec drop only warns
# (wall time depends on the host). A drift names the job, byte offset
# and JSON key path. The sweep and fleet layers' counters are pinned by
# the benchmark stage below (coverage-sweep and fleet-metro in
# benchmark/expected/seed-2020.json).
stage "quick campaign: --jobs 8 and 1 vs golden/quick-s2020 and ${BASELINE}"
for j in 8 1; do
  rm -rf "target/ci-quick-j$j"
  "${REPRO[@]}" --jobs "$j" --out "target/ci-quick-j$j" \
    --bench-check "${BASELINE}" --check golden/quick-s2020 > /dev/null
done

# The flight recorder's byte contract: a full-mode trace of the
# dense-urban smoke scenario (three UE shards at --jobs 8) must match
# its golden sidecar at --jobs 1 and 8 (row count, per-kind counts and
# the binary's hash, so a dropped or added event fails), the fleet must
# span at least three 64-UE chunks, and `trace stats` must reconstruct
# at least one complete per-UE handoff timeline from the trace.
stage "trace: dense-urban-smoke --trace=full vs golden (--jobs 1 and 8)"
for j in 1 8; do
  rm -rf "target/ci-trace-j$j"
  "${REPRO[@]}" "${CITY_JOBS[@]}" --only scenario --jobs "$j" --trace=full \
    --out "target/ci-trace-j$j" --check golden/scenario-s2020 > /dev/null
done
spans_chunks "trace" target/ci-trace-j1/dense_urban_smoke.json 3
cargo run --release -q -p fiveg-trace --bin trace -- \
  stats target/ci-trace-j1/dense_urban_smoke.trace.bin > target/ci-trace-stats.txt
grep -q '\[complete\]' target/ci-trace-stats.txt \
  || { echo "trace: stats reconstructs no complete handoff timeline" >&2;
       cat target/ci-trace-stats.txt >&2; exit 1; }

# The benchmark package is a workspace of its own, so the stages above
# neither format, lint nor test it. Its check script does: rustfmt,
# clippy -D warnings over every target, and its tests (drift, smoke,
# stats, timed), all built against the crates' current API.
stage "benchmark/check.sh: rustfmt, clippy, tests of the benchmark package"
benchmark/check.sh

# The benchmark (BENCHMARK.json): build it with its own command and run
# every workload for 2 s at seed 2020. Its oracle is the only gate on
# the tiled-city coverage-sweep digests and on the phy.* counters of the
# sweep and the fleet round (benchmark/expected/seed-2020.json), so the
# last line of each run must report "correct":true and "failed":0, and
# campaign-quick's peak_rss_mb must stay under a 31 MB ceiling.
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
# The quick campaign's peak memory is set by fig11's 23 MB JSON string
# (about 28 MB peak), as fig11 holds only its loss bursts. A
# per-arrival vector held beside the string again (about 36 MB) fails.
python3 -c '
import json, sys
log, ceiling = sys.argv[1], float(sys.argv[2])
rss = json.loads(open(log).read().splitlines()[-1])["metrics"]["peak_rss_mb"]["value"]
if rss > ceiling:
    sys.exit(f"benchmark: campaign-quick peak_rss_mb {rss} MB is over its {ceiling} MB ceiling")
' target/ci-benchmark-campaign-quick.log 31
