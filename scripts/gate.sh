#!/usr/bin/env bash
# CI gate driver. Every determinism, regression and budget check is one
# named gate, so wiring a new family into ci.yml is a one-line step:
#
#   scripts/gate.sh <gate>
#
# Determinism gates (byte compare; writes the *_PR artifact). The sweep
# gates run built-in specs by name (pbesweep -spec <name>; see -list) and,
# when a compare fails, print the pbesweep -diff of the pair first:
#   bench-build    builds and tests the benchmark/ module, which the root
#                  go build ./... and go test ./... do not descend into
#   smoke-det      smoke matrix, workers 1 vs 3 vs 8      -> BENCH_PR.json
#   metro-det      metro slice, shards 1 vs 4             -> BENCH_METRO_PR.json
#   obs-det        metro slice, -obs vs plain             -> metro_obs.json
#   scorecard-det  robustness scorecard, workers 1 vs 8   -> BENCH_SCORECARD_PR.json
#   nation-det     nation slice, shards 1 vs 8            -> BENCH_NATION_PR.json
#   series-det     trajectory slice, workers 1 vs 8       -> BENCH_TRAJ_PR.json
#   report-det     pbereport figure, two renders + docs/, the pbesim
#                  Perfetto trace vs docs/, and pbesim -series - parsing
#                  as CSV                                 -> report_run.svg, trace_run.json
#
# Fuzz gate (no simulation):
#   fuzz-smoke     10 s of FuzzQuantizeRate (the ACK feedback quantizer),
#                  then 5 s each of FuzzEnvelopeChain (the fluid on/off
#                  chain), FuzzParseBench (the -benchdiff text input),
#                  FuzzDiff (the pbesweep -diff JSON input), FuzzUnpackDCI
#                  (the DCI codec's round trip), FuzzDecodeRegion (the
#                  PDCCH blind decoder on arbitrary symbols) and FuzzRing
#                  (sim.Ring against a plain-slice deque), beyond their
#                  committed seed corpora, which go test runs
#
# Surface gate (no simulation):
#   surface        every internal package, exported symbol and struct field
#                  has a user (scripts/surface, go/types-resolved, test
#                  packages included, examples/ never a user): a package
#                  needs an importer outside its own directory, an
#                  exported internal/ symbol a use and a struct field in a
#                  non-test internal/ file a read, each from non-test code
#                  or another directory's tests; x.f = append(x.f, ...)
#                  does not read x.f
#
# Regression gates (against the committed baselines):
#   micro-diff     every internal/sim bench, the metro and nation benches
#                  and the smoke sweep vs BENCH_micro_baseline.txt: B/op or
#                  allocs/op >10% fails, as does a benchmark on one
#                  side only (ns/op is not read)
#                  -> BENCH_MICRODIFF_PR.txt
#   baseline-ident cmp of the five *_PR.json artifacts above against their
#                  committed baselines: a PR that is not an announced
#                  behaviour fix must reproduce them byte for byte. On a
#                  mismatch it prints the pair's pbesweep -diff - every
#                  leaf that moved - then fails
#
# Timing budget:
#   budget         sum the wall-clock of every gate run so far and fail
#                  if the total exceeds GATE_BUDGET_SECONDS - a new slice
#                  cannot silently balloon CI.
#
# Every gate appends "<name> <seconds>" to gate_times.txt and a row to
# the GitHub job summary when $GITHUB_STEP_SUMMARY is set. The simulator
# runs on a virtual clock, so each gate's *results* are machine-
# independent; only these wall-clock numbers vary with the runner.
set -euo pipefail
cd "$(dirname "$0")/.."

TIMES_FILE="${GATE_TIMES_FILE:-gate_times.txt}"
# Committed total gate budget (seconds). Generous for a cold module cache
# on a shared runner; the per-gate rows in the job summary show where the
# time goes when this trips.
BUDGET_SECONDS="${GATE_BUDGET_SECONDS:-1200}"

sweep() { go run ./cmd/pbesweep "$@"; }

# same BASE CUR: byte-compare two sweep artifacts. cmp decides; on a
# mismatch the pbesweep -diff of the pair says which leaves moved.
same() {
  cmp "$1" "$2" && return
  sweep -diff "$1" "$2" || true
  return 1
}

# The one micro gate: every engine bench in internal/sim at the default
# benchtime, one iteration of each multi-second metro bench, of a 4 s
# nation run (its modeled tier must not hold its population) and of the
# 160-job smoke sweep on one worker (the allocation gate of the path users
# and CI run most), and ten of the ~60 ms metro smoke slice. B/op and
# allocs/op are deterministic per op, so they gate at 10% even on shared
# runners. ns/op is not read: on a 2-core runner it moves by a third
# between runs of one tree (ClusterWindowSync/workers=4), so it measures the
# runner, not the code (benchmark/ is the timing authority).
gate_micro_diff() {
  go test -bench . -benchmem -run '^$' ./internal/sim/ | tee BENCH_MICRODIFF_PR.txt
  go test -bench 'Metro[0-9]|Nation|SmokeSweep' -benchmem -benchtime 1x -run '^$' . | tee -a BENCH_MICRODIFF_PR.txt
  go test -bench 'MetroSmokeSlice' -benchmem -benchtime 10x -run '^$' . | tee -a BENCH_MICRODIFF_PR.txt
  sweep -benchdiff BENCH_micro_baseline.txt BENCH_MICRODIFF_PR.txt
}

# The benchmark is a module of its own (pbecc/benchmark, replace pbecc =>
# ../) importing pbecc/internal/...: a rename in internal/ breaks it
# without the root build noticing.
gate_bench_build() {
  go -C benchmark build ./...
  go -C benchmark test ./...
}

# A package that only an example imports (or nobody does), an exported
# symbol that only its own package's tests call, or a struct field that
# nothing reads, is surface with no user in the simulator, the other
# packages' tests or the tools: fail and name it.
gate_surface() {
  go run ./scripts/surface
}

# The feedback quantizer is the one decoder every ACK crosses, every
# fluid session's envelope is an on/off chain, the micro and diff gates
# stand on the two sweep parsers, the monitor's PDCCH path decodes
# whatever the control region holds, and every packet queue is a
# sim.Ring: fuzz the quantizer for 10 s and
# each of the others for 5 s past its seed corpus (a failing input lands
# in the package's testdata/fuzz/, to be committed with its fix).
gate_fuzz_smoke() {
  go test -run '^$' -fuzz '^FuzzQuantizeRate$' -fuzztime 10s ./internal/core
  go test -run '^$' -fuzz '^FuzzEnvelopeChain$' -fuzztime 5s ./internal/fluid
  go test -run '^$' -fuzz '^FuzzParseBench$' -fuzztime 5s ./internal/sweep
  go test -run '^$' -fuzz '^FuzzDiff$' -fuzztime 5s ./internal/sweep
  go test -run '^$' -fuzz '^FuzzUnpackDCI$' -fuzztime 5s ./internal/pdcch
  go test -run '^$' -fuzz '^FuzzDecodeRegion$' -fuzztime 5s ./internal/pdcch
  go test -run '^$' -fuzz '^FuzzRing$' -fuzztime 5s ./internal/sim
}

# Each sweep worker carries one arena from job to job (harness.Arena), so
# the worker count decides which jobs inherit which job's storage. An odd
# width reshuffles that pairing against 1 and 8: state leaking from one job
# into the next shows up as a byte difference.
gate_smoke_det() {
  sweep -spec smoke -workers 1 -out run1.json
  sweep -spec smoke -workers 3 -out run3.json
  sweep -spec smoke -workers 8 -out BENCH_PR.json
  same run1.json BENCH_PR.json
  same run1.json run3.json
}

gate_metro_det() {
  sweep -spec metro-smoke -shards 1 -out metro1.json
  sweep -spec metro-smoke -shards 4 -out BENCH_METRO_PR.json
  same metro1.json BENCH_METRO_PR.json
}

# Observability must never feed back into the simulation: the same slice
# with the metrics registry enabled has to reproduce the untraced bytes
# exactly. The snapshot lands in metro_obs.json.obs.json.
gate_obs_det() {
  sweep -spec metro-smoke -shards 4 -obs -out metro_obs.json
  same BENCH_METRO_PR.json metro_obs.json
}

gate_scorecard_det() {
  sweep -spec scorecard -scorecard -workers 1 -out score1.json
  sweep -spec scorecard -scorecard -workers 8 -out BENCH_SCORECARD_PR.json
  same score1.json BENCH_SCORECARD_PR.json
}

# The fluid tier's contract: 64k modeled cells / 1M+ users advanced by
# per-shard chunks must produce the same bytes at any parallel width.
gate_nation_det() {
  sweep -spec nation-smoke -shards 1 -out nation1.json
  sweep -spec nation-smoke -shards 8 -out BENCH_NATION_PR.json
  same nation1.json BENCH_NATION_PR.json
}

# The trajectory slice gates the series layer end to end: every row's
# convergence/tracking-lag/recovery fields are derived from the recorded
# series, so byte equality across worker widths proves the series merge
# order is deterministic. (Shard-width determinism of the raw series CSV
# is the TestSeriesByteIdenticalAcrossShards property test.)
gate_series_det() {
  sweep -spec traj -workers 1 -out traj1.json
  sweep -spec traj -workers 8 -out BENCH_TRAJ_PR.json
  same traj1.json BENCH_TRAJ_PR.json
}

# The report figure must be a pure function of the scenario: two renders
# byte-identical, and both identical to the committed docs/ example (a
# drifting example means the docs lie about what the code produces). The
# committed Perfetto trace example is held to the same rule. pbesim's CSV
# on stdout must stay pure CSV: every line has the header's 8 fields (the
# run summary goes to stderr).
gate_report_det() {
  go run ./cmd/pbereport -schemes pbe,cubic,pbertc -out report_run.svg -csv report_run.csv
  go run ./cmd/pbereport -schemes pbe,cubic,pbertc -out report_run2.svg
  cmp report_run.svg report_run2.svg
  cmp report_run.svg docs/report_steady.svg
  cmp report_run.csv docs/report_steady.csv
  go run ./cmd/pbesim -family steady -scheme pbe -series trace_run.json
  cmp trace_run.json docs/trace_steady_pbe.json
  go run ./cmd/pbesim -duration 1s -series - |
    awk -F, 'NF != 8 { bad++ } END { if (NR == 0 || bad) { print "pbesim -series -: " bad+0 " of " NR " lines are not 8-field CSV" > "/dev/stderr"; exit 1 } }'
}

# The sweep artifacts are virtual-time deterministic, so the committed
# baselines are reproducible byte for byte. Reuses the artifacts the
# determinism gates wrote - no extra simulation. A PR that changes
# behaviour on purpose regenerates the baselines in the same commit, which
# keeps this gate green and the change visible in the diff. Every pair is
# compared, so one failing run shows every baseline that moved.
gate_baseline_ident() {
  local rc=0 pr base
  while read -r pr base; do
    same "$base" "$pr" || rc=1
  done <<'EOF'
BENCH_PR.json BENCH_baseline.json
BENCH_METRO_PR.json BENCH_metro_baseline.json
BENCH_NATION_PR.json BENCH_nation_baseline.json
BENCH_SCORECARD_PR.json BENCH_scorecard_baseline.json
BENCH_TRAJ_PR.json BENCH_traj_baseline.json
EOF
  return "$rc"
}

gate_budget() {
  if [ ! -f "$TIMES_FILE" ]; then
    echo "gate budget: no $TIMES_FILE (no gates ran?)" >&2
    exit 1
  fi
  local total=0
  while read -r _name secs; do
    total=$((total + secs))
  done <"$TIMES_FILE"
  {
    echo "### Gate timing"
    echo ""
    echo "| gate | seconds |"
    echo "|---|---|"
    awk '{printf "| %s | %s |\n", $1, $2}' "$TIMES_FILE"
    echo "| **total** | **${total}** (budget ${BUDGET_SECONDS}) |"
  } | tee -a "${GITHUB_STEP_SUMMARY:-/dev/null}"
  if [ "$total" -gt "$BUDGET_SECONDS" ]; then
    echo "FAIL: total gate time ${total}s exceeds the ${BUDGET_SECONDS}s budget" >&2
    exit 1
  fi
}

main() {
  if [ $# -ne 1 ]; then
    echo "usage: scripts/gate.sh <gate>" >&2
    grep -o '^gate_[a-z_]*' "$0" | sed 's/^gate_/  /;s/_/-/g' | sort -u >&2
    exit 2
  fi
  local name=$1
  local fn=gate_${name//-/_}
  if ! declare -F "$fn" >/dev/null; then
    echo "unknown gate \"$name\"" >&2
    exit 2
  fi
  if [ "$name" = budget ]; then
    "$fn"
    return
  fi
  # A function called as "fn || ..." runs with errexit off, so a gate would
  # fail only on its last command; the subshell keeps errexit live and the
  # gate fails on the first command that does.
  local start end rc
  start=$(date +%s)
  set +e
  (
    set -e
    "$fn"
  )
  rc=$?
  set -e
  end=$(date +%s)
  echo "$name $((end - start))" >>"$TIMES_FILE"
  echo "gate $name: $((end - start))s (exit $rc)"
  return "$rc"
}

main "$@"
