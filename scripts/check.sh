#!/usr/bin/env bash
# One-stop correctness gate. Runs one stage per invocation:
#
#   scripts/check.sh build   # RelWithDebInfo + -Werror, full ctest,
#                            # then compile the perfbench harness
#   scripts/check.sh asan    # ASan+UBSan build, full ctest
#   scripts/check.sh tsan    # TSan build, full ctest
#   scripts/check.sh analyze # erec_analyze + headers + clang-tidy + self-test
#   scripts/check.sh tsan-stress # TSan repeat-run of the concurrency tests
#   scripts/check.sh smoke   # example, fig bench + serving stack telemetry
#   scripts/check.sh bench   # serving throughput sweep + benchdiff gate
#   scripts/check.sh kernels # kernel-backend sweep + benchdiff gate
#   scripts/check.sh sim     # simulator-core throughput + benchdiff gate
#   scripts/check.sh all     # every stage above, in order
#
# Each stage uses its own build tree (build-check-<stage>) so stages
# never poison each other's CMake cache. CI runs the same stages; see
# .github/workflows/ci.yml and scripts/ci.sh. When ccache is installed
# it is wired in as the compiler launcher automatically (CI installs
# it via ccache-action; locally it is optional).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"

# Belt-and-braces hang guard: per-test TIMEOUT properties exist in
# tests/CMakeLists.txt, but older build trees may predate them.
ctest_timeout=300

cmake_launcher_args=()
if command -v ccache >/dev/null 2>&1; then
    cmake_launcher_args+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

configure_build_test() {
    local tree="$1"
    shift
    cmake -B "$tree" -S "$repo_root" "${cmake_launcher_args[@]}" "$@"
    cmake --build "$tree" -j "$jobs"
    ctest --test-dir "$tree" --output-on-failure -j "$jobs" \
        --timeout "$ctest_timeout"
}

# The benchmark harness (perfbench/) compiles the library from ../src
# in its own CMake project, which no other stage builds: compile it
# (without running it) so a src/ change that breaks it fails here.
stage_build() {
    configure_build_test "$repo_root/build-check-release" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DELASTICREC_WERROR=ON
    local tree="$repo_root/build-check-perfbench"
    cmake -S "$repo_root/perfbench" -B "$tree" \
        "${cmake_launcher_args[@]}" -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build "$tree" -j "$jobs" --target perfbench
}

stage_asan() {
    configure_build_test "$repo_root/build-check-asan" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DELASTICREC_SANITIZE="address;undefined"
}

stage_tsan() {
    configure_build_test "$repo_root/build-check-tsan" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DELASTICREC_SANITIZE=thread
}

# Static-analysis gate: erec_analyze runs its four rule packs (lint,
# arch, hotpath, conc; DESIGN.md sections 9, 10 and 14) over all
# first-party code, the standalone_headers target compiles every
# src/elasticrec header on its own, and clang-tidy (when installed)
# checks src/. Then the analyzer is self-tested on a seeded tree with
# one violation per pack: it must exit 1 and report exactly the
# seeded findings, each rule at its file:line, so an unrelated finding
# can neither satisfy the test nor hide a seeded one — a gate that
# cannot fail is not a gate. Set ELASTICREC_ANALYZE_OUT to keep
# analyze.json (CI uploads it as the analyze-report artifact); by
# default a temp dir is used and removed.
stage_analyze() {
    local tree="$repo_root/build-check-release"
    cmake -B "$tree" -S "$repo_root" "${cmake_launcher_args[@]}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DELASTICREC_WERROR=ON
    cmake --build "$tree" -j "$jobs" \
        --target erec_analyze standalone_headers
    local out
    if [ -n "${ELASTICREC_ANALYZE_OUT:-}" ]; then
        out="$ELASTICREC_ANALYZE_OUT"
        mkdir -p "$out"
    else
        out="$(mktemp -d)"
        trap 'rm -rf "$out"' RETURN
    fi
    local config="$repo_root/tools/analyze/layers.conf"
    local analyze=("$tree/tools/analyze/erec_analyze"
        --root src --root tools --root bench --root tests
        --root examples --config "$config")
    (cd "$repo_root" && "${analyze[@]}" --format text)
    (cd "$repo_root" && "${analyze[@]}" --format json) \
        > "$out/analyze.json"
    "$repo_root/scripts/run_clang_tidy.sh" "$tree"

    # Seeded self-test, one violation per pack under the real layer
    # DAG: lint (a raw throw), arch (common including serving),
    # hotpath (a push_back two calls from a hot root) and conc (a
    # two-lock inversion, one order through a helper: one finding per
    # edge direction).
    local seed="$out/analyze-selftest"
    rm -rf "$seed"
    mkdir -p "$seed/src/elasticrec/common" \
        "$seed/src/elasticrec/serving" "$seed/src/elasticrec/cluster"
    cat > "$seed/src/elasticrec/common/hotpath.h" <<'SEED'
#pragma once
#define ERC_HOT_PATH
namespace erec {}
SEED
    cat > "$seed/src/elasticrec/common/seeded_up.h" <<'SEED'
#pragma once
#include "elasticrec/serving/seeded.h"
namespace erec {}
SEED
    cat > "$seed/src/elasticrec/serving/seeded.h" <<'SEED'
#pragma once
#include "elasticrec/common/hotpath.h"
namespace erec {
ERC_HOT_PATH
void serve(int n);
} // namespace erec
SEED
    cat > "$seed/src/elasticrec/serving/seeded.cc" <<'SEED'
#include "elasticrec/serving/seeded.h"
#include <vector>
namespace erec {
static std::vector<int> sink;
void helper(int n) { sink.push_back(n); }
void serve(int n) { helper(n); }
void cold() { throw 1; }
} // namespace erec
SEED
    cat > "$seed/src/elasticrec/cluster/inverted.cc" <<'SEED'
#include <mutex>
namespace erec {
std::mutex a_;
std::mutex b_;
void lockAB()
{
    std::lock_guard<std::mutex> ga(a_);
    std::lock_guard<std::mutex> gb(b_);
}
void lockA()
{
    std::lock_guard<std::mutex> ga(a_);
}
void lockBA()
{
    std::lock_guard<std::mutex> gb(b_);
    lockA();
}
} // namespace erec
SEED
    local expected=(
        "src/elasticrec/cluster/inverted.cc:7: [lock-order-inversion]"
        "src/elasticrec/cluster/inverted.cc:16: [lock-order-inversion]"
        "src/elasticrec/common/seeded_up.h:2: [layer-edge]"
        "src/elasticrec/serving/seeded.cc:5: [container-growth]"
        "src/elasticrec/serving/seeded.cc:7: [raw-throw]"
    )
    local rc=0
    (cd "$seed" && "$tree/tools/analyze/erec_analyze" --root src \
        --config "$config") > "$seed/report.txt" 2>&1 || rc=$?
    local found
    found="$(grep -cE '^(layers\.conf|[^ ]+:[0-9]+): \[' \
        "$seed/report.txt" || true)"
    local failure=""
    if [ "$rc" -ne 1 ]; then
        failure="expected exit 1 on the seeded tree, got $rc"
    elif [ "$found" -ne "${#expected[@]}" ]; then
        failure="expected ${#expected[@]} findings, got $found"
    fi
    local want
    for want in "${expected[@]}"; do
        if ! grep -qF "$want" "$seed/report.txt"; then
            failure="${failure:+$failure; }missing: $want"
        fi
    done
    if [ -n "$failure" ]; then
        echo "analyze self-test: $failure" >&2
        cat "$seed/report.txt" >&2
        exit 1
    fi
}

# Perf-regression gate: run the concurrent serving throughput sweep
# (quick mode, 1%-sampled causal tracing on) and compare its QPS per
# worker count against the checked-in conservative baseline with
# erec_benchdiff. Two exact gates ride along: allocs_per_query must
# stay 0 *with tracing on* (the flight recorder's rings are hot-path
# clean), and trace_overhead_pct — the traced-vs-untraced QPS delta —
# must stay at or below the 5% baseline ceiling. Then self-test the
# trace gate by inflating trace_overhead_pct in a copy of the current
# results: a gate that cannot fail is not a gate. Set
# ELASTICREC_BENCH_OUT to keep BENCH_serving.json (CI uploads it as an
# artifact); by default a temp dir is used and removed.
stage_bench() {
    local tree="$repo_root/build-check-release"
    cmake -B "$tree" -S "$repo_root" "${cmake_launcher_args[@]}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DELASTICREC_WERROR=ON
    cmake --build "$tree" -j "$jobs" \
        --target serving_throughput erec_benchdiff
    local out
    if [ -n "${ELASTICREC_BENCH_OUT:-}" ]; then
        out="$ELASTICREC_BENCH_OUT"
        mkdir -p "$out"
    else
        out="$(mktemp -d)"
        trap 'rm -rf "$out"' RETURN
    fi
    local benchdiff="$tree/tools/benchdiff/erec_benchdiff"
    "$tree/bench/serving_throughput" --quick --trace-sample 100 \
        --out "$out/BENCH_serving.json"
    "$benchdiff" \
        "$repo_root/bench/baselines/BENCH_serving.json" \
        "$out/BENCH_serving.json" --tolerance 15% \
        --metric-tolerance allocs_per_query=0 \
        --metric-tolerance trace_overhead_pct=0

    # Trace-gate self-test: rewrite the overhead of every sweep entry
    # to 3x the 5% baseline ceiling and assert the gate exits 1.
    sed 's/"trace_overhead_pct": [0-9.]*/"trace_overhead_pct": 15.0/' \
        "$out/BENCH_serving.json" > "$out/BENCH_serving_inflated.json"
    local rc=0
    "$benchdiff" \
        "$repo_root/bench/baselines/BENCH_serving.json" \
        "$out/BENCH_serving_inflated.json" --tolerance 15% \
        --metric-tolerance allocs_per_query=0 \
        --metric-tolerance trace_overhead_pct=0 \
        > "$out/benchdiff-inflated.txt" 2>&1 || rc=$?
    if [ "$rc" -ne 1 ]; then
        echo "bench self-test: expected exit 1 on inflated" \
            "trace_overhead_pct, got $rc" >&2
        cat "$out/benchdiff-inflated.txt" >&2
        exit 1
    fi
}

# Kernel-backend perf gate: run the per-backend gather-pool / GEMM
# sweep (quick mode) and compare the scalar points against the
# checked-in conservative baseline with erec_benchdiff, keyed on the
# "point" id and gating allocs_per_call at exactly zero. Then
# self-test the gate with a throttled run: a gate that cannot fail is
# not a gate. Set ELASTICREC_KERNELS_OUT to keep BENCH_kernels.json
# (CI uploads it as an artifact); by default a temp dir is used and
# removed.
stage_kernels() {
    local tree="$repo_root/build-check-release"
    cmake -B "$tree" -S "$repo_root" "${cmake_launcher_args[@]}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DELASTICREC_WERROR=ON
    cmake --build "$tree" -j "$jobs" \
        --target kernel_bench erec_benchdiff
    local out
    if [ -n "${ELASTICREC_KERNELS_OUT:-}" ]; then
        out="$ELASTICREC_KERNELS_OUT"
        mkdir -p "$out"
    else
        out="$(mktemp -d)"
        trap 'rm -rf "$out"' RETURN
    fi
    local benchdiff="$tree/tools/benchdiff/erec_benchdiff"
    "$tree/bench/kernel_bench" --json "$out/BENCH_kernels.json" --quick
    "$benchdiff" \
        "$repo_root/bench/baselines/BENCH_kernels.json" \
        "$out/BENCH_kernels.json" --key point --tolerance 40% \
        --metric-tolerance allocs_per_call=0

    # Throttled self-test: 500 us of sleep per rep dominates the
    # small-dim gather points (whose real work is tens of us), pinning
    # at least point 0 far below its baseline floor, so the gate must
    # exit 1 — proof the gate can actually fail.
    "$tree/bench/kernel_bench" --json "$out/BENCH_kernels_throttled.json" \
        --quick --throttle-us 500
    local rc=0
    "$benchdiff" \
        "$repo_root/bench/baselines/BENCH_kernels.json" \
        "$out/BENCH_kernels_throttled.json" --key point \
        --tolerance 40% --metric-tolerance allocs_per_call=0 \
        > "$out/benchdiff-throttled.txt" 2>&1 || rc=$?
    if [ "$rc" -ne 1 ]; then
        echo "kernels self-test: expected exit 1 on throttled run," \
            "got $rc" >&2
        cat "$out/benchdiff-throttled.txt" >&2
        exit 1
    fi
}

# Simulator-core perf gate: sim_throughput drives the discrete-event
# engine through the diurnal trace on both deployment plans and
# benchdiff compares simulated-queries-per-wall-second against
# bench/baselines/BENCH_sim.json, with allocs_per_query pinned at
# exactly zero (the gated query path must not heap-allocate; DESIGN.md
# section 13). Also self-tests the gate with a throttled run that must
# fail: a gate that cannot fail is not a gate. Set ELASTICREC_SIM_OUT
# to keep BENCH_sim.json (CI uploads it as an artifact); by default a
# temp dir is used and removed.
stage_sim() {
    local tree="$repo_root/build-check-release"
    cmake -B "$tree" -S "$repo_root" "${cmake_launcher_args[@]}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DELASTICREC_WERROR=ON
    cmake --build "$tree" -j "$jobs" \
        --target sim_throughput erec_benchdiff
    local out
    if [ -n "${ELASTICREC_SIM_OUT:-}" ]; then
        out="$ELASTICREC_SIM_OUT"
        mkdir -p "$out"
    else
        out="$(mktemp -d)"
        trap 'rm -rf "$out"' RETURN
    fi
    local benchdiff="$tree/tools/benchdiff/erec_benchdiff"
    "$tree/bench/sim_throughput" --quick --out "$out/BENCH_sim.json"
    "$benchdiff" \
        "$repo_root/bench/baselines/BENCH_sim.json" \
        "$out/BENCH_sim.json" --key point --tolerance 60% \
        --metric-tolerance allocs_per_query=0

    # Throttled self-test: 50 ms of sleep per simulated second turns
    # the ~32k sim-queries/s ElasticRec point into a few thousand —
    # far below the baseline floor on any machine — so the gate must
    # exit 1, proof it can actually fail.
    "$tree/bench/sim_throughput" --queries 50000 --throttle-us 50000 \
        --out "$out/BENCH_sim_throttled.json"
    local rc=0
    "$benchdiff" \
        "$repo_root/bench/baselines/BENCH_sim.json" \
        "$out/BENCH_sim_throttled.json" --key point \
        --tolerance 60% --metric-tolerance allocs_per_query=0 \
        > "$out/benchdiff-throttled.txt" 2>&1 || rc=$?
    if [ "$rc" -ne 1 ]; then
        echo "sim self-test: expected exit 1 on throttled run," \
            "got $rc" >&2
        cat "$out/benchdiff-throttled.txt" >&2
        exit 1
    fi
}

# Dynamic counterpart of the concurrency gate: rebuild the concurrency
# test subset under ThreadSanitizer and run it repeatedly
# (--repeat until-fail:3) with zero suppressions, so real interleaved
# executions back the lexical lock-graph model. Reuses the tsan stage's
# build tree.
stage_tsan_stress() {
    local tree="$repo_root/build-check-tsan"
    cmake -B "$tree" -S "$repo_root" "${cmake_launcher_args[@]}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DELASTICREC_SANITIZE=thread
    cmake --build "$tree" -j "$jobs" --target \
        batch_queue_test runtime_serving_test tracing_serving_test \
        alloc_tracker_test
    ctest --test-dir "$tree" --output-on-failure -j "$jobs" \
        --timeout "$ctest_timeout" \
        -R '^(batch_queue_test|runtime_serving_test|tracing_serving_test|alloc_tracker_test)$' \
        --repeat until-fail:3
}

# End-to-end smoke: run the quickstart example, the Figure 19 bench
# and the real serving stack (serving_throughput) with --metrics-out
# and causal tracing (--trace-sample 100 = every 100th query), then run
# erec_report once over the dump. It checks every emitted file
# (Prometheus text, trace/alert JSON lines against erec_trace/v3, the
# Perfetto export, and no trace/alert/Perfetto file without its .prom),
# renders the run report — stage sketches plus the critical-path table
# for the simulated and the real stack — and gates on the
# "lost-queries" alert: steady fig19 traffic must never lose a query.
# (The SLA-ratio and p95 alerts legitimately fire during fig19's
# traffic spike, so they don't gate.) Then self-test the checks on two
# corrupted copies of the dump, one Perfetto event line without its
# closing brace and one alert line with an unknown key: each must make
# erec_report exit 1 and name the broken file — a gate that cannot
# fail is not a gate. Set ELASTICREC_SMOKE_OUT to keep the telemetry +
# report (CI uploads it as an artifact, including the Perfetto trace
# for ui.perfetto.dev); by default a temp dir is used and removed.
stage_smoke() {
    local tree="$repo_root/build-check-release"
    cmake -B "$tree" -S "$repo_root" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DELASTICREC_WERROR=ON
    cmake --build "$tree" -j "$jobs" \
        --target quickstart fig19_dynamic_traffic serving_throughput \
        erec_report
    local out
    if [ -n "${ELASTICREC_SMOKE_OUT:-}" ]; then
        out="$ELASTICREC_SMOKE_OUT"
        mkdir -p "$out"
    else
        out="$(mktemp -d)"
        trap 'rm -rf "$out"' RETURN
    fi
    local report="$tree/tools/report/erec_report"
    "$tree/examples/quickstart" --metrics-out "$out"
    "$tree/bench/fig19_dynamic_traffic" --metrics-out "$out" \
        --trace-sample 100
    "$tree/bench/serving_throughput" --quick --trace-sample 100 \
        --metrics-out "$out" --out "$out/BENCH_serving.json"
    "$report" "$out" --fail-on-alert lost-queries | tee "$out/report.txt"

    local selftest
    selftest="$(mktemp -d)"
    smoke_selftest "$report" "$out" "$selftest/perfetto" \
        fig19_elasticrec_perfetto.json '2s/}(,?)$/\1/'
    smoke_selftest "$report" "$out" "$selftest/alerts" \
        fig19_elasticrec_alerts.jsonl '1s/^\{/{"extra":1,/'
    rm -rf "$selftest"
}

# smoke_selftest REPORT DUMP COPY FILE SED: copy the telemetry files of
# DUMP into COPY, corrupt COPY/FILE with the sed -E script SED, and
# require REPORT to exit 1 with FILE named on stderr.
smoke_selftest() {
    local report="$1" dump="$2" copy="$3" file="$4" script="$5"
    mkdir -p "$copy"
    cp "$dump"/*.prom "$dump"/*.jsonl "$dump"/*_perfetto.json "$copy"/
    sed -i -E "$script" "$copy/$file"
    local rc=0
    "$report" "$copy" > "$copy/report.txt" 2> "$copy/errors.txt" || rc=$?
    if cmp -s "$dump/$file" "$copy/$file"; then
        echo "smoke self-test: '$script' left $file unchanged" >&2
        exit 1
    fi
    if [ "$rc" -ne 1 ] || ! grep -qF "$file" "$copy/errors.txt"; then
        echo "smoke self-test: expected exit 1 naming $file, got $rc" >&2
        cat "$copy/errors.txt" >&2
        exit 1
    fi
}

stage="${1:-all}"
case "$stage" in
  build) stage_build ;;
  asan) stage_asan ;;
  tsan) stage_tsan ;;
  analyze) stage_analyze ;;
  tsan-stress) stage_tsan_stress ;;
  smoke) stage_smoke ;;
  bench) stage_bench ;;
  kernels) stage_kernels ;;
  sim) stage_sim ;;
  all)
    stage_build
    stage_asan
    stage_tsan
    stage_analyze
    stage_tsan_stress
    stage_smoke
    stage_bench
    stage_kernels
    stage_sim
    ;;
  *)
    echo "usage: check.sh [build|asan|tsan|analyze|tsan-stress|smoke|bench|kernels|sim|all]" >&2
    exit 2
    ;;
esac
echo "check.sh: stage '$stage' passed"
