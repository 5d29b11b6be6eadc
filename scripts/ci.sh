#!/usr/bin/env bash
# Local CI matrix: the same gates .github/workflows/ci.yml runs,
# sequentially, stopping at the first failure. Use this when iterating
# without a GitHub runner.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"

echo "=== CI job 1/8: RelWithDebInfo + -Werror + ctest ==="
"$here/check.sh" build

echo "=== CI job 2/8: sanitizer matrix (ASan+UBSan, TSan) + ctest ==="
"$here/check.sh" asan
"$here/check.sh" tsan

echo "=== CI job 3/8: static analysis (erec_analyze + clang-tidy) ==="
"$here/check.sh" analyze

echo "=== CI job 4/8: TSan stress (concurrency test subset) ==="
"$here/check.sh" tsan-stress

echo "=== CI job 5/8: telemetry smoke ==="
"$here/check.sh" smoke

echo "=== CI job 6/8: serving throughput + perf gate ==="
"$here/check.sh" bench

echo "=== CI job 7/8: kernel-backend sweep + perf gate ==="
"$here/check.sh" kernels

echo "=== CI job 8/8: simulator-core throughput + perf gate ==="
"$here/check.sh" sim

echo "=== CI matrix green ==="
