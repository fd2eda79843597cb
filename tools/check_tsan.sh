#!/usr/bin/env bash
# Builds the tsan CMake preset and runs the tests that exercise the parallel
# code paths (pool build, shared CorrelationPlan, threaded k-means, on-demand
# cache, ParallelFor itself) under ThreadSanitizer.
#
# usage: tools/check_tsan.sh [extra ctest args...]
set -euo pipefail

cd "$(dirname "$0")/.."

cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)"

# The parallel surface; everything else is single-threaded and only slows
# the (10-20x overhead) sanitizer run down.
TSAN_TESTS='ParallelFor|ParallelSketch|SketcherDots|DefaultThreadCount|SketchPool|CorrelationPlan|OnDemand|KMeans|SketchBackend|Metrics|MetricsSnapshot|MetricsTicker|TraceRecorder|Audit|LruSketchCache|QueryEngine|Serve|Admission|Snapshot|CodeKernels|CodePool|Quant|Streaming|StreamServe|BuildSuccessor|Sparse'

TSAN_OPTIONS="halt_on_error=1" \
  ctest --test-dir build-tsan --output-on-failure \
        -R "${TSAN_TESTS}" "$@"

echo "tsan: all parallel tests clean"
