#!/bin/sh
# Build the tree under a sanitizer and run tests against it. Uses a
# separate build directory so the regular build stays untouched.
#
#   tools/run_sanitized.sh [asan|tsan] [build-dir]
#
# asan (default): AddressSanitizer + UBSan (HJ_SANITIZE), full test
#   suite — matches the CI "sanitize" job.
# tsan: ThreadSanitizer (HJ_SANITIZE_THREAD), runs the concurrency-heavy
#   suites (recovery controller + live runs sharing caches with
#   verify_batch, the parallel engine tests, the plan-serve daemon's
#   bounded queue + reader/worker threads, concurrent callers of one
#   search provider, and the edge-path walks inside verify_batch checked
#   against the reference checker) at HJ_THREADS=4.
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
mode=asan
case "${1:-}" in
  asan|tsan) mode=$1; shift ;;
esac
build=${1:-"$repo/build-$mode"}

if [ "$mode" = tsan ]; then
  cmake -B "$build" -S "$repo" -DHJ_SANITIZE_THREAD=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$build" -j "$(nproc)" \
    --target test_recovery test_live test_storm test_determinism \
    test_planner test_bitword test_scaling test_hypersim test_store \
    test_search test_edge_path_walk test_reference_verify
  TSAN_OPTIONS=halt_on_error=1 HJ_THREADS=4 \
    ctest --test-dir "$build" --output-on-failure -j "$(nproc)" \
    -R 'Recovery|PlanBatch|LiveRun|LiveDeterminism|RunLive|Determinism|Planner|Storm|Bitword|Scaling|Network|Serve|BoundedQueue|SearchMemo|EdgePathWalk|ReferenceVerify'
else
  cmake -B "$build" -S "$repo" -DHJ_SANITIZE=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$build" -j "$(nproc)"
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir "$build" --output-on-failure -j "$(nproc)"
fi
