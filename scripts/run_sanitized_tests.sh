#!/usr/bin/env bash
# Builds a sanitizer preset and runs the test suite under it.
#
# ARECEL_SAN selects the sanitizer:
#   asan (default) — AddressSanitizer + UBSan over the whole suite.
#   tsan           — ThreadSanitizer, focused by default on the worker
#                    pool, the robustness suite (watchdog/guard) and the
#                    shared-scan engine (parallel block labeling); set
#                    ARECEL_SAN_ALL=1 for all tests.
#
# By default the `slow` label (full-registry training sweeps and the
# watchdog timeout tests) is excluded — sanitized NN training is painfully
# slow; set ARECEL_SAN_ALL=1 to include everything. The ASan run then adds
# the hostile-bytes cases of the slow model_io_test binary by name. Extra
# args are forwarded to ctest (and replace that second pass), e.g.:
#   scripts/run_sanitized_tests.sh -R conformance
#   ARECEL_SAN=tsan scripts/run_sanitized_tests.sh
set -euo pipefail
cd "$(dirname "$0")/.."

san="${ARECEL_SAN:-asan}"
case "$san" in
  asan) preset=asan-ubsan; build_dir=build-asan ;;
  tsan) preset=tsan;       build_dir=build-tsan ;;
  *) echo "unknown ARECEL_SAN='$san' (want asan or tsan)" >&2; exit 2 ;;
esac

cmake --preset "$preset"
cmake --build --preset "$preset" -j "${ARECEL_BUILD_JOBS:-$(nproc)}"

export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=0:abort_on_error=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
# The worker pool is never torn down and the guard deliberately abandons
# hung workers (leak-on-hang contract, src/robustness/guard.h); don't
# report those threads as leaks.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 report_thread_leaks=0}"

filter=()
if [ "${ARECEL_SAN_ALL:-0}" != "1" ]; then
  if [ "$san" = "tsan" ]; then
    # The concurrent code paths are the worker pool itself (Parallel:
    # nested and concurrent ParallelFor callers, slice exceptions), the
    # robustness machinery (guarded work on pool workers), the shared-scan
    # engine (ParallelForChunked block labeling with thread-local
    # accumulators, and the posting path's parallel slice refines: pool
    # workers share one column's sorted row ids read-only, each with its
    # own scratch; the ScanPosting suite), the serving layer
    # (single-flight loads, sharded cache, batched dispatch, background
    # refresh), and the ML kernels (parallel-over-rows matmul dispatch,
    # concurrent inference over shared weights); sweeping sanitized NN
    # training under TSan buys nothing. Include the slow watchdog timeout
    # tests — they are the reason this preset exists.
    # Packed|Quant: the PackedDense*/QuantizedDense* suites — the quant
    # serving path's thread_local activation scratch and
    # parallel-over-rows int8 dispatch (ml/kernels.cc).
    # Join: the join executor's ParallelFor batch labeling (CountBatch /
    # Label share each table's read-only code-count prefixes across
    # worker threads).
    # Scan also selects the code-path suites (ScanSynopsisTest,
    # ScanCodesTest): the table's code arrays and code-count prefixes read
    # concurrently by CountBatch workers, with relaxed-atomic ScanStats
    # merges. Dict: TableTest's dictionary-append case.
    # TableVersion: table versions sharing value segments, built while
    # other threads scan and sample their base. Serve also covers
    # ServeUpdateTest.ConcurrentUpdatesExtendEachOther (concurrent
    # ModelManager::ApplyUpdate calls on one dataset) and
    # ServeCacheConcurrencyTest (cache lookups under a shared lock racing
    # inserts, erasures and prefix invalidations).
    filter=(-R 'Parallel|Robust|Guard|Fault|Journal|Cancel|Scan|Serve|Ml|Feedback|Store|Maint|Packed|Quant|Join|Dict|TableVersion')
  else
    filter=(-LE slow)
  fi
fi
ctest --test-dir "$build_dir" --output-on-failure "${filter[@]}" "$@"

# Truncated, mutated, ragged and non-finite model payloads are what the
# sanitizers are for, but they live beside full-registry training in the
# slow model_io_test binary.
if [ "$san" = "asan" ] && [ "${ARECEL_SAN_ALL:-0}" != "1" ] && [ $# -eq 0 ]; then
  ctest --test-dir "$build_dir" --output-on-failure \
    -R 'ModelIoTest\.(Truncated|Mutated|Ragged|NonFinite)'
fi
