#!/usr/bin/env bash
# Runs the ML-substrate test suites (matrix, dense layers/MLP, ResMADE,
# Transformer, the kernel differential suite, the int8 pack suites
# PackedDense*/QuantizedDense*, and the MSCN suites, including the pinned
# training hashes of mscn_test.cc) under ALL THREE kernel backends:
# ARECEL_ML_KERNEL=reference (the historical scalar loops), fast (SIMD,
# cache-blocked, fused — the default), and quant (int8 serving tier;
# identical to fast wherever no layer holds a pack). Any PR touching
# src/ml/ should pass this before relying on the full tier-1 gate; a test
# that passes under one backend and fails under another almost always means
# a hidden dependency on summation order (see the accumulation-order caveat
# in ml/kernels.h).
#
# On machines with AVX512-VNNI the quant sweep runs twice — once with the
# dpbusd accumulation and once with ARECEL_ML_VNNI=0 forcing the
# maddubs form — because the micro-dispatch between them is cached
# per-process and therefore cannot be swept from inside a test binary.
# The two runs must agree bit for bit (ml/kernels_avx512.cc).
#
# Last, the MSCN training pins run once more in a Release tree
# (<build dir>-release, configured on first use): Release (-O3) is what the
# repository benchmark builds, and it must train the same bits as the
# default RelWithDebInfo build (tests/CMakeLists.txt).
#
# Extra args are forwarded to ctest, e.g.:
#   scripts/run_ml_backend_tests.sh --verbose
#   ARECEL_BUILD_DIR=build-asan scripts/run_ml_backend_tests.sh
set -euo pipefail
cd "$(dirname "$0")/.."

build_dir="${ARECEL_BUILD_DIR:-build}"
if [ ! -d "$build_dir" ]; then
  cmake -S . -B "$build_dir" -DCMAKE_BUILD_TYPE=RelWithDebInfo
fi
cmake --build "$build_dir" -j "${ARECEL_BUILD_JOBS:-$(nproc)}"

suites='Matrix|DenseLayer|Mlp|SoftmaxRows|ResMade|Transformer|MlKernels|Packed|Quant|Mscn'
for backend in reference fast quant; do
  echo "== ARECEL_ML_KERNEL=$backend =="
  ARECEL_ML_KERNEL=$backend ctest --test-dir "$build_dir" \
    --output-on-failure -R "$suites" "$@"
done
if grep -q avx512_vnni /proc/cpuinfo 2>/dev/null; then
  echo "== ARECEL_ML_KERNEL=quant ARECEL_ML_VNNI=0 (maddubs fallback) =="
  ARECEL_ML_KERNEL=quant ARECEL_ML_VNNI=0 ctest --test-dir "$build_dir" \
    --output-on-failure -R "$suites" "$@"
fi
release_dir="${build_dir}-release"
echo "== Release tree $release_dir: MSCN training pins =="
if [ ! -d "$release_dir" ]; then
  cmake -S . -B "$release_dir" -DCMAKE_BUILD_TYPE=Release \
    -DARECEL_BUILD_BENCHMARKS=OFF -DARECEL_BUILD_EXAMPLES=OFF \
    -DARECEL_BUILD_TOOLS=OFF
fi
cmake --build "$release_dir" -j "${ARECEL_BUILD_JOBS:-$(nproc)}" \
  --target mscn_test
ctest --test-dir "$release_dir" --output-on-failure -R MscnTrainingPin "$@"
echo "ML suites pass under all kernel backends, and the MSCN pins in Release."
