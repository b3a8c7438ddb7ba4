#ifndef ARECEL_ML_KERNELS_H_
#define ARECEL_ML_KERNELS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "ml/matrix.h"

namespace arecel {

// Kernel backend for the ML substrate's compute-heavy paths (DESIGN.md §10).
//
//  * kReference — the original scalar i-k-j loops, kept verbatim (including
//    the `av == 0.0f` skip branches). Slow but simple: the numerical
//    baseline that the fast backend is differentially tested against
//    (tests/ml_kernels_test.cc) and the "reference_seconds" column of
//    bench_micro_ml / BENCH_ml.json.
//  * kFast — cache-blocked, branch-free kernels with SIMD inner loops
//    (AVX-512 or AVX2+FMA when the binary and CPU support them,
//    compiler-vectorized portable loops otherwise) plus fused
//    dense+bias+activation epilogues.
//  * kQuant — inference-only int8 serving tier. Identical to kFast for
//    every training/backward/matmul op; dense FORWARD calls through layers
//    that hold an int8 weight pack (ml/packed.h, built by
//    PackForInference) run symmetric per-column int8 compute with a fused
//    dequant epilogue instead of fp32. Layers without a pack — every
//    training path — stay fp32, so the tier is opt-in per estimator. The
//    other backends ignore packs: kFast always runs the unpacked kernels.
//
// Selection: `ARECEL_ML_KERNEL=reference|fast|quant` (default fast), read
// once on first use; SetMlKernelBackend / ScopedMlKernelBackend override it
// at runtime for tests and benches.
//
// Accumulation-order caveat: the reference and fast backends sum in
// different orders (FMA contraction, per-lane partial sums, register
// tiling), so outputs agree only to float rounding — tolerances are
// documented in tests/ml_kernels_test.cc. The quant backend is lossy by
// construction (int8 weights + 7-bit activations); its divergence is gated
// end-to-end with q-error budgets in bench_micro_ml, not float tolerances.
// Switching backends mid-training changes the trajectory the same way a
// different BLAS would; goldens are frozen against the fast backend.
enum class MlKernelBackend { kReference, kFast, kQuant };

// The active backend (env-derived until overridden). Exits with code 2 on
// an invalid ARECEL_ML_KERNEL value, mirroring ARECEL_FALLBACK validation.
MlKernelBackend ActiveMlKernelBackend();
void SetMlKernelBackend(MlKernelBackend backend);

// Parses "reference" / "fast" / "quant". Returns false on anything else.
bool ParseMlKernelBackend(const char* name, MlKernelBackend* out);

// Stable name of a backend ("reference" / "fast" / "quant"), for stats and
// bench headers.
const char* MlKernelBackendName(MlKernelBackend backend);

// ISA tag of the fast/quant path as resolved on this machine/binary:
// "avx512", "avx2-fma" or "portable". Independent of the active backend.
// Resolution prefers the widest tier the binary AND the CPU support;
// `ARECEL_ML_SIMD=avx512|avx2|portable` pins a tier (exit 2 if the named
// tier is not available — misconfigured pinning should be loud, matching
// ARECEL_ML_KERNEL validation).
const char* MlKernelSimdName();

// Re-points the fast/quant dispatch at a named tier ("portable", "avx2",
// "avx512"). Returns false — leaving dispatch unchanged — when that tier is
// not compiled in or the CPU lacks it. For tests/benches sweeping tiers.
bool SetMlKernelIsa(const char* name);

// Names of every tier available on this machine/binary, widest last.
std::vector<const char*> AvailableMlKernelIsas();

// Runtime CPUID summary of the SIMD features the kernels dispatch on, e.g.
// "avx2,fma,avx512f,avx512bw" (empty on non-x86). Recorded in BENCH_ml.json
// headers and ServerStats so cross-machine comparisons are interpretable.
std::string MlCpuFeatureFlags();

// RAII backend override for tests and benches.
class ScopedMlKernelBackend {
 public:
  explicit ScopedMlKernelBackend(MlKernelBackend backend)
      : saved_(ActiveMlKernelBackend()) {
    SetMlKernelBackend(backend);
  }
  ~ScopedMlKernelBackend() { SetMlKernelBackend(saved_); }
  ScopedMlKernelBackend(const ScopedMlKernelBackend&) = delete;
  ScopedMlKernelBackend& operator=(const ScopedMlKernelBackend&) = delete;

 private:
  MlKernelBackend saved_;
};

// RAII ISA-tier override for tests and benches sweeping the dispatch
// (e.g. the quant differential suite). If the named tier is
// unavailable, ok() is false and dispatch is left untouched.
class ScopedMlKernelIsa {
 public:
  explicit ScopedMlKernelIsa(const char* name) : saved_(MlKernelSimdName()) {
    ok_ = SetMlKernelIsa(name);
  }
  ~ScopedMlKernelIsa() {
    if (ok_) SetMlKernelIsa(saved_);
  }
  ScopedMlKernelIsa(const ScopedMlKernelIsa&) = delete;
  ScopedMlKernelIsa& operator=(const ScopedMlKernelIsa&) = delete;

  bool ok() const { return ok_; }

 private:
  const char* saved_;
  bool ok_ = false;
};

// ---------------------------------------------------------------------------
// Fused layer ops. All dispatch on ActiveMlKernelBackend(); the reference
// path reproduces the historical unfused sequence (separate matmul, bias
// broadcast, activation pass) so it stays a faithful numerical baseline.
// ---------------------------------------------------------------------------

// out = act(input * weights + bias). `bias` has length weights.cols() and
// may be null (treated as zero); `relu` selects the activation. The fast
// backend computes bias and activation in the matmul epilogue, writing out
// exactly once.
void DenseForward(const Matrix& input, const Matrix& weights,
                  const float* bias, bool relu, Matrix* out);

// Sliced head: out = input * weights[:, col_begin:col_begin+cols] +
// bias[col_begin:col_begin+cols]. `bias` points at the FULL bias vector
// (length weights.cols()) and may be null. Progressive sampling reads one
// column's logit segment per step; this keeps that step O(cols) without
// materializing the full output layer.
void DenseForwardSlice(const Matrix& input, const Matrix& weights,
                       const float* bias, size_t col_begin, size_t cols,
                       Matrix* out);

// Backward of out = act(input * W + bias): consumes dL/d(out), accumulates
// dW into `weight_grad` (shape W) and db into `bias_grad` (length
// W.cols()), and writes dL/d(input) to `input_grad` when non-null.
// `preact` is the cached pre-activation (ignored unless `relu`).
// `dz_scratch` avoids a per-call allocation for the masked gradient; it is
// only touched when `relu` is set. `input_grad` must not alias
// `output_grad`.
void DenseBackward(const Matrix& input, const Matrix& preact, bool relu,
                   const Matrix& output_grad, const Matrix& weights,
                   Matrix* weight_grad, float* bias_grad, Matrix* input_grad,
                   Matrix* dz_scratch);

// out += a^T * b without zeroing out first (gradient accumulation).
void MatMulATAccumulate(const Matrix& a, const Matrix& b, Matrix* out);

// Elementwise helpers shared by both backends (bit-exact either way).
void AddInPlace(Matrix* acc, const Matrix& x);   // acc += x.
void Relu(const Matrix& x, Matrix* out);         // out = max(x, 0); may alias.

// One Adam step over n parameters and their accumulated gradient: updates
// param and the moments m, v in place. `step` counts the updates of this
// parameter set from 1 (it sets the bias corrections). Runs the active
// tier's adam_update, which gives the same bits on every tier
// (ml/kernels_simd.h).
void AdamUpdate(float* param, const float* grad, float* m, float* v, size_t n,
                float learning_rate, int step);

}  // namespace arecel

#endif  // ARECEL_ML_KERNELS_H_
