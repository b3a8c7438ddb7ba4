#include "ml/kernels.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "ml/kernels_simd.h"
#include "ml/packed.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace arecel {

namespace {

// Below this many multiply-adds, thread dispatch costs more than it saves.
// Bench-derived: BM_MatMul in bench_micro_ml puts the single-thread /
// ParallelForChunked crossover between the 128^3 (~2M madds) and 256^3
// (~16M madds) cells on multi-core hosts; 4M keeps the dense layers of the
// paper's models (batch 256-512, width 64-1024) single-threaded while the
// largest output-layer products still fan out. On single-worker hosts the
// pool runs inline, so the value is latency-neutral there.
constexpr size_t kParallelMaddsThreshold = 4u << 20;

// ---------------------------------------------------------------------------
// Backend selection.
// ---------------------------------------------------------------------------

std::atomic<int> g_backend{-1};  // -1 = not yet resolved from env.

[[noreturn]] void DieInvalidBackend(const char* value) {
  std::fprintf(stderr,
               "ARECEL_ML_KERNEL='%s' is not a kernel backend "
               "(want 'reference', 'fast' or 'quant')\n",
               value);
  std::exit(2);
}

[[noreturn]] void DieInvalidSimd(const char* value) {
  std::fprintf(stderr,
               "ARECEL_ML_SIMD='%s' is not an available SIMD tier on this "
               "machine/binary (want one of:",
               value);
  for (const char* name : AvailableMlKernelIsas())
    std::fprintf(stderr, " '%s'", name);
  std::fprintf(stderr, ")\n");
  std::exit(2);
}

// True when the running CPU can execute the AVX2+FMA / AVX-512 tiers. The
// build-time half of the check lives in the per-TU Avx*KernelOps() stubs.
bool CpuHasAvx2Fma() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool CpuHasAvx512() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw");
#else
  return false;
#endif
}

// ISA tier aliases accepted by ARECEL_ML_SIMD / SetMlKernelIsa. Returns
// nullptr when the named tier is unknown, not compiled in, or the CPU
// lacks it.
const mlk::KernelOps* OpsByName(const char* name) {
  if (std::strcmp(name, "portable") == 0) return &mlk::PortableKernelOps();
  if (std::strcmp(name, "avx2") == 0 || std::strcmp(name, "avx2-fma") == 0) {
    const mlk::KernelOps* ops = mlk::Avx2KernelOps();
    return (ops != nullptr && CpuHasAvx2Fma()) ? ops : nullptr;
  }
  if (std::strcmp(name, "avx512") == 0) {
    const mlk::KernelOps* ops = mlk::Avx512KernelOps();
    return (ops != nullptr && CpuHasAvx512()) ? ops : nullptr;
  }
  return nullptr;
}

const mlk::KernelOps* ResolveDefaultOps() {
  const char* env = std::getenv("ARECEL_ML_SIMD");
  if (env != nullptr && env[0] != '\0') {
    const mlk::KernelOps* ops = OpsByName(env);
    if (ops == nullptr) DieInvalidSimd(env);
    return ops;
  }
  // Widest tier the binary AND the CPU support wins.
  if (const mlk::KernelOps* ops = OpsByName("avx512")) return ops;
  if (const mlk::KernelOps* ops = OpsByName("avx2")) return ops;
  return &mlk::PortableKernelOps();
}

// nullptr = not yet resolved. Relaxed ordering suffices: every tier's table
// is a constant, and resolving twice is idempotent.
std::atomic<const mlk::KernelOps*> g_ops{nullptr};

}  // namespace

namespace mlk {

const KernelOps& ActiveKernelOps() {
  const KernelOps* ops = g_ops.load(std::memory_order_relaxed);
  if (ops == nullptr) {
    ops = ResolveDefaultOps();
    g_ops.store(ops, std::memory_order_relaxed);
  }
  return *ops;
}

}  // namespace mlk

bool SetMlKernelIsa(const char* name) {
  const mlk::KernelOps* ops = OpsByName(name);
  if (ops == nullptr) return false;
  g_ops.store(ops, std::memory_order_relaxed);
  return true;
}

std::vector<const char*> AvailableMlKernelIsas() {
  std::vector<const char*> names = {"portable"};
  if (OpsByName("avx2") != nullptr) names.push_back("avx2");
  if (OpsByName("avx512") != nullptr) names.push_back("avx512");
  return names;
}

std::string MlCpuFeatureFlags() {
  std::string flags;
#if defined(__x86_64__) || defined(__i386__)
  const auto append = [&flags](bool supported, const char* name) {
    if (!supported) return;
    if (!flags.empty()) flags += ',';
    flags += name;
  };
  append(__builtin_cpu_supports("avx2"), "avx2");
  append(__builtin_cpu_supports("fma"), "fma");
  append(__builtin_cpu_supports("avx512f"), "avx512f");
  append(__builtin_cpu_supports("avx512bw"), "avx512bw");
  // Not a dispatch tier of its own, but the quant kernels pick dpbusd
  // accumulation when present — bench headers need it to explain int8
  // throughput differences across machines.
  append(__builtin_cpu_supports("avx512vnni"), "avx512vnni");
#endif
  return flags;
}

bool ParseMlKernelBackend(const char* name, MlKernelBackend* out) {
  if (name == nullptr) return false;
  if (std::strcmp(name, "reference") == 0) {
    *out = MlKernelBackend::kReference;
    return true;
  }
  if (std::strcmp(name, "fast") == 0) {
    *out = MlKernelBackend::kFast;
    return true;
  }
  if (std::strcmp(name, "quant") == 0) {
    *out = MlKernelBackend::kQuant;
    return true;
  }
  return false;
}

const char* MlKernelBackendName(MlKernelBackend backend) {
  switch (backend) {
    case MlKernelBackend::kReference: return "reference";
    case MlKernelBackend::kFast: return "fast";
    case MlKernelBackend::kQuant: return "quant";
  }
  return "unknown";
}

MlKernelBackend ActiveMlKernelBackend() {
  int backend = g_backend.load(std::memory_order_relaxed);
  if (backend < 0) {
    MlKernelBackend parsed = MlKernelBackend::kFast;
    const char* env = std::getenv("ARECEL_ML_KERNEL");
    if (env != nullptr && env[0] != '\0' && !ParseMlKernelBackend(env, &parsed))
      DieInvalidBackend(env);
    backend = static_cast<int>(parsed);
    g_backend.store(backend, std::memory_order_relaxed);
  }
  return static_cast<MlKernelBackend>(backend);
}

void SetMlKernelBackend(MlKernelBackend backend) {
  g_backend.store(static_cast<int>(backend), std::memory_order_relaxed);
}

const char* MlKernelSimdName() { return mlk::ActiveKernelOps().name; }

// ---------------------------------------------------------------------------
// Portable fast kernels: branch-free blocked loops the compiler can
// auto-vectorize at the baseline ISA. Same contracts as the AVX2 table.
// ---------------------------------------------------------------------------

namespace mlk {
namespace {

void DenseRowsPortable(const float* a, size_t lda, const float* b, size_t ldb,
                       const float* bias, bool relu, float* out, size_t ldo,
                       size_t i_lo, size_t i_hi, size_t k, size_t n) {
  for (size_t i = i_lo; i < i_hi; ++i) {
    float* out_row = out + i * ldo;
    if (bias != nullptr) {
      std::memcpy(out_row, bias, n * sizeof(float));
    } else {
      std::memset(out_row, 0, n * sizeof(float));
    }
    const float* a_row = a + i * lda;
    for (size_t kk = 0; kk < k; ++kk) {
      const float av = a_row[kk];
      const float* b_row = b + kk * ldb;
      for (size_t j = 0; j < n; ++j) out_row[j] += av * b_row[j];
    }
    if (relu) {
      for (size_t j = 0; j < n; ++j)
        out_row[j] = out_row[j] < 0.0f ? 0.0f : out_row[j];
    }
  }
}

void DotRowsPortable(const float* a, size_t lda, const float* b, size_t ldb,
                     float* out, size_t ldo, size_t i_lo, size_t i_hi,
                     size_t k, size_t n) {
  for (size_t i = i_lo; i < i_hi; ++i) {
    const float* a_row = a + i * lda;
    float* out_row = out + i * ldo;
    for (size_t j = 0; j < n; ++j) {
      const float* b_row = b + j * ldb;
      float acc = 0.0f;
      for (size_t kk = 0; kk < k; ++kk) acc += a_row[kk] * b_row[kk];
      out_row[j] = acc;
    }
  }
}

void AccumOuterPortable(const float* a, size_t lda, const float* b,
                        size_t ldb, float* out, size_t ldo, size_t k_lo,
                        size_t k_hi, size_t m, size_t n) {
  for (size_t kk = k_lo; kk < k_hi; ++kk) {
    const float* a_row = a + kk * lda;
    const float* b_row = b + kk * ldb;
    for (size_t i = 0; i < m; ++i) {
      const float av = a_row[i];
      float* out_row = out + i * ldo;
      for (size_t j = 0; j < n; ++j) out_row[j] += av * b_row[j];
    }
  }
}

void AdamUpdatePortable(float* param, const float* grad, float* m, float* v,
                        size_t n, float lr, float c1, float c2) {
  for (size_t i = 0; i < n; ++i) {
    const float g = grad[i];
    m[i] = Rounded(kAdamBeta1 * m[i]) + Rounded((1.0f - kAdamBeta1) * g);
    v[i] = Rounded(kAdamBeta2 * v[i]) + Rounded((1.0f - kAdamBeta2) * g * g);
    const float m_hat = m[i] / c1;
    const float v_hat = v[i] / c2;
    param[i] -= lr * m_hat / (std::sqrt(v_hat) + kAdamEps);
  }
}

void QuantDenseRowsPortable(const uint8_t* aq, size_t lda_q,
                            const float* a_scales, const int32_t* a_zps,
                            const int8_t* bq, size_t k_pad, size_t n_pad,
                            const float* w_scales, const int32_t* w_col_sums,
                            const float* bias, bool relu, float* out,
                            size_t ldo, size_t i_lo, size_t i_hi,
                            size_t col_begin, size_t cols) {
  (void)n_pad;
  const size_t col_end = col_begin + cols;
  const size_t t0 = col_begin / kPackTileCols;
  for (size_t i = i_lo; i < i_hi; ++i) {
    const uint8_t* a_row = aq + i * lda_q;
    float* out_row = out + i * ldo;
    for (size_t t = t0; t * kPackTileCols < col_end; ++t) {
      const int8_t* tp = bq + t * kPackTileCols * k_pad;
      const size_t jbase = t * kPackTileCols;
      int32_t acc[kPackTileCols] = {0};
      for (size_t kg = 0; kg < k_pad; kg += kQuantKGroup) {
        const int8_t* group = tp + kg * kPackTileCols;
        for (size_t c = 0; c < kPackTileCols; ++c) {
          const int8_t* wb = group + c * kQuantKGroup;
          int32_t sum = 0;
          for (size_t u = 0; u < kQuantKGroup; ++u)
            sum += static_cast<int32_t>(a_row[kg + u]) *
                   static_cast<int32_t>(wb[u]);
          acc[c] += sum;
        }
      }
      const size_t c_lo = jbase < col_begin ? col_begin - jbase : 0;
      const size_t c_hi =
          col_end - jbase < kPackTileCols ? col_end - jbase : kPackTileCols;
      for (size_t c = c_lo; c < c_hi; ++c) {
        const size_t j = jbase + c;
        out_row[j - col_begin] =
            QuantEpilogue(acc[c], a_zps[i], w_col_sums[j], a_scales[i],
                          w_scales[j], bias != nullptr ? bias[j] : 0.0f, relu);
      }
    }
  }
}

constexpr KernelOps kPortableOps = {
    DenseRowsPortable,
    DotRowsPortable,
    AccumOuterPortable,
    QuantDenseRowsPortable,
    // Defined in ml/packed.cc, whose compile flags let the range reduction
    // auto-vectorize at the baseline ISA.
    QuantizeRowsPortable,
    AdamUpdatePortable,
    "portable",
};

}  // namespace

const KernelOps& PortableKernelOps() { return kPortableOps; }

}  // namespace mlk

// ---------------------------------------------------------------------------
// Reference backend: the original scalar i-k-j loops, retained verbatim —
// including the `av == 0.0f` skip branches, which help on the sparse 0/1
// encodings but pessimize dense inputs (the branch is unpredictable and
// blocks vectorization). Differential tests and BENCH_ml.json measure the
// fast backend against exactly this code.
// ---------------------------------------------------------------------------

namespace {
namespace reference {

void MatMulRows(const Matrix& a, const Matrix& b, Matrix* out, size_t lo,
                size_t hi) {
  const size_t k = a.cols(), n = b.cols();
  for (size_t i = lo; i < hi; ++i) {
    float* out_row = out->Row(i);
    const float* a_row = a.Row(i);
    for (size_t kk = 0; kk < k; ++kk) {
      const float av = a_row[kk];
      if (av == 0.0f) continue;
      const float* b_row = b.Row(kk);
      for (size_t j = 0; j < n; ++j) out_row[j] += av * b_row[j];
    }
  }
}

void MatMulBTRows(const Matrix& a, const Matrix& b, Matrix* out, size_t lo,
                  size_t hi) {
  const size_t k = a.cols(), n = b.rows();
  for (size_t i = lo; i < hi; ++i) {
    const float* a_row = a.Row(i);
    float* out_row = out->Row(i);
    for (size_t j = 0; j < n; ++j) {
      const float* b_row = b.Row(j);
      float acc = 0.0f;
      for (size_t kk = 0; kk < k; ++kk) acc += a_row[kk] * b_row[kk];
      out_row[j] = acc;
    }
  }
}

void MatMulATAccum(const Matrix& a, const Matrix& b, Matrix* dst, size_t lo,
                   size_t hi) {
  const size_t m = a.cols(), n = b.cols();
  for (size_t kk = lo; kk < hi; ++kk) {
    const float* a_row = a.Row(kk);
    const float* b_row = b.Row(kk);
    for (size_t i = 0; i < m; ++i) {
      const float av = a_row[i];
      if (av == 0.0f) continue;
      float* out_row = dst->Row(i);
      for (size_t j = 0; j < n; ++j) out_row[j] += av * b_row[j];
    }
  }
}

}  // namespace reference

// Shared parallel-over-shared-dimension reduction for the A^T*B family:
// thread-local partials, summed into `out` afterwards. `accum(dst, lo, hi)`
// must add the contribution of shared rows [lo, hi) into dst.
template <typename Accum>
void AccumulateOverSharedDim(size_t k, size_t m, size_t n, Matrix* out,
                             const Accum& accum) {
  if (k * m * n < kParallelMaddsThreshold) {
    accum(out, 0, k);
    return;
  }
  const int workers = ParallelWorkerCount();
  std::vector<Matrix> partials(static_cast<size_t>(workers),
                               Matrix(m, n, 0.0f));
  const size_t chunk =
      (k + static_cast<size_t>(workers) - 1) / static_cast<size_t>(workers);
  ParallelFor(0, static_cast<size_t>(workers), [&](size_t w) {
    const size_t lo = w * chunk;
    const size_t hi = lo + chunk < k ? lo + chunk : k;
    if (lo < hi) accum(&partials[w], lo, hi);
  });
  for (const Matrix& partial : partials) AddInPlace(out, partial);
}

// Row-parallel dispatch helper for the fast backend.
template <typename Rows>
void RunRows(size_t m, size_t k, size_t n, const Rows& rows) {
  if (m * k * n >= kParallelMaddsThreshold) {
    ParallelForChunked(0, m, rows);
  } else {
    rows(0, m);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public matmul entry points (declared in ml/matrix.h).
// ---------------------------------------------------------------------------

void MatMul(const Matrix& a, const Matrix& b, Matrix* out) {
  ARECEL_CHECK(a.cols() == b.rows());
  out->Resize(a.rows(), b.cols());
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  if (ActiveMlKernelBackend() == MlKernelBackend::kReference) {
    out->Fill(0.0f);
    RunRows(m, k, n, [&](size_t lo, size_t hi) {
      reference::MatMulRows(a, b, out, lo, hi);
    });
    return;
  }
  const mlk::KernelOps& ops = mlk::ActiveKernelOps();
  RunRows(m, k, n, [&](size_t lo, size_t hi) {
    ops.dense_rows(a.data(), k, b.data(), n, /*bias=*/nullptr,
                   /*relu=*/false, out->data(), n, lo, hi, k, n);
  });
}

void MatMulBT(const Matrix& a, const Matrix& b, Matrix* out) {
  ARECEL_CHECK(a.cols() == b.cols());
  const size_t m = a.rows(), k = a.cols(), n = b.rows();
  out->Resize(m, n);
  if (ActiveMlKernelBackend() == MlKernelBackend::kReference) {
    RunRows(m, k, n, [&](size_t lo, size_t hi) {
      reference::MatMulBTRows(a, b, out, lo, hi);
    });
    return;
  }
  const mlk::KernelOps& ops = mlk::ActiveKernelOps();
  RunRows(m, k, n, [&](size_t lo, size_t hi) {
    ops.dot_rows(a.data(), k, b.data(), k, out->data(), n, lo, hi, k, n);
  });
}

void MatMulAT(const Matrix& a, const Matrix& b, Matrix* out) {
  ARECEL_CHECK(a.rows() == b.rows());
  out->Resize(a.cols(), b.cols());
  out->Fill(0.0f);
  MatMulATAccumulate(a, b, out);
}

void MatMulATAccumulate(const Matrix& a, const Matrix& b, Matrix* out) {
  ARECEL_CHECK(a.rows() == b.rows());
  ARECEL_CHECK(out->rows() == a.cols() && out->cols() == b.cols());
  const size_t k = a.rows(), m = a.cols(), n = b.cols();
  if (ActiveMlKernelBackend() == MlKernelBackend::kReference) {
    AccumulateOverSharedDim(k, m, n, out,
                            [&](Matrix* dst, size_t lo, size_t hi) {
                              reference::MatMulATAccum(a, b, dst, lo, hi);
                            });
    return;
  }
  const mlk::KernelOps& ops = mlk::ActiveKernelOps();
  AccumulateOverSharedDim(
      k, m, n, out, [&](Matrix* dst, size_t lo, size_t hi) {
        ops.accum_outer(a.data(), m, b.data(), n, dst->data(), n, lo, hi, m,
                        n);
      });
}

// ---------------------------------------------------------------------------
// Fused layer ops.
// ---------------------------------------------------------------------------

void DenseForward(const Matrix& input, const Matrix& weights,
                  const float* bias, bool relu, Matrix* out) {
  ARECEL_CHECK(input.cols() == weights.rows());
  const size_t m = input.rows(), k = input.cols(), n = weights.cols();
  out->Resize(m, n);
  if (ActiveMlKernelBackend() == MlKernelBackend::kReference) {
    // Historical unfused sequence: matmul, bias broadcast, activation pass.
    out->Fill(0.0f);
    RunRows(m, k, n, [&](size_t lo, size_t hi) {
      reference::MatMulRows(input, weights, out, lo, hi);
    });
    if (bias != nullptr) {
      for (size_t i = 0; i < m; ++i) {
        float* row = out->Row(i);
        for (size_t j = 0; j < n; ++j) row[j] += bias[j];
      }
    }
    if (relu) Relu(*out, out);
    return;
  }
  const mlk::KernelOps& ops = mlk::ActiveKernelOps();
  RunRows(m, k, n, [&](size_t lo, size_t hi) {
    ops.dense_rows(input.data(), k, weights.data(), n, bias, relu,
                   out->data(), n, lo, hi, k, n);
  });
}

void DenseForwardSlice(const Matrix& input, const Matrix& weights,
                       const float* bias, size_t col_begin, size_t cols,
                       Matrix* out) {
  ARECEL_CHECK(input.cols() == weights.rows());
  ARECEL_CHECK(col_begin + cols <= weights.cols());
  const size_t m = input.rows(), k = input.cols();
  out->Resize(m, cols);
  if (ActiveMlKernelBackend() == MlKernelBackend::kReference) {
    // Historical sliced loop (ml/made.cc), zero-skip branch included.
    for (size_t i = 0; i < m; ++i) {
      const float* in_row = input.Row(i);
      float* dst = out->Row(i);
      for (size_t v = 0; v < cols; ++v)
        dst[v] = bias != nullptr ? bias[col_begin + v] : 0.0f;
      for (size_t kk = 0; kk < k; ++kk) {
        const float av = in_row[kk];
        if (av == 0.0f) continue;
        const float* w_row = weights.Row(kk);
        for (size_t v = 0; v < cols; ++v)
          dst[v] += av * w_row[col_begin + v];
      }
    }
    return;
  }
  const mlk::KernelOps& ops = mlk::ActiveKernelOps();
  RunRows(m, k, cols, [&](size_t lo, size_t hi) {
    ops.dense_rows(input.data(), k, weights.data() + col_begin,
                   weights.cols(), bias != nullptr ? bias + col_begin : nullptr,
                   /*relu=*/false, out->data(), cols, lo, hi, k, cols);
  });
}

namespace {

// Shared core of the int8 forwards (ml/packed.h): quantizes the
// activations per row, then runs the int8 kernels over the packed weights.
// Independent of the active backend; the layer-level callers take this path
// only under kQuant.
void PackedForwardImpl(const Matrix& input, const PackedDenseWeights& packed,
                       const float* bias, bool relu, size_t col_begin,
                       size_t cols, Matrix* out) {
  ARECEL_CHECK(packed.has);
  const QuantizedDense& q = packed.q8;
  const size_t m = input.rows(), k = input.cols();
  ARECEL_CHECK(k == q.rows());
  ARECEL_CHECK(col_begin + cols <= q.cols());
  out->Resize(m, cols);
  // Serving calls this per layer per batch; thread_local scratch keeps the
  // activation-quantization buffers warm instead of reallocating each call.
  // Workers inside RunRows only read these. A lambda does not capture a
  // thread_local (a worker naming `aq` would get its own, empty one), so
  // the caller's buffers travel as plain pointers.
  thread_local std::vector<uint8_t> aq;
  thread_local std::vector<float> a_scales;
  thread_local std::vector<int32_t> a_zps;
  QuantizeActivations(input, q.padded_rows(), &aq, &a_scales, &a_zps);
  const uint8_t* codes = aq.data();
  const float* scales = a_scales.data();
  const int32_t* zero_points = a_zps.data();
  const mlk::KernelOps& ops = mlk::ActiveKernelOps();
  RunRows(m, k, cols, [&](size_t lo, size_t hi) {
    ops.quant_dense_rows(codes, q.padded_rows(), scales, zero_points,
                         q.data(), q.padded_rows(), q.padded_cols(),
                         q.scales(), q.col_sums(), bias, relu, out->data(),
                         cols, lo, hi, col_begin, cols);
  });
}

}  // namespace

void PackedDenseForward(const Matrix& input, const PackedDenseWeights& packed,
                        const float* bias, bool relu, Matrix* out) {
  PackedForwardImpl(input, packed, bias, relu, /*col_begin=*/0,
                    packed.q8.cols(), out);
}

void PackedDenseForwardSlice(const Matrix& input,
                             const PackedDenseWeights& packed,
                             const float* bias, size_t col_begin, size_t cols,
                             Matrix* out) {
  PackedForwardImpl(input, packed, bias, /*relu=*/false, col_begin, cols, out);
}

void DenseBackward(const Matrix& input, const Matrix& preact, bool relu,
                   const Matrix& output_grad, const Matrix& weights,
                   Matrix* weight_grad, float* bias_grad, Matrix* input_grad,
                   Matrix* dz_scratch) {
  ARECEL_CHECK(output_grad.rows() == input.rows());
  ARECEL_CHECK(output_grad.cols() == weights.cols());
  const size_t rows = output_grad.rows(), n = output_grad.cols();

  if (ActiveMlKernelBackend() == MlKernelBackend::kReference) {
    // Historical sequence: masked copy, dW temp + add, colsum temp + add.
    Matrix dz = output_grad;
    if (relu) {
      for (size_t i = 0; i < dz.size(); ++i) {
        if (preact.data()[i] <= 0.0f) dz.data()[i] = 0.0f;
      }
    }
    Matrix dw;
    MatMulAT(input, dz, &dw);
    for (size_t i = 0; i < weight_grad->size(); ++i)
      weight_grad->data()[i] += dw.data()[i];
    std::vector<float> db;
    ColumnSums(dz, &db);
    for (size_t j = 0; j < n; ++j) bias_grad[j] += db[j];
    if (input_grad != nullptr) MatMulBT(dz, weights, input_grad);
    return;
  }

  // Fused path: one pass produces the masked gradient and the bias column
  // sums; dW accumulates straight into the gradient buffer (no temp).
  const Matrix* dz = &output_grad;
  if (relu) {
    dz_scratch->Resize(rows, n);
    for (size_t r = 0; r < rows; ++r) {
      const float* g = output_grad.Row(r);
      const float* p = preact.Row(r);
      float* d = dz_scratch->Row(r);
      for (size_t j = 0; j < n; ++j) {
        // g[j] loads whether or not the mask passes: loaded on one side of
        // the select only, it kept the loop a branch, which mispredicts on
        // half of all random-sign pre-activations and does not vectorize.
        const float gj = g[j];
        const float v = p[j] > 0.0f ? gj : 0.0f;
        d[j] = v;
        bias_grad[j] += v;
      }
    }
    dz = dz_scratch;
  } else {
    for (size_t r = 0; r < rows; ++r) {
      const float* g = output_grad.Row(r);
      for (size_t j = 0; j < n; ++j) bias_grad[j] += g[j];
    }
  }
  MatMulATAccumulate(input, *dz, weight_grad);
  if (input_grad != nullptr) MatMulBT(*dz, weights, input_grad);
}

void AddInPlace(Matrix* acc, const Matrix& x) {
  ARECEL_CHECK(acc->rows() == x.rows() && acc->cols() == x.cols());
  float* a = acc->data();
  const float* b = x.data();
  const size_t size = x.size();
  for (size_t i = 0; i < size; ++i) a[i] += b[i];
}

void Relu(const Matrix& x, Matrix* out) {
  out->Resize(x.rows(), x.cols());
  const float* in = x.data();
  float* data = out->data();
  const size_t size = x.size();
  for (size_t i = 0; i < size; ++i) data[i] = in[i] < 0.0f ? 0.0f : in[i];
}

void AdamUpdate(float* param, const float* grad, float* m, float* v, size_t n,
                float learning_rate, int step) {
  const float c1 = 1.0f - std::pow(mlk::kAdamBeta1, static_cast<float>(step));
  const float c2 = 1.0f - std::pow(mlk::kAdamBeta2, static_cast<float>(step));
  mlk::ActiveKernelOps().adam_update(param, grad, m, v, n, learning_rate, c1,
                                     c2);
}

}  // namespace arecel
