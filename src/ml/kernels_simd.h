#ifndef ARECEL_ML_KERNELS_SIMD_H_
#define ARECEL_ML_KERNELS_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace arecel {
namespace mlk {

// Raw-pointer single-threaded kernel table behind the `fast` / `quant` ML
// backends (ml/kernels.h). Three implementations exist: a portable one
// (plain loops the compiler auto-vectorizes at the baseline ISA), an
// AVX2+FMA one, and an AVX-512 one (F+BW), each compiled in its own
// translation unit with its own ISA flags and selected at runtime via
// CPUID (override: ARECEL_ML_SIMD). All fp32 kernels operate on row-major
// buffers with an explicit leading dimension (row stride in floats), so
// callers can slice column windows out of wider matrices (e.g. one
// column's logit segment of the MADE output layer).
//
// Row-range signatures (i_lo/i_hi, k_lo/k_hi) let the dispatch layer in
// ml/kernels.cc parallelize over disjoint chunks without the kernels
// knowing about the thread pool.
//
// Numeric contract across tiers: dense_rows and accum_outer keep one FMA
// chain per output element in k order — lane-independent arithmetic, so
// the AVX2 and AVX-512 tiers produce bit-identical results (vector width
// only changes how lanes are grouped). Their scalar tails use std::fma, so
// the optimization level cannot change how a tail rounds either.
// dot_rows reduces across lanes (hadd tree), so the AVX-512 tier reuses
// the AVX2 algorithm verbatim to keep the fast backend's numerics stable
// under dispatch. quant_dense_rows accumulates in exact int32, and every
// tier's dequantization epilogue performs QuantEpilogue's float sequence
// (scalar or lane-wise), so it is bit-identical across all tiers. So is
// adam_update: each tier performs the portable loop's separately rounded
// operations per lane.
struct KernelOps {
  // out[i][j] = act(sum_k a[i][k] * b[k][j] + bias[j]) for i in
  // [i_lo, i_hi), j in [0, n). `bias` may be null (treated as zero);
  // `relu` clamps negatives. Rows of `out` are fully overwritten, so no
  // pre-zeroing is needed; k == 0 writes act(bias).
  void (*dense_rows)(const float* a, size_t lda, const float* b, size_t ldb,
                     const float* bias, bool relu, float* out, size_t ldo,
                     size_t i_lo, size_t i_hi, size_t k, size_t n);

  // out[i][j] = dot(a row i, b row j) over k — i.e. out = a * b^T for row
  // ranges of a. Used by MatMulBT (dX = dz * W^T in dense backward). The
  // SIMD tiers run two rows of a per pass over b; each output keeps the
  // arithmetic of a one-row pass, so results do not depend on how rows
  // pair up (odd counts and split row ranges included).
  void (*dot_rows)(const float* a, size_t lda, const float* b, size_t ldb,
                   float* out, size_t ldo, size_t i_lo, size_t i_hi,
                   size_t k, size_t n);

  // out[i][j] += sum over kk in [k_lo, k_hi) of a[kk][i] * b[kk][j] —
  // i.e. out += a^T * b restricted to a shared-dimension range.
  // Accumulates (does NOT zero out), so the caller can target gradient
  // buffers or per-worker partials directly. The SIMD tiers keep tiles of
  // out in registers across the range, but each element still takes one
  // multiply-add per shared row in k order, so one call over [k_lo, k_hi)
  // equals consecutive calls over its sub-ranges bit for bit: a stacked
  // mini-batch accumulates dW exactly as one row per call would.
  void (*accum_outer)(const float* a, size_t lda, const float* b, size_t ldb,
                      float* out, size_t ldo, size_t k_lo, size_t k_hi,
                      size_t m, size_t n);

  // Int8 dense forward over pre-quantized operands (ml/packed.h layout).
  // `aq` holds per-row u8 activations ([0,127], lda_q = k_pad bytes per
  // row, pad bytes zero) with per-row scales / zero points; `bq` is the
  // k-grouped tile-packed int8 weight buffer with per-column scales and
  // column sums (padded to n_pad columns). Computes out rows [i_lo, i_hi)
  // for ABSOLUTE weight columns [col_begin, col_begin + cols), written at
  // out column 0; `bias` points at the full bias vector (may be null). The
  // dequant + bias + relu epilogue runs per column.
  void (*quant_dense_rows)(const uint8_t* aq, size_t lda_q,
                           const float* a_scales, const int32_t* a_zps,
                           const int8_t* bq, size_t k_pad, size_t n_pad,
                           const float* w_scales, const int32_t* w_col_sums,
                           const float* bias, bool relu, float* out,
                           size_t ldo, size_t i_lo, size_t i_hi,
                           size_t col_begin, size_t cols);

  // Per-row u8 activation quantization (ml/packed.h scheme) for rows
  // [i_lo, i_hi) of `a`: k payload codes plus zeroed pad bytes up to lda_q
  // per row into `aq`, one scale / zero point per row. Every tier performs
  // the identical elementwise float sequence (min/max range including 0,
  // reciprocal-scale multiply, separate zero-point add, clamp, truncate) —
  // fp min/max reductions are exactly associative for the finite values
  // activations take, and lane width never changes per-element rounding, so
  // codes are bit-identical across tiers. This is the serving-path hot loop
  // that amortizes worst on narrow column slices (MADE logit segments), so
  // the SIMD tiers matter: quantization is O(m*k) against an int8 GEMM of
  // O(m*k*n/width).
  void (*quantize_rows)(const float* a, size_t lda, size_t k, uint8_t* aq,
                        size_t lda_q, float* a_scales, int32_t* a_zps,
                        size_t i_lo, size_t i_hi);

  // Adam's update of n parameters from their gradient, in place on param
  // and the moments m, v (betas and eps below; c1, c2 are the step's bias
  // corrections):
  //   m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g;
  //   param -= lr (m / c1) / (sqrt(v / c2) + eps).
  // Every multiply, add, division and sqrt rounds on its own — the SIMD
  // tiers place a register barrier between each multiply and the add that
  // consumes it, since GCC would contract the pair into an FMA — so all
  // tiers agree bit for bit. The moments reach the subnormal range during
  // training, and each vector instruction with a subnormal lane takes a
  // microcode assist, so wider tiers pay fewer assists where subnormal
  // moments sit side by side.
  void (*adam_update)(float* param, const float* grad, float* m, float* v,
                      size_t n, float lr, float c1, float c2);

  // Human-readable ISA tag ("avx512", "avx2-fma", "portable").
  const char* name;
};

// Returns x with its rounding made observable, so the compiler cannot
// contract the multiply that produced x into an FMA with the add that
// consumes it. Splitting mul and add into two statements (or two
// intrinsics) does NOT by itself stop GCC's default -ffp-contract=fast from
// fusing them — it contracts across statements and across _mm*_mul/add
// intrinsics alike — in any TU whose ISA has an FMA: the AVX2/AVX-512
// kernel TUs, or every TU when CMAKE_CXX_FLAGS raise the ISA. A fused
// result would differ in the last bit from the portable tier's and break
// the cross-tier bit-identity contract. Compiled out at the baseline
// ISA, where no FMA instruction exists and loops using it auto-vectorize
// freely. The SIMD TUs place the same barrier on whole vectors.
inline float Rounded(float x) {
#if defined(__FMA__) || defined(__AVX512F__)
  asm("" : "+x"(x));
#endif
  return x;
}

// Dequantization epilogue shared by every quant_dense_rows tier: the int32
// accumulator is exact, so the float sequence here — one multiply by the
// pre-multiplied scale, then one separate add of bias — fully determines
// the output. The SIMD tiers vectorize this exact sequence lane-wise
// (cvtepi32, mul, add; never a fused multiply-add), which keeps quantized
// outputs bit-identical across portable / AVX2 / AVX-512; the AVX2/AVX-512
// edge-tile paths inline this function under their FMA ISAs, hence
// Rounded().
inline float QuantEpilogue(int32_t acc, int32_t zp, int32_t col_sum,
                           float a_scale, float w_scale, float bias,
                           bool relu) {
  const float dq = Rounded(static_cast<float>(acc - zp * col_sum) *
                           (a_scale * w_scale));
  const float v = dq + bias;
  return (relu && v < 0.0f) ? 0.0f : v;
}

// Adam's hyperparameters, shared by every adam_update tier.
constexpr float kAdamBeta1 = 0.9f;
constexpr float kAdamBeta2 = 0.999f;
constexpr float kAdamEps = 1e-8f;

// The baseline-ISA quantize_rows implementation. Lives in ml/packed.cc,
// which is compiled with fp-min/max reassociation enabled so the range
// reduction auto-vectorizes even at the baseline ISA; the portable kernel
// table points here, and the SIMD tiers replicate its exact arithmetic
// with intrinsics.
void QuantizeRowsPortable(const float* a, size_t lda, size_t k, uint8_t* aq,
                          size_t lda_q, float* a_scales, int32_t* a_zps,
                          size_t i_lo, size_t i_hi);

// The AVX2+FMA table, or nullptr when the translation unit was not built
// with AVX2 support (non-x86 target or compiler without -mavx2).
const KernelOps* Avx2KernelOps();

// The AVX-512 (F+BW) table, or nullptr when unavailable at build time.
const KernelOps* Avx512KernelOps();

// The portable fallback; always available.
const KernelOps& PortableKernelOps();

// The runtime-resolved tier (CPUID + ARECEL_ML_SIMD override; see
// ml/kernels.h). Shared by ml/kernels.cc and ml/packed.cc.
const KernelOps& ActiveKernelOps();

}  // namespace mlk
}  // namespace arecel

#endif  // ARECEL_ML_KERNELS_SIMD_H_
