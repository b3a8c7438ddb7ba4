// AVX-512 (F + BW) instantiation of the fast ML kernel table
// (ml/kernels_simd.h), compiled with -mavx512f -mavx512bw
// (src/CMakeLists.txt) and selected at runtime only after a CPUID check for
// both features, so the binary stays runnable on AVX2-only hardware.
//
// Numeric contract (see kernels_simd.h): this tier must be bit-identical to
// the AVX2 tier so that runtime ISA dispatch never perturbs the fast
// backend's numerics (goldens and the serve-path "bit-identical to direct
// inference" guarantees are frozen against it). The kernels here achieve
// that two ways:
//  * dense_rows and accum_outer keep one FMA chain per output element in
//    k order — lane-independent arithmetic, so widening the vectors from
//    8 to 16 lanes only regroups lanes. Their sub-16-column remainders are
//    delegated to the AVX2 table (same machine code, same result) rather
//    than reimplemented.
//  * dot_rows forwards to the AVX2 table outright: it reduces across lanes
//    (hadd tree), where a 512-bit rewrite would change summation order.
// quant_dense_rows accumulates in exact int32 and performs QuantEpilogue's
// float sequence lane-wise, so it is bit-identical across tiers by
// construction; it is the kernel this TU exists for (one 64-byte packed
// group = one zmm, shared across a 4-row register block). adam_update is
// elementwise and keeps the portable loop's rounding per lane, so 16 lanes
// change nothing but the number of subnormal assists per parameter.

#include "ml/kernels_simd.h"

#if defined(__AVX512F__) && defined(__AVX512BW__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "ml/packed.h"

namespace arecel {
namespace mlk {
namespace {

// The AVX2 table is always compiled when this TU is (-mavx512f implies
// AVX2 support in the compiler), and any CPU passing the avx512f+bw CPUID
// check runs AVX2 code; the portable fallback is for form only.
inline const KernelOps& TailOps() {
  const KernelOps* avx2 = Avx2KernelOps();
  return avx2 != nullptr ? *avx2 : PortableKernelOps();
}

// R output rows x 16 cols at (i, j): one zmm FMA chain per row. The
// unroll pragmas keep the tile in registers at -O2 (see AccumTileZmm).
template <size_t R>
inline void DenseTileZmm(const float* a, size_t lda, const float* b,
                         size_t ldb, __m512 biasv, bool relu, float* out,
                         size_t ldo, size_t i, size_t j, size_t k) {
  __m512 acc[R];
  const float* a_rows[R];
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r) {
    acc[r] = biasv;
    a_rows[r] = a + (i + r) * lda;
  }
  for (size_t kk = 0; kk < k; ++kk) {
    const __m512 bv = _mm512_loadu_ps(b + kk * ldb + j);
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r)
      acc[r] = _mm512_fmadd_ps(_mm512_set1_ps(a_rows[r][kk]), bv, acc[r]);
  }
  if (relu) {
    const __m512 zero = _mm512_setzero_ps();
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) acc[r] = _mm512_max_ps(acc[r], zero);
  }
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r)
    _mm512_storeu_ps(out + (i + r) * ldo + j, acc[r]);
}

void DenseRowsAvx512(const float* a, size_t lda, const float* b, size_t ldb,
                     const float* bias, bool relu, float* out, size_t ldo,
                     size_t i_lo, size_t i_hi, size_t k, size_t n) {
  const size_t n16 = n / 16 * 16;
  size_t i = i_lo;
  while (i < i_hi) {
    const size_t rows = i + 4 <= i_hi ? 4 : i_hi - i;
    for (size_t j = 0; j < n16; j += 16) {
      const __m512 biasv =
          bias != nullptr ? _mm512_loadu_ps(bias + j) : _mm512_setzero_ps();
      switch (rows) {
        case 4:
          DenseTileZmm<4>(a, lda, b, ldb, biasv, relu, out, ldo, i, j, k);
          break;
        case 3:
          DenseTileZmm<3>(a, lda, b, ldb, biasv, relu, out, ldo, i, j, k);
          break;
        case 2:
          DenseTileZmm<2>(a, lda, b, ldb, biasv, relu, out, ldo, i, j, k);
          break;
        default:
          DenseTileZmm<1>(a, lda, b, ldb, biasv, relu, out, ldo, i, j, k);
          break;
      }
    }
    i += rows;
  }
  if (n16 < n) {
    // Delegate the <16-column remainder to the AVX2 kernel over the column
    // slice [n16, n): identical machine code to the avx2 tier's own tail.
    TailOps().dense_rows(a, lda, b + n16, ldb,
                         bias != nullptr ? bias + n16 : nullptr, relu,
                         out + n16, ldo, i_lo, i_hi, k, n - n16);
  }
}

void DotRowsAvx512(const float* a, size_t lda, const float* b, size_t ldb,
                   float* out, size_t ldo, size_t i_lo, size_t i_hi, size_t k,
                   size_t n) {
  TailOps().dot_rows(a, lda, b, ldb, out, ldo, i_lo, i_hi, k, n);
}

// accum_outer register tile: R rows of out x T 16-column vectors at
// (i, j), held in zmm registers across the whole k range. Each element
// takes one FMA per shared row in k order, the AVX2 tier's chain, so the
// tiers agree bit for bit. The unroll pragmas keep the tile in registers
// at -O2 as well, where GCC would otherwise leave the arrays on the stack.
template <size_t R, size_t T>
inline void AccumTileZmm(const float* a, size_t lda, const float* b,
                         size_t ldb, float* out, size_t ldo, size_t i,
                         size_t j, size_t k_lo, size_t k_hi) {
  __m512 acc[R][T];
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r)
#pragma GCC unroll 3
    for (size_t t = 0; t < T; ++t)
      acc[r][t] = _mm512_loadu_ps(out + (i + r) * ldo + j + 16 * t);
  for (size_t kk = k_lo; kk < k_hi; ++kk) {
    const float* a_row = a + kk * lda + i;
    __m512 bv[T];
#pragma GCC unroll 3
    for (size_t t = 0; t < T; ++t)
      bv[t] = _mm512_loadu_ps(b + kk * ldb + j + 16 * t);
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) {
      const __m512 av = _mm512_set1_ps(a_row[r]);
#pragma GCC unroll 3
      for (size_t t = 0; t < T; ++t)
        acc[r][t] = _mm512_fmadd_ps(av, bv[t], acc[r][t]);
    }
  }
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r)
#pragma GCC unroll 3
    for (size_t t = 0; t < T; ++t)
      _mm512_storeu_ps(out + (i + r) * ldo + j + 16 * t, acc[r][t]);
}

// R rows of out over columns [0, n16), 48 at a time (MSCN's hidden width
// in one tile), then 32 or 16.
template <size_t R>
inline void AccumRowsAvx512(const float* a, size_t lda, const float* b,
                            size_t ldb, float* out, size_t ldo, size_t i,
                            size_t k_lo, size_t k_hi, size_t n16) {
  size_t j = 0;
  for (; j + 48 <= n16; j += 48)
    AccumTileZmm<R, 3>(a, lda, b, ldb, out, ldo, i, j, k_lo, k_hi);
  if (j + 32 <= n16) {
    AccumTileZmm<R, 2>(a, lda, b, ldb, out, ldo, i, j, k_lo, k_hi);
  } else if (j < n16) {
    AccumTileZmm<R, 1>(a, lda, b, ldb, out, ldo, i, j, k_lo, k_hi);
  }
}

void AccumOuterAvx512(const float* a, size_t lda, const float* b, size_t ldb,
                      float* out, size_t ldo, size_t k_lo, size_t k_hi,
                      size_t m, size_t n) {
  const size_t n16 = n / 16 * 16;
  size_t i = 0;
  for (; i + 4 <= m; i += 4)
    AccumRowsAvx512<4>(a, lda, b, ldb, out, ldo, i, k_lo, k_hi, n16);
  switch (m - i) {
    case 3:
      AccumRowsAvx512<3>(a, lda, b, ldb, out, ldo, i, k_lo, k_hi, n16);
      break;
    case 2:
      AccumRowsAvx512<2>(a, lda, b, ldb, out, ldo, i, k_lo, k_hi, n16);
      break;
    case 1:
      AccumRowsAvx512<1>(a, lda, b, ldb, out, ldo, i, k_lo, k_hi, n16);
      break;
    default:
      break;
  }
  if (n16 < n) {
    // The <16-column remainder runs the AVX2 kernel over the column slice
    // [n16, n), as dense_rows does.
    TailOps().accum_outer(a, lda, b + n16, ldb, out + n16, ldo, k_lo, k_hi,
                          m, n - n16);
  }
}

// Dequant + store epilogue shared by the maddubs and VNNI accumulation
// paths below. Vectorized but keeps QuantEpilogue's exact float sequence
// per lane — int32 subtract (exact), one multiply by the pre-multiplied
// scale, one add of bias — so quant outputs stay bit-identical to the
// portable tier's scalar epilogue. Edge tiles fall back to that scalar
// epilogue directly.
template <size_t R>
inline void QuantTileEpilogueAvx512(const __m512i* acc, const float* a_scales,
                                    const int32_t* a_zps,
                                    const float* w_scales,
                                    const int32_t* w_col_sums,
                                    const float* bias, bool relu, float* out,
                                    size_t ldo, size_t i, size_t jbase,
                                    size_t col_begin, size_t col_end) {
  if (jbase >= col_begin && jbase + kPackTileCols <= col_end) {
    const __m512i col_sums = _mm512_loadu_si512(
        reinterpret_cast<const __m512i*>(w_col_sums + jbase));
    const __m512 w_scale_v = _mm512_loadu_ps(w_scales + jbase);
    const __m512 bias_v =
        bias != nullptr ? _mm512_loadu_ps(bias + jbase) : _mm512_setzero_ps();
    const __m512 zero = _mm512_setzero_ps();
    for (size_t r = 0; r < R; ++r) {
      const __m512i x = _mm512_sub_epi32(
          acc[r], _mm512_mullo_epi32(_mm512_set1_epi32(a_zps[i + r]),
                                     col_sums));
      const __m512 scale =
          _mm512_mul_ps(_mm512_set1_ps(a_scales[i + r]), w_scale_v);
      __m512 prod = _mm512_mul_ps(_mm512_cvtepi32_ps(x), scale);
      // Barrier: GCC's -ffp-contract=fast fuses mul/add intrinsic pairs
      // into FMAs, which would break bit-identity with QuantEpilogue's
      // two-rounding sequence (kernels_simd.h).
      asm("" : "+v"(prod));
      __m512 v = _mm512_add_ps(prod, bias_v);
      if (relu) v = _mm512_max_ps(v, zero);
      _mm512_storeu_ps(out + (i + r) * ldo + (jbase - col_begin), v);
    }
  } else {
    const size_t c_lo = jbase < col_begin ? col_begin - jbase : 0;
    const size_t c_hi =
        col_end - jbase < kPackTileCols ? col_end - jbase : kPackTileCols;
    alignas(64) int32_t accs[kPackTileCols];
    for (size_t r = 0; r < R; ++r) {
      _mm512_store_si512(accs, acc[r]);
      float* out_row = out + (i + r) * ldo;
      for (size_t c = c_lo; c < c_hi; ++c) {
        const size_t j = jbase + c;
        out_row[j - col_begin] = QuantEpilogue(
            accs[c], a_zps[i + r], w_col_sums[j], a_scales[i + r], w_scales[j],
            bias != nullptr ? bias[j] : 0.0f, relu);
      }
    }
  }
}

// R rows x one 16-column tile of the int8 kernel. One 64-byte packed group
// = 16 columns x 4 k bytes = exactly one zmm: maddubs then madd-by-ones
// reduces it to sixteen per-column int32 partials in one step, and the R
// rows share each group load (B traffic / R versus a row-at-a-time loop).
// This form needs only F+BW; the VNNI variant below replaces the pair with
// one dpbusd when the CPU has it.
template <size_t R>
inline void QuantTileAvx512(const uint8_t* aq, size_t lda_q, const int8_t* tp,
                            size_t k_pad, const float* a_scales,
                            const int32_t* a_zps, const float* w_scales,
                            const int32_t* w_col_sums, const float* bias,
                            bool relu, float* out, size_t ldo, size_t i,
                            size_t jbase, size_t col_begin, size_t col_end) {
  const __m512i ones16 = _mm512_set1_epi16(1);
  __m512i acc[R];
  const uint8_t* a_rows[R];
  for (size_t r = 0; r < R; ++r) {
    acc[r] = _mm512_setzero_si512();
    a_rows[r] = aq + (i + r) * lda_q;
  }
  for (size_t kg = 0; kg < k_pad; kg += kQuantKGroup) {
    const __m512i bv = _mm512_load_si512(tp + kg * kPackTileCols);
    for (size_t r = 0; r < R; ++r) {
      int32_t a4;
      std::memcpy(&a4, a_rows[r] + kg, sizeof(a4));
      // u8*s8 pair-sums cannot saturate: activations are 7-bit.
      acc[r] = _mm512_add_epi32(
          acc[r], _mm512_madd_epi16(
                      _mm512_maddubs_epi16(_mm512_set1_epi32(a4), bv), ones16));
    }
  }
  QuantTileEpilogueAvx512<R>(acc, a_scales, a_zps, w_scales, w_col_sums, bias,
                             relu, out, ldo, i, jbase, col_begin, col_end);
}

// AVX512-VNNI accumulation: vpdpbusd computes the four u8*s8 products of a
// k-group and adds them into the int32 accumulator in one instruction —
// exactly the arithmetic of the maddubs/madd/add triple above (products are
// sign-extended and summed at 32 bits, no intermediate saturation), so the
// accumulators and therefore the outputs are bit-identical between the two
// paths. Selected per-process via CPUID in QuantDenseRowsAvx512; the tier
// itself still only requires F+BW.
#pragma GCC push_options
#pragma GCC target("avx512vnni")
template <size_t R>
inline void QuantTileVnniAvx512(const uint8_t* aq, size_t lda_q,
                                const int8_t* tp, size_t k_pad,
                                const float* a_scales, const int32_t* a_zps,
                                const float* w_scales,
                                const int32_t* w_col_sums, const float* bias,
                                bool relu, float* out, size_t ldo, size_t i,
                                size_t jbase, size_t col_begin,
                                size_t col_end) {
  __m512i acc[R];
  const uint8_t* a_rows[R];
  for (size_t r = 0; r < R; ++r) {
    acc[r] = _mm512_setzero_si512();
    a_rows[r] = aq + (i + r) * lda_q;
  }
  for (size_t kg = 0; kg < k_pad; kg += kQuantKGroup) {
    const __m512i bv = _mm512_load_si512(tp + kg * kPackTileCols);
    for (size_t r = 0; r < R; ++r) {
      int32_t a4;
      std::memcpy(&a4, a_rows[r] + kg, sizeof(a4));
      acc[r] = _mm512_dpbusd_epi32(acc[r], _mm512_set1_epi32(a4), bv);
    }
  }
  QuantTileEpilogueAvx512<R>(acc, a_scales, a_zps, w_scales, w_col_sums, bias,
                             relu, out, ldo, i, jbase, col_begin, col_end);
}

// R rows x T consecutive 16-column tiles in one register block (T*R zmm
// accumulators). Blocking across tiles amortizes the per-group activation
// broadcast over T dpbusd issues — the broadcast chain, not the multiply,
// is what bounds the single-tile form. Only used on spans of fully covered
// tiles (the epilogue still handles generality, but the driver never
// routes edges here). Accumulation is exact int32, so tiling shape cannot
// change results.
template <size_t R, size_t T>
inline void QuantBlockVnniAvx512(const uint8_t* aq, size_t lda_q,
                                 const int8_t* bq, size_t k_pad,
                                 const float* a_scales, const int32_t* a_zps,
                                 const float* w_scales,
                                 const int32_t* w_col_sums, const float* bias,
                                 bool relu, float* out, size_t ldo, size_t i,
                                 size_t jbase0, size_t col_begin,
                                 size_t col_end) {
  __m512i acc[T][R];
  const uint8_t* a_rows[R];
  const int8_t* tps[T];
  for (size_t r = 0; r < R; ++r) a_rows[r] = aq + (i + r) * lda_q;
  for (size_t t = 0; t < T; ++t) {
    tps[t] = bq + (jbase0 / kPackTileCols + t) * kPackTileCols * k_pad;
    for (size_t r = 0; r < R; ++r) acc[t][r] = _mm512_setzero_si512();
  }
  for (size_t kg = 0; kg < k_pad; kg += kQuantKGroup) {
    __m512i bv[T];
    for (size_t t = 0; t < T; ++t)
      bv[t] = _mm512_load_si512(tps[t] + kg * kPackTileCols);
    for (size_t r = 0; r < R; ++r) {
      int32_t a4;
      std::memcpy(&a4, a_rows[r] + kg, sizeof(a4));
      const __m512i av = _mm512_set1_epi32(a4);
      for (size_t t = 0; t < T; ++t)
        acc[t][r] = _mm512_dpbusd_epi32(acc[t][r], av, bv[t]);
    }
  }
  for (size_t t = 0; t < T; ++t) {
    QuantTileEpilogueAvx512<R>(acc[t], a_scales, a_zps, w_scales, w_col_sums,
                               bias, relu, out, ldo, i,
                               jbase0 + t * kPackTileCols, col_begin, col_end);
  }
}
#pragma GCC pop_options

// Micro-dispatch between the two accumulation forms: probed once per
// process (ARECEL_ML_VNNI=0 forces the maddubs form, e.g. to cover both
// paths in tests on VNNI hardware). Both produce bit-identical results, so
// this is purely a throughput choice.
bool UseAvx512Vnni() {
  static const bool use = [] {
    const char* env = std::getenv("ARECEL_ML_VNNI");
    if (env != nullptr && env[0] == '0' && env[1] == '\0') return false;
    return __builtin_cpu_supports("avx512vnni") != 0;
  }();
  return use;
}

void QuantDenseRowsAvx512(const uint8_t* aq, size_t lda_q,
                          const float* a_scales, const int32_t* a_zps,
                          const int8_t* bq, size_t k_pad, size_t n_pad,
                          const float* w_scales, const int32_t* w_col_sums,
                          const float* bias, bool relu, float* out,
                          size_t ldo, size_t i_lo, size_t i_hi,
                          size_t col_begin, size_t cols) {
  (void)n_pad;
  using TileFn = void (*)(const uint8_t*, size_t, const int8_t*, size_t,
                          const float*, const int32_t*, const float*,
                          const int32_t*, const float*, bool, float*, size_t,
                          size_t, size_t, size_t, size_t);
  static constexpr TileFn kTiles[2][4] = {
      {QuantTileAvx512<1>, QuantTileAvx512<2>, QuantTileAvx512<3>,
       QuantTileAvx512<4>},
      {QuantTileVnniAvx512<1>, QuantTileVnniAvx512<2>, QuantTileVnniAvx512<3>,
       QuantTileVnniAvx512<4>},
  };
  const bool vnni = UseAvx512Vnni();
  const TileFn* tiles = kTiles[vnni ? 1 : 0];
  const size_t col_end = col_begin + cols;
  const size_t t0 = col_begin / kPackTileCols;
  // Tile index range whose 16 columns are all inside the window — eligible
  // for the 4-tile VNNI block.
  const size_t t_flo = (col_begin + kPackTileCols - 1) / kPackTileCols;
  const size_t t_fhi = col_end / kPackTileCols;
  size_t i = i_lo;
  while (i < i_hi) {
    const size_t rows = i + 4 <= i_hi ? 4 : i_hi - i;
    const TileFn tile = tiles[rows - 1];
    size_t t = t0;
    while (t * kPackTileCols < col_end) {
      if (vnni && rows == 4 && t >= t_flo && t + 4 <= t_fhi) {
        QuantBlockVnniAvx512<4, 4>(aq, lda_q, bq, k_pad, a_scales, a_zps,
                                   w_scales, w_col_sums, bias, relu, out, ldo,
                                   i, t * kPackTileCols, col_begin, col_end);
        t += 4;
        continue;
      }
      const size_t jbase = t * kPackTileCols;
      const int8_t* tp = bq + jbase * k_pad;
      tile(aq, lda_q, tp, k_pad, a_scales, a_zps, w_scales, w_col_sums, bias,
           relu, out, ldo, i, jbase, col_begin, col_end);
      ++t;
    }
    i += rows;
  }
}

// 16-wide activation quantization (ml/packed.h scheme). Same contract as
// the AVX2 tier: the exact per-element sequence of QuantizeRowsPortable
// (mul and add as two intrinsics — never vfmadd — then max/min/cvtt), with
// tails handled by zero-masked loads so every element takes the vector
// path. Zero-filled masked lanes are harmless in the range pass because
// the range includes 0 by construction; tail code bytes spill through a
// stack buffer (masked byte stores on xmm need AVX512VL, which this TU
// does not enable). min/max lane reductions are exactly associative
// over finite activations, so scales and zero points match the other
// tiers bit for bit.
void QuantizeRowsAvx512(const float* a, size_t lda, size_t k, uint8_t* aq,
                        size_t lda_q, float* a_scales, int32_t* a_zps,
                        size_t i_lo, size_t i_hi) {
  const __m512 vzero = _mm512_setzero_ps();
  const __m512 vcap = _mm512_set1_ps(127.5f);
  const size_t kv = k & ~static_cast<size_t>(15);
  const __mmask16 tail_mask =
      static_cast<__mmask16>((1u << (k - kv)) - 1u);  // all-zero when k==kv
  for (size_t i = i_lo; i < i_hi; ++i) {
    const float* row = a + i * lda;
    uint8_t* dst = aq + i * lda_q;
    __m512 vmin = vzero, vmax = vzero;
    for (size_t kk = 0; kk < kv; kk += 16) {
      const __m512 v = _mm512_loadu_ps(row + kk);
      vmin = _mm512_min_ps(vmin, v);
      vmax = _mm512_max_ps(vmax, v);
    }
    if (kv < k) {
      const __m512 v = _mm512_maskz_loadu_ps(tail_mask, row + kv);
      vmin = _mm512_min_ps(vmin, v);
      vmax = _mm512_max_ps(vmax, v);
    }
    const float min_v = _mm512_reduce_min_ps(vmin);
    const float max_v = _mm512_reduce_max_ps(vmax);
    const float range = max_v - min_v;
    const float scale = range > 0.0f ? range / 127.0f : 1.0f;
    const int32_t zp = static_cast<int32_t>(
        std::clamp<long>(std::lrintf(-min_v / scale), 0, 127));
    a_scales[i] = scale;
    a_zps[i] = zp;
    const __m512 vinv = _mm512_set1_ps(1.0f / scale);
    const __m512 vzp = _mm512_set1_ps(static_cast<float>(zp) + 0.5f);
    for (size_t kk = 0; kk < kv; kk += 16) {
      __m512 prod = _mm512_mul_ps(_mm512_loadu_ps(row + kk), vinv);
      // Barrier: keep mul and add separately rounded (no FMA contraction),
      // matching QuantizeRowsPortable's -ffp-contract=off arithmetic.
      asm("" : "+v"(prod));
      __m512 q = _mm512_add_ps(prod, vzp);
      q = _mm512_min_ps(_mm512_max_ps(q, vzero), vcap);
      const __m128i p8 = _mm512_cvtepi32_epi8(_mm512_cvttps_epi32(q));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + kk), p8);
    }
    if (kv < k) {
      __m512 prod =
          _mm512_mul_ps(_mm512_maskz_loadu_ps(tail_mask, row + kv), vinv);
      asm("" : "+v"(prod));
      __m512 q = _mm512_add_ps(prod, vzp);
      q = _mm512_min_ps(_mm512_max_ps(q, vzero), vcap);
      const __m128i p8 = _mm512_cvtepi32_epi8(_mm512_cvttps_epi32(q));
      alignas(16) uint8_t tmp[16];
      _mm_store_si128(reinterpret_cast<__m128i*>(tmp), p8);
      std::memcpy(dst + kv, tmp, k - kv);
    }
    for (size_t kk = k; kk < lda_q; ++kk) dst[kk] = 0;
  }
}

// Adam's update 16 lanes at a time: the AVX2 tier's sequence on zmm
// registers, with the same barriers against FMA contraction. The n % 16
// tail goes to the AVX2 table.
void AdamUpdateAvx512(float* param, const float* grad, float* m, float* v,
                      size_t n, float lr, float c1, float c2) {
  const __m512 beta1 = _mm512_set1_ps(kAdamBeta1);
  const __m512 beta2 = _mm512_set1_ps(kAdamBeta2);
  const __m512 one_minus_beta1 = _mm512_set1_ps(1.0f - kAdamBeta1);
  const __m512 one_minus_beta2 = _mm512_set1_ps(1.0f - kAdamBeta2);
  const __m512 eps = _mm512_set1_ps(kAdamEps);
  const __m512 lr_v = _mm512_set1_ps(lr);
  const __m512 c1_v = _mm512_set1_ps(c1);
  const __m512 c2_v = _mm512_set1_ps(c2);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 g = _mm512_loadu_ps(grad + i);
    __m512 m_decay = _mm512_mul_ps(beta1, _mm512_loadu_ps(m + i));
    __m512 m_step = _mm512_mul_ps(one_minus_beta1, g);
    __m512 v_decay = _mm512_mul_ps(beta2, _mm512_loadu_ps(v + i));
    __m512 v_step = _mm512_mul_ps(_mm512_mul_ps(one_minus_beta2, g), g);
    asm("" : "+v"(m_decay), "+v"(m_step), "+v"(v_decay), "+v"(v_step));
    const __m512 m_new = _mm512_add_ps(m_decay, m_step);
    const __m512 v_new = _mm512_add_ps(v_decay, v_step);
    const __m512 m_hat = _mm512_div_ps(m_new, c1_v);
    const __m512 v_hat = _mm512_div_ps(v_new, c2_v);
    const __m512 update =
        _mm512_div_ps(_mm512_mul_ps(lr_v, m_hat),
                      _mm512_add_ps(_mm512_sqrt_ps(v_hat), eps));
    _mm512_storeu_ps(m + i, m_new);
    _mm512_storeu_ps(v + i, v_new);
    _mm512_storeu_ps(param + i,
                     _mm512_sub_ps(_mm512_loadu_ps(param + i), update));
  }
  TailOps().adam_update(param + i, grad + i, m + i, v + i, n - i, lr, c1, c2);
}

constexpr KernelOps kAvx512Ops = {
    DenseRowsAvx512,
    DotRowsAvx512,
    AccumOuterAvx512,
    QuantDenseRowsAvx512,
    QuantizeRowsAvx512,
    AdamUpdateAvx512,
    "avx512",
};

}  // namespace

const KernelOps* Avx512KernelOps() { return &kAvx512Ops; }

}  // namespace mlk
}  // namespace arecel

#else  // !(__AVX512F__ && __AVX512BW__)

namespace arecel {
namespace mlk {

const KernelOps* Avx512KernelOps() { return nullptr; }

}  // namespace mlk
}  // namespace arecel

#endif
