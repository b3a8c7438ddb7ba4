// AVX2 + FMA instantiation of the fast ML kernel table (ml/kernels_simd.h).
//
// This translation unit is compiled with -mavx2 -mfma (src/CMakeLists.txt)
// while the rest of the build stays at the portable baseline ISA; the
// dispatch layer in ml/kernels.cc only selects this table after a CPUID
// check, so the binary remains runnable on pre-AVX2 hardware. When the
// toolchain cannot target AVX2 at all, Avx2KernelOps() compiles to a
// nullptr stub and the portable table is used unconditionally.
//
// Kernel shape notes (register blocking IS the cache blocking here):
//  * dense_rows uses a 4x16 register tile (4 output rows x two 8-float
//    accumulator vectors). Each loaded strip of b feeds four output rows,
//    cutting b traffic 4x versus the scalar i-k-j loop; accumulators live
//    in registers for the whole k loop, so out is written exactly once.
//  * dot_rows processes two a rows against four b rows per pass (eight
//    independent accumulators, each b strip loaded once for both rows),
//    then reduces each row's four with a hadd tree.
//  * accum_outer uses the same 4x16 register tile over the accumulation
//    target: the tile is loaded once, takes one FMA per shared row in k
//    order, and is stored once.
// Tails (columns % 8, rows % 4) fall back to narrower vectors and then
// scalars that use std::fma, so they round the same at every optimization
// level (-O3 would otherwise vectorize some as plain multiplies and adds);
// every path is branch-free over values (no zero-skip — that branch is the
// reference backend's documented pessimization).

#include "ml/kernels_simd.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "ml/packed.h"

namespace arecel {
namespace mlk {
namespace {

inline float HSum(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
  return _mm_cvtss_f32(s);
}

// 4 rows x 16 cols micro-kernel: out rows i..i+3, cols j..j+15.
inline void DenseTile4x16(const float* a, size_t lda, const float* b,
                          size_t ldb, const float* bias, bool relu,
                          float* out, size_t ldo, size_t i, size_t j,
                          size_t k) {
  __m256 acc00, acc01, acc10, acc11, acc20, acc21, acc30, acc31;
  if (bias != nullptr) {
    const __m256 bias0 = _mm256_loadu_ps(bias + j);
    const __m256 bias1 = _mm256_loadu_ps(bias + j + 8);
    acc00 = bias0; acc01 = bias1;
    acc10 = bias0; acc11 = bias1;
    acc20 = bias0; acc21 = bias1;
    acc30 = bias0; acc31 = bias1;
  } else {
    acc00 = acc01 = acc10 = acc11 = _mm256_setzero_ps();
    acc20 = acc21 = acc30 = acc31 = _mm256_setzero_ps();
  }
  const float* a0 = a + i * lda;
  const float* a1 = a0 + lda;
  const float* a2 = a1 + lda;
  const float* a3 = a2 + lda;
  for (size_t kk = 0; kk < k; ++kk) {
    const float* b_row = b + kk * ldb + j;
    const __m256 b0 = _mm256_loadu_ps(b_row);
    const __m256 b1 = _mm256_loadu_ps(b_row + 8);
    __m256 av;
    av = _mm256_set1_ps(a0[kk]);
    acc00 = _mm256_fmadd_ps(av, b0, acc00);
    acc01 = _mm256_fmadd_ps(av, b1, acc01);
    av = _mm256_set1_ps(a1[kk]);
    acc10 = _mm256_fmadd_ps(av, b0, acc10);
    acc11 = _mm256_fmadd_ps(av, b1, acc11);
    av = _mm256_set1_ps(a2[kk]);
    acc20 = _mm256_fmadd_ps(av, b0, acc20);
    acc21 = _mm256_fmadd_ps(av, b1, acc21);
    av = _mm256_set1_ps(a3[kk]);
    acc30 = _mm256_fmadd_ps(av, b0, acc30);
    acc31 = _mm256_fmadd_ps(av, b1, acc31);
  }
  if (relu) {
    const __m256 zero = _mm256_setzero_ps();
    acc00 = _mm256_max_ps(acc00, zero); acc01 = _mm256_max_ps(acc01, zero);
    acc10 = _mm256_max_ps(acc10, zero); acc11 = _mm256_max_ps(acc11, zero);
    acc20 = _mm256_max_ps(acc20, zero); acc21 = _mm256_max_ps(acc21, zero);
    acc30 = _mm256_max_ps(acc30, zero); acc31 = _mm256_max_ps(acc31, zero);
  }
  float* o0 = out + i * ldo + j;
  float* o1 = o0 + ldo;
  float* o2 = o1 + ldo;
  float* o3 = o2 + ldo;
  _mm256_storeu_ps(o0, acc00); _mm256_storeu_ps(o0 + 8, acc01);
  _mm256_storeu_ps(o1, acc10); _mm256_storeu_ps(o1 + 8, acc11);
  _mm256_storeu_ps(o2, acc20); _mm256_storeu_ps(o2 + 8, acc21);
  _mm256_storeu_ps(o3, acc30); _mm256_storeu_ps(o3 + 8, acc31);
}

// `rows` (1..4) x 8 cols tile at (i, j).
inline void DenseTileRx8(const float* a, size_t lda, const float* b,
                         size_t ldb, const float* bias, bool relu, float* out,
                         size_t ldo, size_t i, size_t j, size_t k,
                         size_t rows) {
  __m256 acc[4];
  const __m256 init =
      bias != nullptr ? _mm256_loadu_ps(bias + j) : _mm256_setzero_ps();
  for (size_t r = 0; r < rows; ++r) acc[r] = init;
  for (size_t kk = 0; kk < k; ++kk) {
    const __m256 bv = _mm256_loadu_ps(b + kk * ldb + j);
    for (size_t r = 0; r < rows; ++r) {
      const __m256 av = _mm256_set1_ps(a[(i + r) * lda + kk]);
      acc[r] = _mm256_fmadd_ps(av, bv, acc[r]);
    }
  }
  const __m256 zero = _mm256_setzero_ps();
  for (size_t r = 0; r < rows; ++r) {
    if (relu) acc[r] = _mm256_max_ps(acc[r], zero);
    _mm256_storeu_ps(out + (i + r) * ldo + j, acc[r]);
  }
}

// Scalar column tail (n - j < 8) for `rows` rows at (i, j).
inline void DenseTailScalar(const float* a, size_t lda, const float* b,
                            size_t ldb, const float* bias, bool relu,
                            float* out, size_t ldo, size_t i, size_t j,
                            size_t k, size_t n, size_t rows) {
  for (size_t r = 0; r < rows; ++r) {
    for (size_t jj = j; jj < n; ++jj) {
      float acc = bias != nullptr ? bias[jj] : 0.0f;
      for (size_t kk = 0; kk < k; ++kk)
        acc = std::fma(a[(i + r) * lda + kk], b[kk * ldb + jj], acc);
      if (relu && acc < 0.0f) acc = 0.0f;
      out[(i + r) * ldo + jj] = acc;
    }
  }
}

void DenseRowsAvx2(const float* a, size_t lda, const float* b, size_t ldb,
                   const float* bias, bool relu, float* out, size_t ldo,
                   size_t i_lo, size_t i_hi, size_t k, size_t n) {
  size_t i = i_lo;
  for (; i + 4 <= i_hi; i += 4) {
    size_t j = 0;
    for (; j + 16 <= n; j += 16)
      DenseTile4x16(a, lda, b, ldb, bias, relu, out, ldo, i, j, k);
    for (; j + 8 <= n; j += 8)
      DenseTileRx8(a, lda, b, ldb, bias, relu, out, ldo, i, j, k, 4);
    if (j < n)
      DenseTailScalar(a, lda, b, ldb, bias, relu, out, ldo, i, j, k, n, 4);
  }
  const size_t rows = i_hi - i;
  if (rows > 0) {
    size_t j = 0;
    for (; j + 8 <= n; j += 8)
      DenseTileRx8(a, lda, b, ldb, bias, relu, out, ldo, i, j, k, rows);
    if (j < n)
      DenseTailScalar(a, lda, b, ldb, bias, relu, out, ldo, i, j, k, n, rows);
  }
}

// Finishes four dots of one a row against b rows b0..b3: reduces their
// 8-wide accumulators with the hadd tree, adds the k % 8 tail from `kk` one
// fma per element, and stores the four sums at out.
inline void StoreDots4(__m256 acc0, __m256 acc1, __m256 acc2, __m256 acc3,
                       const float* a_row, const float* b0, const float* b1,
                       const float* b2, const float* b3, size_t kk, size_t k,
                       float* out) {
  const __m256 h01 = _mm256_hadd_ps(acc0, acc1);
  const __m256 h23 = _mm256_hadd_ps(acc2, acc3);
  const __m256 h = _mm256_hadd_ps(h01, h23);
  const __m128 sums = _mm_add_ps(_mm256_castps256_ps128(h),
                                 _mm256_extractf128_ps(h, 1));
  alignas(16) float dots[4];
  _mm_store_ps(dots, sums);
  for (; kk < k; ++kk) {
    const float av = a_row[kk];
    dots[0] = std::fma(av, b0[kk], dots[0]);
    dots[1] = std::fma(av, b1[kk], dots[1]);
    dots[2] = std::fma(av, b2[kk], dots[2]);
    dots[3] = std::fma(av, b3[kk], dots[3]);
  }
  std::memcpy(out, dots, sizeof(dots));
}

// One dot's 8-wide accumulator reduced, plus its k % 8 tail from `kk`.
inline float FinishDot(__m256 acc, const float* a_row, const float* b_row,
                       size_t kk, size_t k) {
  float sum = HSum(acc);
  for (; kk < k; ++kk) sum = std::fma(a_row[kk], b_row[kk], sum);
  return sum;
}

// Rows a0 and a1 of a against b rows j..j+3: eight FMA chains, each b load
// shared by both rows.
inline void DotTile2x4(const float* a0, const float* a1, const float* b,
                       size_t ldb, float* o0, float* o1, size_t j, size_t k) {
  const float* b0 = b + j * ldb;
  const float* b1 = b0 + ldb;
  const float* b2 = b1 + ldb;
  const float* b3 = b2 + ldb;
  __m256 acc00 = _mm256_setzero_ps(), acc01 = _mm256_setzero_ps();
  __m256 acc02 = _mm256_setzero_ps(), acc03 = _mm256_setzero_ps();
  __m256 acc10 = _mm256_setzero_ps(), acc11 = _mm256_setzero_ps();
  __m256 acc12 = _mm256_setzero_ps(), acc13 = _mm256_setzero_ps();
  size_t kk = 0;
  for (; kk + 8 <= k; kk += 8) {
    const __m256 v0 = _mm256_loadu_ps(b0 + kk);
    const __m256 v1 = _mm256_loadu_ps(b1 + kk);
    const __m256 v2 = _mm256_loadu_ps(b2 + kk);
    const __m256 v3 = _mm256_loadu_ps(b3 + kk);
    const __m256 x0 = _mm256_loadu_ps(a0 + kk);
    acc00 = _mm256_fmadd_ps(x0, v0, acc00);
    acc01 = _mm256_fmadd_ps(x0, v1, acc01);
    acc02 = _mm256_fmadd_ps(x0, v2, acc02);
    acc03 = _mm256_fmadd_ps(x0, v3, acc03);
    const __m256 x1 = _mm256_loadu_ps(a1 + kk);
    acc10 = _mm256_fmadd_ps(x1, v0, acc10);
    acc11 = _mm256_fmadd_ps(x1, v1, acc11);
    acc12 = _mm256_fmadd_ps(x1, v2, acc12);
    acc13 = _mm256_fmadd_ps(x1, v3, acc13);
  }
  StoreDots4(acc00, acc01, acc02, acc03, a0, b0, b1, b2, b3, kk, k, o0 + j);
  StoreDots4(acc10, acc11, acc12, acc13, a1, b0, b1, b2, b3, kk, k, o1 + j);
}

// Two a rows per pass over b: B traffic is half a one-row pass's, and
// every output keeps that pass's arithmetic. An odd last row runs as a pair
// with itself, which costs one row's work and writes the same bits twice.
void DotRowsAvx2(const float* a, size_t lda, const float* b, size_t ldb,
                 float* out, size_t ldo, size_t i_lo, size_t i_hi, size_t k,
                 size_t n) {
  for (size_t i = i_lo; i < i_hi; i += 2) {
    const float* a0 = a + i * lda;
    const float* a1 = i + 1 < i_hi ? a0 + lda : a0;
    float* o0 = out + i * ldo;
    float* o1 = i + 1 < i_hi ? o0 + ldo : o0;
    size_t j = 0;
    for (; j + 4 <= n; j += 4) DotTile2x4(a0, a1, b, ldb, o0, o1, j, k);
    for (; j < n; ++j) {
      const float* b_row = b + j * ldb;
      __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
      size_t kk = 0;
      for (; kk + 8 <= k; kk += 8) {
        const __m256 bv = _mm256_loadu_ps(b_row + kk);
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a0 + kk), bv, acc0);
        acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a1 + kk), bv, acc1);
      }
      o0[j] = FinishDot(acc0, a0, b_row, kk, k);
      o1[j] = FinishDot(acc1, a1, b_row, kk, k);
    }
  }
}

// accum_outer register tile: R rows (1..4) of out, columns [j, j + 16).
// The block stays in 2R accumulators for the whole k range, so out is read
// and written once per tile instead of once per shared row. Each element
// still takes one FMA per kk in k order, the same chain as accumulating
// one shared row per call (kernels_simd.h). The unroll pragmas keep the
// tile in registers at -O2 as well, where GCC would otherwise leave the
// arrays on the stack.
template <size_t R>
inline void AccumTileRx16(const float* a, size_t lda, const float* b,
                          size_t ldb, float* out, size_t ldo, size_t i,
                          size_t j, size_t k_lo, size_t k_hi) {
  __m256 acc0[R], acc1[R];
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r) {
    acc0[r] = _mm256_loadu_ps(out + (i + r) * ldo + j);
    acc1[r] = _mm256_loadu_ps(out + (i + r) * ldo + j + 8);
  }
  for (size_t kk = k_lo; kk < k_hi; ++kk) {
    const float* a_row = a + kk * lda + i;
    const __m256 b0 = _mm256_loadu_ps(b + kk * ldb + j);
    const __m256 b1 = _mm256_loadu_ps(b + kk * ldb + j + 8);
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) {
      const __m256 av = _mm256_set1_ps(a_row[r]);
      acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
      acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
    }
  }
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r) {
    _mm256_storeu_ps(out + (i + r) * ldo + j, acc0[r]);
    _mm256_storeu_ps(out + (i + r) * ldo + j + 8, acc1[r]);
  }
}

// R rows x columns [j, j + 8).
template <size_t R>
inline void AccumTileRx8(const float* a, size_t lda, const float* b,
                         size_t ldb, float* out, size_t ldo, size_t i,
                         size_t j, size_t k_lo, size_t k_hi) {
  __m256 acc[R];
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r)
    acc[r] = _mm256_loadu_ps(out + (i + r) * ldo + j);
  for (size_t kk = k_lo; kk < k_hi; ++kk) {
    const float* a_row = a + kk * lda + i;
    const __m256 bv = _mm256_loadu_ps(b + kk * ldb + j);
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r)
      acc[r] = _mm256_fmadd_ps(_mm256_set1_ps(a_row[r]), bv, acc[r]);
  }
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r)
    _mm256_storeu_ps(out + (i + r) * ldo + j, acc[r]);
}

// R rows x one column j: the scalar tail, one std::fma per row like the
// vector tiles, so its rounding does not depend on the compiler's
// contraction setting.
template <size_t R>
inline void AccumColumnRx1(const float* a, size_t lda, const float* b,
                           size_t ldb, float* out, size_t ldo, size_t i,
                           size_t j, size_t k_lo, size_t k_hi) {
  float acc[R];
  for (size_t r = 0; r < R; ++r) acc[r] = out[(i + r) * ldo + j];
  for (size_t kk = k_lo; kk < k_hi; ++kk) {
    const float bv = b[kk * ldb + j];
    for (size_t r = 0; r < R; ++r)
      acc[r] = std::fma(a[kk * lda + i + r], bv, acc[r]);
  }
  for (size_t r = 0; r < R; ++r) out[(i + r) * ldo + j] = acc[r];
}

template <size_t R>
inline void AccumRowsAvx2(const float* a, size_t lda, const float* b,
                          size_t ldb, float* out, size_t ldo, size_t i,
                          size_t k_lo, size_t k_hi, size_t n) {
  size_t j = 0;
  for (; j + 16 <= n; j += 16)
    AccumTileRx16<R>(a, lda, b, ldb, out, ldo, i, j, k_lo, k_hi);
  for (; j + 8 <= n; j += 8)
    AccumTileRx8<R>(a, lda, b, ldb, out, ldo, i, j, k_lo, k_hi);
  for (; j < n; ++j)
    AccumColumnRx1<R>(a, lda, b, ldb, out, ldo, i, j, k_lo, k_hi);
}

void AccumOuterAvx2(const float* a, size_t lda, const float* b, size_t ldb,
                    float* out, size_t ldo, size_t k_lo, size_t k_hi,
                    size_t m, size_t n) {
  size_t i = 0;
  for (; i + 4 <= m; i += 4)
    AccumRowsAvx2<4>(a, lda, b, ldb, out, ldo, i, k_lo, k_hi, n);
  switch (m - i) {
    case 3:
      AccumRowsAvx2<3>(a, lda, b, ldb, out, ldo, i, k_lo, k_hi, n);
      break;
    case 2:
      AccumRowsAvx2<2>(a, lda, b, ldb, out, ldo, i, k_lo, k_hi, n);
      break;
    case 1:
      AccumRowsAvx2<1>(a, lda, b, ldb, out, ldo, i, k_lo, k_hi, n);
      break;
    default:
      break;
  }
}

// R rows x one 16-column tile of the int8 kernel. A 64-byte packed group is
// 16 columns x 4 k bytes; each 32-byte half maddubs/madd-reduces to eight
// per-column int32 partials (acc_lo covers jbase..jbase+7, acc_hi the
// rest), and the R rows share each group load. The dequant epilogue is
// vectorized but keeps QuantEpilogue's exact float sequence per lane, so
// quant outputs stay bit-identical to the portable tier's scalar epilogue;
// edge tiles fall back to that scalar epilogue directly.
template <size_t R>
inline void QuantTileAvx2(const uint8_t* aq, size_t lda_q, const int8_t* tp,
                          size_t k_pad, const float* a_scales,
                          const int32_t* a_zps, const float* w_scales,
                          const int32_t* w_col_sums, const float* bias,
                          bool relu, float* out, size_t ldo, size_t i,
                          size_t jbase, size_t col_begin, size_t col_end) {
  const __m256i ones16 = _mm256_set1_epi16(1);
  __m256i acc_lo[R], acc_hi[R];
  const uint8_t* a_rows[R];
  for (size_t r = 0; r < R; ++r) {
    acc_lo[r] = _mm256_setzero_si256();
    acc_hi[r] = _mm256_setzero_si256();
    a_rows[r] = aq + (i + r) * lda_q;
  }
  for (size_t kg = 0; kg < k_pad; kg += kQuantKGroup) {
    const int8_t* group = tp + kg * kPackTileCols;
    const __m256i b_lo =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(group));
    const __m256i b_hi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(group + 32));
    for (size_t r = 0; r < R; ++r) {
      int32_t a4;
      std::memcpy(&a4, a_rows[r] + kg, sizeof(a4));
      const __m256i av = _mm256_set1_epi32(a4);
      // u8*s8 pair-sums cannot saturate: activations are 7-bit.
      acc_lo[r] = _mm256_add_epi32(
          acc_lo[r],
          _mm256_madd_epi16(_mm256_maddubs_epi16(av, b_lo), ones16));
      acc_hi[r] = _mm256_add_epi32(
          acc_hi[r],
          _mm256_madd_epi16(_mm256_maddubs_epi16(av, b_hi), ones16));
    }
  }
  if (jbase >= col_begin && jbase + kPackTileCols <= col_end) {
    const __m256i sums_lo = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(w_col_sums + jbase));
    const __m256i sums_hi = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(w_col_sums + jbase + 8));
    const __m256 wsc_lo = _mm256_loadu_ps(w_scales + jbase);
    const __m256 wsc_hi = _mm256_loadu_ps(w_scales + jbase + 8);
    const __m256 bias_lo =
        bias != nullptr ? _mm256_loadu_ps(bias + jbase) : _mm256_setzero_ps();
    const __m256 bias_hi = bias != nullptr ? _mm256_loadu_ps(bias + jbase + 8)
                                           : _mm256_setzero_ps();
    const __m256 zero = _mm256_setzero_ps();
    for (size_t r = 0; r < R; ++r) {
      const __m256i zp = _mm256_set1_epi32(a_zps[i + r]);
      const __m256 a_sc = _mm256_set1_ps(a_scales[i + r]);
      const __m256i x_lo =
          _mm256_sub_epi32(acc_lo[r], _mm256_mullo_epi32(zp, sums_lo));
      const __m256i x_hi =
          _mm256_sub_epi32(acc_hi[r], _mm256_mullo_epi32(zp, sums_hi));
      __m256 prod_lo =
          _mm256_mul_ps(_mm256_cvtepi32_ps(x_lo), _mm256_mul_ps(a_sc, wsc_lo));
      __m256 prod_hi =
          _mm256_mul_ps(_mm256_cvtepi32_ps(x_hi), _mm256_mul_ps(a_sc, wsc_hi));
      // Barrier: GCC's -ffp-contract=fast fuses mul/add intrinsic pairs
      // into FMAs, which would break bit-identity with QuantEpilogue's
      // two-rounding sequence (kernels_simd.h).
      asm("" : "+x"(prod_lo), "+x"(prod_hi));
      __m256 v_lo = _mm256_add_ps(prod_lo, bias_lo);
      __m256 v_hi = _mm256_add_ps(prod_hi, bias_hi);
      if (relu) {
        v_lo = _mm256_max_ps(v_lo, zero);
        v_hi = _mm256_max_ps(v_hi, zero);
      }
      float* o = out + (i + r) * ldo + (jbase - col_begin);
      _mm256_storeu_ps(o, v_lo);
      _mm256_storeu_ps(o + 8, v_hi);
    }
  } else {
    const size_t c_lo = jbase < col_begin ? col_begin - jbase : 0;
    const size_t c_hi =
        col_end - jbase < kPackTileCols ? col_end - jbase : kPackTileCols;
    alignas(32) int32_t accs[kPackTileCols];
    for (size_t r = 0; r < R; ++r) {
      _mm256_store_si256(reinterpret_cast<__m256i*>(accs), acc_lo[r]);
      _mm256_store_si256(reinterpret_cast<__m256i*>(accs + 8), acc_hi[r]);
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

void QuantDenseRowsAvx2(const uint8_t* aq, size_t lda_q, const float* a_scales,
                        const int32_t* a_zps, const int8_t* bq, size_t k_pad,
                        size_t n_pad, const float* w_scales,
                        const int32_t* w_col_sums, const float* bias,
                        bool relu, float* out, size_t ldo, size_t i_lo,
                        size_t i_hi, size_t col_begin, size_t cols) {
  (void)n_pad;
  const size_t col_end = col_begin + cols;
  const size_t t0 = col_begin / kPackTileCols;
  size_t i = i_lo;
  while (i < i_hi) {
    const size_t rows = i + 4 <= i_hi ? 4 : i_hi - i;
    for (size_t t = t0; t * kPackTileCols < col_end; ++t) {
      const size_t jbase = t * kPackTileCols;
      const int8_t* tp = bq + jbase * k_pad;
      switch (rows) {
        case 4:
          QuantTileAvx2<4>(aq, lda_q, tp, k_pad, a_scales, a_zps, w_scales,
                           w_col_sums, bias, relu, out, ldo, i, jbase,
                           col_begin, col_end);
          break;
        case 3:
          QuantTileAvx2<3>(aq, lda_q, tp, k_pad, a_scales, a_zps, w_scales,
                           w_col_sums, bias, relu, out, ldo, i, jbase,
                           col_begin, col_end);
          break;
        case 2:
          QuantTileAvx2<2>(aq, lda_q, tp, k_pad, a_scales, a_zps, w_scales,
                           w_col_sums, bias, relu, out, ldo, i, jbase,
                           col_begin, col_end);
          break;
        default:
          QuantTileAvx2<1>(aq, lda_q, tp, k_pad, a_scales, a_zps, w_scales,
                           w_col_sums, bias, relu, out, ldo, i, jbase,
                           col_begin, col_end);
          break;
      }
    }
    i += rows;
  }
}

// 8-wide activation quantization (ml/packed.h scheme). Replicates
// QuantizeRowsPortable's arithmetic exactly: every element goes through the
// same mul / add / max / min / cvtt sequence (mul and add kept as two
// separately-rounded operations — a register barrier stops GCC from
// contracting the intrinsic pair into a vfmadd — because the portable
// loop's two roundings define the contract), and short tails run through a
// zero-padded full
// vector instead of a scalar loop, so no element ever takes a different
// code path. Zero padding is harmless in the range pass because the range
// includes 0 by construction. The lane reductions for min/max are exactly
// associative over finite activations, so the per-row scale and zero point
// also match the portable tier bit for bit.
void QuantizeRowsAvx2(const float* a, size_t lda, size_t k, uint8_t* aq,
                      size_t lda_q, float* a_scales, int32_t* a_zps,
                      size_t i_lo, size_t i_hi) {
  const __m256 vzero = _mm256_setzero_ps();
  const __m256 vcap = _mm256_set1_ps(127.5f);
  const size_t kv = k & ~static_cast<size_t>(7);
  for (size_t i = i_lo; i < i_hi; ++i) {
    const float* row = a + i * lda;
    uint8_t* dst = aq + i * lda_q;
    alignas(32) float tailbuf[8] = {0};
    if (kv < k) std::memcpy(tailbuf, row + kv, (k - kv) * sizeof(float));
    __m256 vmin = vzero, vmax = vzero;
    for (size_t kk = 0; kk < kv; kk += 8) {
      const __m256 v = _mm256_loadu_ps(row + kk);
      vmin = _mm256_min_ps(vmin, v);
      vmax = _mm256_max_ps(vmax, v);
    }
    if (kv < k) {
      const __m256 v = _mm256_load_ps(tailbuf);
      vmin = _mm256_min_ps(vmin, v);
      vmax = _mm256_max_ps(vmax, v);
    }
    __m128 m4 = _mm_min_ps(_mm256_castps256_ps128(vmin),
                           _mm256_extractf128_ps(vmin, 1));
    m4 = _mm_min_ps(m4, _mm_movehl_ps(m4, m4));
    m4 = _mm_min_ss(m4, _mm_shuffle_ps(m4, m4, 1));
    const float min_v = _mm_cvtss_f32(m4);
    __m128 x4 = _mm_max_ps(_mm256_castps256_ps128(vmax),
                           _mm256_extractf128_ps(vmax, 1));
    x4 = _mm_max_ps(x4, _mm_movehl_ps(x4, x4));
    x4 = _mm_max_ss(x4, _mm_shuffle_ps(x4, x4, 1));
    const float max_v = _mm_cvtss_f32(x4);
    const float range = max_v - min_v;
    const float scale = range > 0.0f ? range / 127.0f : 1.0f;
    const int32_t zp = static_cast<int32_t>(
        std::clamp<long>(std::lrintf(-min_v / scale), 0, 127));
    a_scales[i] = scale;
    a_zps[i] = zp;
    const __m256 vinv = _mm256_set1_ps(1.0f / scale);
    const __m256 vzp = _mm256_set1_ps(static_cast<float>(zp) + 0.5f);
    for (size_t kk = 0; kk < kv; kk += 8) {
      __m256 prod = _mm256_mul_ps(_mm256_loadu_ps(row + kk), vinv);
      // Barrier: keep mul and add separately rounded (no FMA contraction),
      // matching QuantizeRowsPortable's -ffp-contract=off arithmetic.
      asm("" : "+x"(prod));
      __m256 q = _mm256_add_ps(prod, vzp);
      q = _mm256_min_ps(_mm256_max_ps(q, vzero), vcap);
      const __m256i qi = _mm256_cvttps_epi32(q);
      const __m128i p16 = _mm_packs_epi32(_mm256_castsi256_si128(qi),
                                          _mm256_extracti128_si256(qi, 1));
      const __m128i p8 = _mm_packus_epi16(p16, p16);
      _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + kk), p8);
    }
    if (kv < k) {
      __m256 prod = _mm256_mul_ps(_mm256_load_ps(tailbuf), vinv);
      asm("" : "+x"(prod));
      __m256 q = _mm256_add_ps(prod, vzp);
      q = _mm256_min_ps(_mm256_max_ps(q, vzero), vcap);
      const __m256i qi = _mm256_cvttps_epi32(q);
      const __m128i p16 = _mm_packs_epi32(_mm256_castsi256_si128(qi),
                                          _mm256_extracti128_si256(qi, 1));
      const __m128i p8 = _mm_packus_epi16(p16, p16);
      alignas(16) uint8_t tmp[16];
      _mm_store_si128(reinterpret_cast<__m128i*>(tmp), p8);
      std::memcpy(dst + kv, tmp, k - kv);
    }
    for (size_t kk = k; kk < lda_q; ++kk) dst[kk] = 0;
  }
}

// Adam's update 8 lanes at a time, in the portable loop's per-lane
// sequence of separately rounded operations (kernels_simd.h): a register
// barrier after each multiply that feeds an add keeps GCC from contracting
// the pair into an FMA, and vector sqrt and division round as their scalar
// forms do. The n % 8 tail runs the portable loop itself.
void AdamUpdateAvx2(float* param, const float* grad, float* m, float* v,
                    size_t n, float lr, float c1, float c2) {
  const __m256 beta1 = _mm256_set1_ps(kAdamBeta1);
  const __m256 beta2 = _mm256_set1_ps(kAdamBeta2);
  const __m256 one_minus_beta1 = _mm256_set1_ps(1.0f - kAdamBeta1);
  const __m256 one_minus_beta2 = _mm256_set1_ps(1.0f - kAdamBeta2);
  const __m256 eps = _mm256_set1_ps(kAdamEps);
  const __m256 lr_v = _mm256_set1_ps(lr);
  const __m256 c1_v = _mm256_set1_ps(c1);
  const __m256 c2_v = _mm256_set1_ps(c2);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 g = _mm256_loadu_ps(grad + i);
    __m256 m_decay = _mm256_mul_ps(beta1, _mm256_loadu_ps(m + i));
    __m256 m_step = _mm256_mul_ps(one_minus_beta1, g);
    __m256 v_decay = _mm256_mul_ps(beta2, _mm256_loadu_ps(v + i));
    __m256 v_step = _mm256_mul_ps(_mm256_mul_ps(one_minus_beta2, g), g);
    asm("" : "+x"(m_decay), "+x"(m_step), "+x"(v_decay), "+x"(v_step));
    const __m256 m_new = _mm256_add_ps(m_decay, m_step);
    const __m256 v_new = _mm256_add_ps(v_decay, v_step);
    const __m256 m_hat = _mm256_div_ps(m_new, c1_v);
    const __m256 v_hat = _mm256_div_ps(v_new, c2_v);
    const __m256 update =
        _mm256_div_ps(_mm256_mul_ps(lr_v, m_hat),
                      _mm256_add_ps(_mm256_sqrt_ps(v_hat), eps));
    _mm256_storeu_ps(m + i, m_new);
    _mm256_storeu_ps(v + i, v_new);
    _mm256_storeu_ps(param + i,
                     _mm256_sub_ps(_mm256_loadu_ps(param + i), update));
  }
  PortableKernelOps().adam_update(param + i, grad + i, m + i, v + i, n - i,
                                  lr, c1, c2);
}

constexpr KernelOps kAvx2Ops = {
    DenseRowsAvx2,
    DotRowsAvx2,
    AccumOuterAvx2,
    QuantDenseRowsAvx2,
    QuantizeRowsAvx2,
    AdamUpdateAvx2,
    "avx2-fma",
};

}  // namespace

const KernelOps* Avx2KernelOps() { return &kAvx2Ops; }

}  // namespace mlk
}  // namespace arecel

#else  // !(__AVX2__ && __FMA__)

namespace arecel {
namespace mlk {

const KernelOps* Avx2KernelOps() { return nullptr; }

}  // namespace mlk
}  // namespace arecel

#endif
