#include "ml/packed.h"

#include <algorithm>
#include <cmath>

#include "ml/kernels_simd.h"
#include "util/check.h"

namespace arecel {

void QuantizedDense::Quantize(const Matrix& b) {
  rows_ = b.rows();
  cols_ = b.cols();
  padded_rows_ = (rows_ + kQuantKGroup - 1) / kQuantKGroup * kQuantKGroup;
  padded_cols_ =
      (cols_ + kPackTileCols - 1) / kPackTileCols * kPackTileCols;
  data_.assign(padded_cols_ * padded_rows_, 0);
  scales_.assign(padded_cols_, 1.0f);
  col_sums_.assign(padded_cols_, 0);
  for (size_t j = 0; j < cols_; ++j) {
    float max_abs = 0.0f;
    for (size_t kk = 0; kk < rows_; ++kk)
      max_abs = std::max(max_abs, std::abs(b.At(kk, j)));
    const float scale = max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
    scales_[j] = scale;
    const size_t tile = j / kPackTileCols;
    const size_t c = j % kPackTileCols;
    int8_t* tp = data_.data() + tile * kPackTileCols * padded_rows_;
    int32_t sum = 0;
    for (size_t kk = 0; kk < rows_; ++kk) {
      long q = std::lrintf(b.At(kk, j) / scale);
      q = std::clamp<long>(q, -127, 127);
      sum += static_cast<int32_t>(q);
      // 64-byte group layout: group kg holds columns c in 0..15 as 4
      // consecutive k bytes each — the operand shape of maddubs products.
      const size_t kg = kk / kQuantKGroup;
      tp[kg * kPackTileCols * kQuantKGroup + c * kQuantKGroup +
         kk % kQuantKGroup] = static_cast<int8_t>(q);
    }
    col_sums_[j] = sum;
  }
}

namespace mlk {

void QuantizeRowsPortable(const float* a, size_t lda, size_t k, uint8_t* aq,
                          size_t lda_q, float* a_scales, int32_t* a_zps,
                          size_t i_lo, size_t i_hi) {
  for (size_t i = i_lo; i < i_hi; ++i) {
    const float* row = a + i * lda;
    // Include zero in the range (standard affine-quant practice): the zero
    // point then represents 0 exactly for non-negative post-ReLU rows, and
    // constant rows quantize losslessly to one code.
    float min_v = 0.0f, max_v = 0.0f;
    for (size_t kk = 0; kk < k; ++kk) {
      min_v = std::min(min_v, row[kk]);
      max_v = std::max(max_v, row[kk]);
    }
    const float range = max_v - min_v;
    // 7-bit codes ([0,127]) keep u8*s8 pair sums below the int16 saturation
    // bound of maddubs: 127*127*2 = 32258 < 32767.
    const float scale = range > 0.0f ? range / 127.0f : 1.0f;
    const int32_t zp = static_cast<int32_t>(
        std::clamp<long>(std::lrintf(-min_v / scale), 0, 127));
    a_scales[i] = scale;
    a_zps[i] = zp;
    uint8_t* dst = aq + i * lda_q;
    // Hot loop: multiply by the reciprocal scale, add the zero point with
    // the +0.5 rounding bias pre-folded in (zp + 0.5 is exact — zp is a
    // small integer), clamp, truncate. Clamping to [0, 127.5] before the
    // truncate is equivalent to clamping codes to [0, 127]: anything below
    // 0 truncates to 0, anything at the cap truncates to 127. Keeping the
    // clamp as the last float op is what lets GCC auto-vectorize this at
    // the baseline ISA (a post-clamp `+ 0.5f` defeats its if-conversion).
    // The SIMD tiers replicate this sequence lane-wise with intrinsics
    // (mul, add — never fused — then max/min/cvtt), so codes match this
    // implementation bit for bit (ml/kernels_simd.h).
    const float inv = 1.0f / scale;
    const float zpf_half = static_cast<float>(zp) + 0.5f;
    for (size_t kk = 0; kk < k; ++kk) {
      const float q =
          std::min(std::max(row[kk] * inv + zpf_half, 0.0f), 127.5f);
      dst[kk] = static_cast<uint8_t>(static_cast<int32_t>(q));
    }
    for (size_t kk = k; kk < lda_q; ++kk) dst[kk] = 0;
  }
}

}  // namespace mlk

void QuantizeActivations(const Matrix& input, size_t padded_rows,
                         std::vector<uint8_t>* quantized,
                         std::vector<float>* scales,
                         std::vector<int32_t>* zero_points) {
  const size_t m = input.rows(), k = input.cols();
  ARECEL_CHECK(padded_rows >= k);
  // resize (not assign): callers reuse these buffers across forward calls,
  // and quantize_rows overwrites every byte it is responsible for (payload
  // codes and the pad tail of each row alike).
  quantized->resize(m * padded_rows);
  scales->resize(m);
  zero_points->resize(m);
  mlk::ActiveKernelOps().quantize_rows(input.data(), input.cols(), k,
                                       quantized->data(), padded_rows,
                                       scales->data(), zero_points->data(),
                                       0, m);
}

}  // namespace arecel
