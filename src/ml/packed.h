#ifndef ARECEL_ML_PACKED_H_
#define ARECEL_ML_PACKED_H_

#include <cstdint>
#include <cstddef>
#include <vector>

#include "ml/matrix.h"

namespace arecel {

// Inference-only int8 weight form for the dense forward path (DESIGN.md
// §10), run by the quant backend.
//
// QuantizedDense holds int8 weight codes with symmetric per-column scales
// (w_q = round(w / scale_j), scale_j = max_j|w| / 127), laid out in
// column-tile order: for each 16-column tile, all k rows of that tile are
// contiguous. The kernel then streams the packed buffer sequentially, and a
// column slice (progressive sampling reads one column's logit segment)
// touches only the tiles covering it. Inside a tile, k is interleaved in
// groups of 4 bytes per column, so a 64-byte row of the packed buffer is 16
// columns x 4 consecutive k — exactly the operand shape of
// maddubs/dpbusd-style u8*s8 dot products. Activations are quantized per
// row at call time to unsigned 7-bit ([0, 127], asymmetric with a zero
// point) so the u8*s8 pair sums can never saturate the int16 intermediate:
// 127*127*2 = 32258 < 32767.
// The int32 accumulation is exact, which makes quantized outputs
// bit-identical across the portable / AVX2 / AVX-512 tiers.
//
// The pack is a derived cache: the fp32 Matrix stays the source of truth
// (training, serialization, the fp32 backends), and any weight mutation
// must drop the pack (DenseLayer::ClearPacked).

// Column-tile width of the int8 layout. Matches the 16-column register
// tile of the AVX2/AVX-512 kernels.
inline constexpr size_t kPackTileCols = 16;
// k-interleave group of the int8 layout (bytes per column per 64-byte row).
inline constexpr size_t kQuantKGroup = 4;

// Int8 symmetric per-column quantized form of a (k x n) weight matrix in
// the k-grouped tile layout described above. Scales/column sums carry the
// dequantization epilogue:
//   out[j] = (acc_j - zp_row * col_sum[j]) * (act_scale_row * scale[j]) + bias[j]
class QuantizedDense {
 public:
  QuantizedDense() = default;

  void Quantize(const Matrix& b);

  size_t rows() const { return rows_; }        // k.
  size_t cols() const { return cols_; }        // n (unpadded).
  size_t padded_rows() const { return padded_rows_; }  // k rounded to 4.
  size_t padded_cols() const { return padded_cols_; }
  const int8_t* data() const { return data_.data(); }
  const float* scales() const { return scales_.data(); }
  const int32_t* col_sums() const { return col_sums_.data(); }
  size_t SizeBytes() const {
    return data_.size() + scales_.size() * sizeof(float) +
           col_sums_.size() * sizeof(int32_t);
  }

 private:
  size_t rows_ = 0, cols_ = 0, padded_rows_ = 0, padded_cols_ = 0;
  std::vector<int8_t, AlignedAllocator<int8_t, kMatrixAlignment>> data_;
  std::vector<float> scales_;      // per padded column (pad scale = 1).
  std::vector<int32_t> col_sums_;  // per padded column (pad sum = 0).
};

// The inference form a dense consumer caches next to its fp32 weights.
// Build() quantizes the current weights; a default constructed instance
// means "not packed" and consumers fall back to the fp32 kernels.
struct PackedDenseWeights {
  QuantizedDense q8;
  bool has = false;

  void Build(const Matrix& weights) {
    q8.Quantize(weights);
    has = true;
  }
  void Clear() { *this = PackedDenseWeights(); }
  size_t SizeBytes() const { return q8.SizeBytes(); }
};

// out = act(input * W + bias) in int8 over the packed weights, whatever the
// active backend; layers call it only under kQuant (ml/kernels.h).
// `packed` must have been built from a (input.cols() x n) matrix; `bias`
// has length n or is null.
void PackedDenseForward(const Matrix& input, const PackedDenseWeights& packed,
                        const float* bias, bool relu, Matrix* out);

// Sliced int8 head: absolute weight columns [col_begin, col_begin + cols),
// written to out columns [0, cols). `bias` points at the FULL bias vector,
// as in DenseForwardSlice.
void PackedDenseForwardSlice(const Matrix& input,
                             const PackedDenseWeights& packed,
                             const float* bias, size_t col_begin, size_t cols,
                             Matrix* out);

// Per-row unsigned 7-bit activation quantization, dispatched on the active
// SIMD tier (every tier performs the identical elementwise sequence, so
// quantized codes are bit-identical regardless of which tier ran — see
// KernelOps::quantize_rows). Writes padded_rows bytes per row into
// `quantized` (pad bytes zero), one scale and zero point per row. Buffers
// are resized, not cleared: callers may reuse scratch across calls.
// Exposed for tests.
void QuantizeActivations(const Matrix& input, size_t padded_rows,
                         std::vector<uint8_t>* quantized,
                         std::vector<float>* scales,
                         std::vector<int32_t>* zero_points);

}  // namespace arecel

#endif  // ARECEL_ML_PACKED_H_
