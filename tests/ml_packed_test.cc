// Tests of the int8 inference form (ml/packed.h): the quantized weight
// layout, activation quantization, and the quant forward kernels —
// differentially against the fp32 kernels and against a scalar emulation
// of the int8 contract, swept over every ISA tier the binary and CPU
// support — plus the layer-level pack lifecycle.
//
// Bit-identity assertions here are load-bearing: the quant backend's
// numbers (BENCH_ml.json q-error gates, serving estimates) are only
// reproducible across machines because every tier — portable, AVX2,
// AVX-512, with or without VNNI — computes the exact same codes and the
// exact same dequantized floats. A tolerance would hide a tier drifting.

#include "ml/packed.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "ml/kernels.h"
#include "ml/kernels_simd.h"
#include "ml/matrix.h"
#include "ml/nn.h"
#include "util/random.h"

namespace arecel {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(rng.Uniform(-1, 1));
  return m;
}

std::vector<float> RandomBias(size_t n, Rng& rng) {
  std::vector<float> bias(n);
  for (auto& v : bias) v = static_cast<float>(rng.Uniform(-1, 1));
  return bias;
}

void ExpectNear(const Matrix& a, const Matrix& b, float tol) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t i = 0; i < a.size(); ++i)
    ASSERT_NEAR(a.data()[i], b.data()[i], tol) << "flat index " << i;
}

void ExpectIdentical(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a.data()[i], b.data()[i]) << "flat index " << i;
}

// Adversarial (m, k, n) shapes, mirroring tests/ml_kernels_test.cc: tile
// tails (n % 16 != 0), k-group tails (k % 4 != 0), the k == 0 degenerate
// contraction, single-row / single-column extremes, shapes spanning
// multiple 16-column tiles, and one past the 4M-madd threshold above which
// the forward fans rows out over the worker pool (ml/kernels.cc).
struct Shape {
  size_t m, k, n;
};
const Shape kShapes[] = {
    {1, 1, 1},    {1, 1, 7},    {7, 3, 1},    {1, 5, 8},    {2, 8, 9},
    {3, 16, 17},  {4, 7, 33},   {5, 64, 1},   {8, 1, 64},   {4, 0, 9},
    {1, 0, 1},    {33, 17, 65}, {5, 300, 23}, {64, 64, 64}, {13, 31, 130},
    {67, 250, 257},
};

TEST(QuantizedDenseTest, WeightCodesScalesAndColumnSums) {
  Rng rng(22);
  for (const Shape& s : kShapes) {
    const Matrix b = RandomMatrix(s.k, s.n, rng);
    QuantizedDense q;
    q.Quantize(b);
    SCOPED_TRACE(testing::Message() << "k=" << s.k << " n=" << s.n);
    ASSERT_EQ(q.rows(), s.k);
    ASSERT_EQ(q.cols(), s.n);
    ASSERT_EQ(q.padded_rows() % kQuantKGroup, 0u);
    ASSERT_EQ(q.padded_cols() % kPackTileCols, 0u);
    for (size_t j = 0; j < q.padded_cols(); ++j) {
      // Re-derive the per-column scheme independently.
      float max_abs = 0.0f;
      for (size_t kk = 0; kk < s.k && j < s.n; ++kk)
        max_abs = std::max(max_abs, std::abs(b.At(kk, j)));
      const float scale = max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
      ASSERT_EQ(q.scales()[j], j < s.n ? scale : 1.0f) << "col " << j;
      const int8_t* tp =
          q.data() + (j / kPackTileCols) * kPackTileCols * q.padded_rows();
      const size_t c = j % kPackTileCols;
      int32_t sum = 0;
      for (size_t kk = 0; kk < q.padded_rows(); ++kk) {
        const int8_t code =
            tp[(kk / kQuantKGroup) * kPackTileCols * kQuantKGroup +
               c * kQuantKGroup + kk % kQuantKGroup];
        if (j < s.n && kk < s.k) {
          const long want =
              std::clamp<long>(std::lrintf(b.At(kk, j) / scale), -127, 127);
          ASSERT_EQ(code, static_cast<int8_t>(want)) << "k=" << kk << " j=" << j;
          // Symmetric codes reconstruct within half a step.
          ASSERT_NEAR(static_cast<float>(code) * scale, b.At(kk, j),
                      scale * 0.5f + 1e-6f);
        } else {
          ASSERT_EQ(code, 0) << "pad k=" << kk << " j=" << j;  // pad zero.
        }
        sum += code;
      }
      ASSERT_EQ(q.col_sums()[j], sum) << "col " << j;
    }
  }
}

TEST(PackedDenseTest, ForwardSliceAdversarialWindowsMatchReference) {
  Rng rng(24);
  const size_t m = 6, k = 33, n = 50;
  const Matrix input = RandomMatrix(m, k, rng);
  const Matrix weights = RandomMatrix(k, n, rng);
  const std::vector<float> bias = RandomBias(n, rng);
  PackedDenseWeights packed;
  packed.Build(weights);
  // Windows straddling tile boundaries: inside one tile, crossing 16,
  // tile-aligned, single-column at both ends, full width.
  const size_t slices[][2] = {{0, 1},  {3, 7},  {13, 17}, {15, 2},
                              {16, 16}, {31, 19}, {49, 1},  {0, 50}};
  Matrix ref;
  for (const auto& sl : slices) {
    const size_t begin = sl[0], cols = sl[1];
    {
      ScopedMlKernelBackend scoped(MlKernelBackend::kReference);
      DenseForwardSlice(input, weights, bias.data(), begin, cols, &ref);
    }
    SCOPED_TRACE(testing::Message() << "begin=" << begin << " cols=" << cols);
    for (const char* isa : AvailableMlKernelIsas()) {
      ScopedMlKernelIsa scoped_isa(isa);
      ASSERT_TRUE(scoped_isa.ok()) << isa;
      SCOPED_TRACE(testing::Message() << "isa=" << isa);
      Matrix got;
      PackedDenseForwardSlice(input, packed, bias.data(), begin, cols, &got);
      // Int8 path: lossy by construction. Error bound: per-term
      // |a|,|w| <= 1 with activation step <= 2/127 and weight step
      // <= 1/127 gives <= ~0.012 per k term worst-case.
      ExpectNear(ref, got, 0.02f + 0.013f * static_cast<float>(k));
    }
  }
}

TEST(QuantizedDenseTest, ActivationQuantizationBitIdenticalAcrossIsas) {
  Rng rng(25);
  // k values hitting every SIMD tail class (8- and 16-lane remainders) and
  // the k-group pad.
  for (size_t k : {1u, 3u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 33u, 64u, 100u,
                   300u}) {
    const size_t m = 5;
    Matrix input = RandomMatrix(m, k, rng);
    // Adversarial rows: all-zero (range 0), constant, non-negative
    // (post-ReLU regime), non-positive.
    for (size_t kk = 0; kk < k; ++kk) {
      input.At(0, kk) = 0.0f;
      input.At(1, kk) = 0.75f;
      input.At(2, kk) = std::abs(input.At(2, kk));
      input.At(3, kk) = -std::abs(input.At(3, kk));
    }
    const size_t padded = (k + kQuantKGroup - 1) / kQuantKGroup * kQuantKGroup;
    std::vector<uint8_t> base_q;
    std::vector<float> base_s;
    std::vector<int32_t> base_z;
    QuantizeActivations(input, padded, &base_q, &base_s, &base_z);
    ASSERT_EQ(base_q.size(), m * padded);
    for (size_t i = 0; i < m; ++i) {
      for (size_t kk = k; kk < padded; ++kk)
        ASSERT_EQ(base_q[i * padded + kk], 0u) << "pad row " << i;
      // Codes are 7-bit and the zero point is a valid code.
      ASSERT_GE(base_z[i], 0);
      ASSERT_LE(base_z[i], 127);
      for (size_t kk = 0; kk < k; ++kk)
        ASSERT_LE(base_q[i * padded + kk], 127u);
    }
    // Zero row must be exactly representable: every code == zero point.
    for (size_t kk = 0; kk < k; ++kk)
      ASSERT_EQ(base_q[kk], static_cast<uint8_t>(base_z[0]));
    for (const char* isa : AvailableMlKernelIsas()) {
      ScopedMlKernelIsa scoped_isa(isa);
      ASSERT_TRUE(scoped_isa.ok()) << isa;
      std::vector<uint8_t> q;
      std::vector<float> sc;
      std::vector<int32_t> zp;
      QuantizeActivations(input, padded, &q, &sc, &zp);
      SCOPED_TRACE(testing::Message() << "isa=" << isa << " k=" << k);
      ASSERT_EQ(q, base_q);
      ASSERT_EQ(sc, base_s);
      ASSERT_EQ(zp, base_z);
    }
  }
}

// Scalar emulation of the int8 forward contract: activation codes from
// QuantizeActivations, weight codes re-derived from the fp32 matrix, exact
// int32 accumulation, then the shared QuantEpilogue float sequence. Every
// kernel tier must reproduce this bit for bit — this is what makes the
// quant backend's output machine-independent.
Matrix QuantForwardEmulation(const Matrix& input, const Matrix& weights,
                             const float* bias, bool relu) {
  const size_t m = input.rows(), k = input.cols(), n = weights.cols();
  const size_t padded = (k + kQuantKGroup - 1) / kQuantKGroup * kQuantKGroup;
  std::vector<uint8_t> aq;
  std::vector<float> a_scales;
  std::vector<int32_t> a_zps;
  QuantizeActivations(input, padded, &aq, &a_scales, &a_zps);
  Matrix out(m, n);
  for (size_t j = 0; j < n; ++j) {
    float max_abs = 0.0f;
    for (size_t kk = 0; kk < k; ++kk)
      max_abs = std::max(max_abs, std::abs(weights.At(kk, j)));
    const float w_scale = max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
    std::vector<int32_t> wq(k);
    int32_t col_sum = 0;
    for (size_t kk = 0; kk < k; ++kk) {
      wq[kk] = static_cast<int32_t>(
          std::clamp<long>(std::lrintf(weights.At(kk, j) / w_scale), -127,
                           127));
      col_sum += wq[kk];
    }
    for (size_t i = 0; i < m; ++i) {
      int32_t acc = 0;
      for (size_t kk = 0; kk < k; ++kk)
        acc += static_cast<int32_t>(aq[i * padded + kk]) * wq[kk];
      out.At(i, j) =
          mlk::QuantEpilogue(acc, a_zps[i], col_sum, a_scales[i], w_scale,
                             bias != nullptr ? bias[j] : 0.0f, relu);
    }
  }
  return out;
}

TEST(QuantizedDenseTest, ForwardBitIdenticalToScalarEmulationAcrossIsas) {
  Rng rng(26);
  for (const Shape& s : kShapes) {
    const Matrix input = RandomMatrix(s.m, s.k, rng);
    const Matrix weights = RandomMatrix(s.k, s.n, rng);
    const std::vector<float> bias = RandomBias(s.n, rng);
    PackedDenseWeights packed;
    packed.Build(weights);
    for (bool relu : {false, true}) {
      const Matrix expected =
          QuantForwardEmulation(input, weights, bias.data(), relu);
      for (const char* isa : AvailableMlKernelIsas()) {
        ScopedMlKernelIsa scoped_isa(isa);
        ASSERT_TRUE(scoped_isa.ok()) << isa;
        ScopedMlKernelBackend scoped(MlKernelBackend::kQuant);
        Matrix got;
        PackedDenseForward(input, packed, bias.data(), relu, &got);
        SCOPED_TRACE(testing::Message() << "isa=" << isa << " m=" << s.m
                                        << " k=" << s.k << " n=" << s.n
                                        << " relu=" << relu);
        ExpectIdentical(expected, got);
      }
    }
  }
}

TEST(QuantizedDenseTest, ForwardAccuracyAgainstFp32) {
  Rng rng(27);
  for (const Shape& s : kShapes) {
    const Matrix input = RandomMatrix(s.m, s.k, rng);
    const Matrix weights = RandomMatrix(s.k, s.n, rng);
    const std::vector<float> bias = RandomBias(s.n, rng);
    PackedDenseWeights packed;
    packed.Build(weights);
    Matrix fp32, quant;
    {
      ScopedMlKernelBackend scoped(MlKernelBackend::kFast);
      DenseForward(input, weights, bias.data(), /*relu=*/false, &fp32);
    }
    {
      ScopedMlKernelBackend scoped(MlKernelBackend::kQuant);
      PackedDenseForward(input, packed, bias.data(), /*relu=*/false, &quant);
    }
    SCOPED_TRACE(testing::Message() << "m=" << s.m << " k=" << s.k
                                    << " n=" << s.n);
    // Worst-case per-k-term quantization error for |a|,|w| <= 1 is
    // ~(a_step + w_step)/2 <= ~0.012; errors are signed so this linear
    // bound is very loose in practice.
    ExpectNear(fp32, quant, 0.02f + 0.013f * static_cast<float>(s.k));
  }
}

TEST(PackedDenseTest, LayerPackLifecycle) {
  Rng rng(28);
  DenseLayer layer(12, 20, Activation::kRelu, rng);
  const Matrix input = RandomMatrix(4, 12, rng);
  Matrix before, after;
  ScopedMlKernelBackend scoped(MlKernelBackend::kFast);
  layer.Forward(input, &before);
  EXPECT_FALSE(layer.packed());
  layer.PackForInference();
  EXPECT_TRUE(layer.packed());
  // The fp32 backends ignore the pack: exactly the unpacked kernels.
  layer.Forward(input, &after);
  ExpectIdentical(before, after);
  {
    ScopedMlKernelBackend ref(MlKernelBackend::kReference);
    Matrix ref_packed;
    layer.Forward(input, &ref_packed);
    Matrix ref_plain;
    layer.ClearPacked();
    layer.Forward(input, &ref_plain);
    ExpectIdentical(ref_plain, ref_packed);
  }
  // Every weight-mutation route drops the pack.
  layer.PackForInference();
  ASSERT_TRUE(layer.packed());
  layer.mutable_weights();
  EXPECT_FALSE(layer.packed());

  layer.PackForInference();
  Matrix out, grad(4, 20, 1.0f);
  layer.ForwardTrain(input, &out);
  layer.Backward(grad, nullptr);
  layer.AdamStep(1e-3f);
  EXPECT_FALSE(layer.packed()) << "AdamStep must invalidate the pack";

  layer.PackForInference();
  Matrix mask(12, 20, 1.0f);
  layer.SetMask(std::move(mask));
  EXPECT_FALSE(layer.packed()) << "SetMask must invalidate the pack";

  // Under quant, Forward and ForwardSlice route through the pack.
  layer.PackForInference();
  Matrix packed_out, sl_packed, sl_plain;
  {
    ScopedMlKernelBackend quant(MlKernelBackend::kQuant);
    layer.Forward(input, &packed_out);
    layer.ForwardSlice(input, 3, 9, &sl_packed);
  }
  PackedDenseWeights pack;
  pack.Build(layer.weights());
  Matrix via_kernel;
  PackedDenseForward(input, pack, layer.bias().data(), /*relu=*/true,
                     &via_kernel);
  ExpectIdentical(via_kernel, packed_out);
  layer.ClearPacked();
  layer.ForwardSlice(input, 3, 9, &sl_plain);
  ExpectNear(sl_plain, sl_packed, 0.02f + 0.013f * 12.0f);
}

TEST(PackedDenseTest, MlpPackedForwardMatchesUnpacked) {
  Rng rng(29);
  Mlp mlp({13, 32, 21}, rng);
  const Matrix input = RandomMatrix(7, 13, rng);
  Matrix unpacked, packed_fast, packed_quant;
  {
    ScopedMlKernelBackend scoped(MlKernelBackend::kFast);
    mlp.Forward(input, &unpacked);
  }
  mlp.PackForInference();
  for (const DenseLayer& layer : mlp.layers()) EXPECT_TRUE(layer.packed());
  {
    ScopedMlKernelBackend scoped(MlKernelBackend::kFast);
    mlp.Forward(input, &packed_fast);
  }
  {
    ScopedMlKernelBackend scoped(MlKernelBackend::kQuant);
    mlp.Forward(input, &packed_quant);
  }
  ExpectIdentical(unpacked, packed_fast);  // fast ignores the packs.
  // Two quantized layers compound the int8 error; still bounded well below
  // the linear worst case.
  ExpectNear(unpacked, packed_quant, 1.5f);
  float max_rel = 0.0f;
  for (size_t i = 0; i < unpacked.size(); ++i) {
    const float denom = std::max(1.0f, std::abs(unpacked.data()[i]));
    max_rel = std::max(max_rel,
                       std::abs(unpacked.data()[i] - packed_quant.data()[i]) /
                           denom);
  }
  EXPECT_LT(max_rel, 0.5f);
}

}  // namespace
}  // namespace arecel
