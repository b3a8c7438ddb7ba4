// Differential tests of the fast ML kernel backend against the reference
// backend (ml/kernels.h): the reference path is the historical scalar code
// kept verbatim, so agreement here means the SIMD/cache-blocked/fused
// kernels compute the same math as every pre-kernel release.
//
// Tolerances: the backends sum in different orders (FMA contraction,
// 8-lane partial sums, 4x16 register tiling vs strict left-to-right
// accumulation), so outputs agree only to float rounding. For the shapes
// below — k <= 300, inputs uniform in [-1, 1] — the observed worst-case
// divergence is ~1e-5; we assert 1e-3 absolute, the same bound
// tests/matrix_test.cc has always used against the naive triple loop.

#include "ml/kernels.h"

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ml/kernels_simd.h"
#include "ml/matrix.h"
#include "ml/nn.h"
#include "util/random.h"

namespace arecel {
namespace {

constexpr float kTolerance = 1e-3f;

Matrix RandomMatrix(size_t rows, size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(rng.Uniform(-1, 1));
  return m;
}

void ExpectNear(const Matrix& a, const Matrix& b, float tol = kTolerance) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t i = 0; i < a.size(); ++i)
    ASSERT_NEAR(a.data()[i], b.data()[i], tol) << "flat index " << i;
}

// Adversarial shapes (m, k, n): SIMD-width tails (n and k not multiples of
// 8 or 16), the k == 0 degenerate contraction, single-row / single-column
// extremes, and sizes that straddle the 4-row x 16-column register tile.
struct Shape {
  size_t m, k, n;
};
const Shape kShapes[] = {
    {1, 1, 1},    {1, 1, 7},    {7, 3, 1},    {1, 5, 8},    {2, 8, 9},
    {3, 16, 17},  {4, 7, 33},   {5, 64, 1},   {8, 1, 64},   {4, 0, 9},
    {1, 0, 1},    {33, 17, 65}, {5, 300, 23}, {64, 64, 64}, {13, 31, 130},
};

TEST(MlKernelsTest, MatMulMatchesReference) {
  Rng rng(1);
  for (const Shape& s : kShapes) {
    const Matrix a = RandomMatrix(s.m, s.k, rng);
    const Matrix b = RandomMatrix(s.k, s.n, rng);
    Matrix ref, fast;
    {
      ScopedMlKernelBackend scoped(MlKernelBackend::kReference);
      MatMul(a, b, &ref);
    }
    {
      ScopedMlKernelBackend scoped(MlKernelBackend::kFast);
      MatMul(a, b, &fast);
    }
    SCOPED_TRACE(testing::Message() << "m=" << s.m << " k=" << s.k
                                    << " n=" << s.n);
    ExpectNear(ref, fast);
  }
}

TEST(MlKernelsTest, MatMulBTMatchesReference) {
  Rng rng(2);
  for (const Shape& s : kShapes) {
    const Matrix a = RandomMatrix(s.m, s.k, rng);
    const Matrix b = RandomMatrix(s.n, s.k, rng);  // interpreted as B^T.
    Matrix ref, fast;
    {
      ScopedMlKernelBackend scoped(MlKernelBackend::kReference);
      MatMulBT(a, b, &ref);
    }
    {
      ScopedMlKernelBackend scoped(MlKernelBackend::kFast);
      MatMulBT(a, b, &fast);
    }
    SCOPED_TRACE(testing::Message() << "m=" << s.m << " k=" << s.k
                                    << " n=" << s.n);
    ExpectNear(ref, fast);
  }
}

TEST(MlKernelsTest, MatMulATMatchesReference) {
  Rng rng(3);
  for (const Shape& s : kShapes) {
    const Matrix a = RandomMatrix(s.k, s.m, rng);  // interpreted as A^T.
    const Matrix b = RandomMatrix(s.k, s.n, rng);
    Matrix ref, fast;
    {
      ScopedMlKernelBackend scoped(MlKernelBackend::kReference);
      MatMulAT(a, b, &ref);
    }
    {
      ScopedMlKernelBackend scoped(MlKernelBackend::kFast);
      MatMulAT(a, b, &fast);
    }
    SCOPED_TRACE(testing::Message() << "m=" << s.m << " k=" << s.k
                                    << " n=" << s.n);
    ExpectNear(ref, fast);
  }
}

TEST(MlKernelsTest, MatMulATAccumulateAddsOntoExisting) {
  Rng rng(4);
  for (const Shape& s : kShapes) {
    const Matrix a = RandomMatrix(s.k, s.m, rng);
    const Matrix b = RandomMatrix(s.k, s.n, rng);
    const Matrix init = RandomMatrix(s.m, s.n, rng);
    Matrix ref = init, fast = init;
    {
      ScopedMlKernelBackend scoped(MlKernelBackend::kReference);
      MatMulATAccumulate(a, b, &ref);
    }
    {
      ScopedMlKernelBackend scoped(MlKernelBackend::kFast);
      MatMulATAccumulate(a, b, &fast);
    }
    SCOPED_TRACE(testing::Message() << "m=" << s.m << " k=" << s.k
                                    << " n=" << s.n);
    ExpectNear(ref, fast);
  }
}

// The `av == 0.0f` skip branch is reference-backend-only; a sparse input
// (exact zeros, the post-ReLU regime it was written for) must not change
// the fast backend's result beyond rounding.
TEST(MlKernelsTest, MatMulSparseInputMatchesReference) {
  Rng rng(5);
  Matrix a = RandomMatrix(17, 40, rng);
  const Matrix b = RandomMatrix(40, 19, rng);
  for (size_t i = 0; i < a.size(); ++i)
    if (rng.Bernoulli(0.6)) a.data()[i] = 0.0f;
  Matrix ref, fast;
  {
    ScopedMlKernelBackend scoped(MlKernelBackend::kReference);
    MatMul(a, b, &ref);
  }
  {
    ScopedMlKernelBackend scoped(MlKernelBackend::kFast);
    MatMul(a, b, &fast);
  }
  ExpectNear(ref, fast);
}

TEST(MlKernelsTest, DenseForwardMatchesReference) {
  Rng rng(6);
  for (const Shape& s : kShapes) {
    const Matrix input = RandomMatrix(s.m, s.k, rng);
    const Matrix weights = RandomMatrix(s.k, s.n, rng);
    std::vector<float> bias(s.n);
    for (auto& v : bias) v = static_cast<float>(rng.Uniform(-1, 1));
    for (bool relu : {false, true}) {
      for (const float* bias_ptr :
           {static_cast<const float*>(bias.data()),
            static_cast<const float*>(nullptr)}) {
        Matrix ref, fast;
        {
          ScopedMlKernelBackend scoped(MlKernelBackend::kReference);
          DenseForward(input, weights, bias_ptr, relu, &ref);
        }
        {
          ScopedMlKernelBackend scoped(MlKernelBackend::kFast);
          DenseForward(input, weights, bias_ptr, relu, &fast);
        }
        SCOPED_TRACE(testing::Message()
                     << "m=" << s.m << " k=" << s.k << " n=" << s.n
                     << " relu=" << relu << " bias=" << (bias_ptr != nullptr));
        ExpectNear(ref, fast);
      }
    }
  }
}

TEST(MlKernelsTest, DenseForwardSliceMatchesReferenceAndFullForward) {
  Rng rng(7);
  const size_t m = 9, k = 33, n = 50;
  const Matrix input = RandomMatrix(m, k, rng);
  const Matrix weights = RandomMatrix(k, n, rng);
  std::vector<float> bias(n);
  for (auto& v : bias) v = static_cast<float>(rng.Uniform(-1, 1));
  Matrix full;
  DenseForward(input, weights, bias.data(), /*relu=*/false, &full);
  // Unaligned offsets and widths, including single-column and full-width.
  const size_t slices[][2] = {{0, 1}, {3, 7}, {13, 17}, {49, 1}, {0, 50}};
  for (const auto& sl : slices) {
    const size_t begin = sl[0], cols = sl[1];
    Matrix ref, fast;
    {
      ScopedMlKernelBackend scoped(MlKernelBackend::kReference);
      DenseForwardSlice(input, weights, bias.data(), begin, cols, &ref);
    }
    {
      ScopedMlKernelBackend scoped(MlKernelBackend::kFast);
      DenseForwardSlice(input, weights, bias.data(), begin, cols, &fast);
    }
    SCOPED_TRACE(testing::Message() << "begin=" << begin << " cols=" << cols);
    ExpectNear(ref, fast);
    ASSERT_EQ(fast.rows(), m);
    ASSERT_EQ(fast.cols(), cols);
    for (size_t r = 0; r < m; ++r)
      for (size_t c = 0; c < cols; ++c)
        ASSERT_NEAR(fast.At(r, c), full.At(r, begin + c), kTolerance);
  }
}

TEST(MlKernelsTest, DenseBackwardMatchesReference) {
  Rng rng(8);
  const size_t m = 11, k = 29, n = 37;
  const Matrix input = RandomMatrix(m, k, rng);
  const Matrix weights = RandomMatrix(k, n, rng);
  const Matrix preact = RandomMatrix(m, n, rng);
  const Matrix output_grad = RandomMatrix(m, n, rng);
  const Matrix wg_init = RandomMatrix(k, n, rng);  // pre-existing gradient.
  std::vector<float> bg_init(n);
  for (auto& v : bg_init) v = static_cast<float>(rng.Uniform(-1, 1));
  for (bool relu : {false, true}) {
    Matrix wg_ref = wg_init, wg_fast = wg_init;
    std::vector<float> bg_ref = bg_init, bg_fast = bg_init;
    Matrix ig_ref, ig_fast, scratch_ref, scratch_fast;
    {
      ScopedMlKernelBackend scoped(MlKernelBackend::kReference);
      DenseBackward(input, preact, relu, output_grad, weights, &wg_ref,
                    bg_ref.data(), &ig_ref, &scratch_ref);
    }
    {
      ScopedMlKernelBackend scoped(MlKernelBackend::kFast);
      DenseBackward(input, preact, relu, output_grad, weights, &wg_fast,
                    bg_fast.data(), &ig_fast, &scratch_fast);
    }
    SCOPED_TRACE(testing::Message() << "relu=" << relu);
    ExpectNear(wg_ref, wg_fast);
    ExpectNear(ig_ref, ig_fast);
    for (size_t i = 0; i < n; ++i)
      ASSERT_NEAR(bg_ref[i], bg_fast[i], kTolerance) << "bias grad " << i;
  }
}

TEST(MlKernelsTest, DenseBackwardNullInputGrad) {
  Rng rng(9);
  const Matrix input = RandomMatrix(5, 7, rng);
  const Matrix weights = RandomMatrix(7, 9, rng);
  const Matrix preact = RandomMatrix(5, 9, rng);
  const Matrix output_grad = RandomMatrix(5, 9, rng);
  Matrix wg(7, 9, 0.0f), scratch;
  std::vector<float> bg(9, 0.0f);
  ScopedMlKernelBackend scoped(MlKernelBackend::kFast);
  DenseBackward(input, preact, /*relu=*/true, output_grad, weights, &wg,
                bg.data(), /*input_grad=*/nullptr, &scratch);
  // Just exercises the first-layer path (no dX); sums must be finite.
  float sum = 0.0f;
  for (size_t i = 0; i < wg.size(); ++i) sum += wg.data()[i];
  EXPECT_TRUE(std::isfinite(sum));
}

TEST(MlKernelsTest, ElementwiseHelpers) {
  Rng rng(10);
  Matrix acc = RandomMatrix(6, 11, rng);
  const Matrix x = RandomMatrix(6, 11, rng);
  Matrix expected = acc;
  for (size_t i = 0; i < expected.size(); ++i)
    expected.data()[i] += x.data()[i];
  AddInPlace(&acc, x);
  ExpectNear(expected, acc, 0.0f);

  Matrix m = RandomMatrix(4, 9, rng);
  Matrix clamped = m;
  for (size_t i = 0; i < clamped.size(); ++i)
    clamped.data()[i] = std::max(0.0f, clamped.data()[i]);
  ReluInPlace(&m);
  ExpectNear(clamped, m, 0.0f);
}

// A full training step through the layer API under both backends: gradients
// after one fused backward must match the historical unfused sequence.
TEST(MlKernelsTest, DenseLayerTrainRoundTripMatchesReference) {
  for (bool relu : {false, true}) {
    Matrix out_ref, out_fast;
    Matrix w_ref, w_fast;
    for (MlKernelBackend backend :
         {MlKernelBackend::kReference, MlKernelBackend::kFast}) {
      ScopedMlKernelBackend scoped(backend);
      Rng rng(11);  // identical init per backend.
      DenseLayer layer(13, 21, relu ? Activation::kRelu : Activation::kNone,
                       rng);
      Rng data_rng(12);
      const Matrix input = RandomMatrix(8, 13, data_rng);
      const Matrix grad = RandomMatrix(8, 21, data_rng);
      Matrix out, input_grad;
      layer.ForwardTrain(input, &out);
      layer.Backward(grad, &input_grad);
      layer.AdamStep(1e-3f);
      layer.Forward(input, backend == MlKernelBackend::kReference ? &out_ref
                                                                  : &out_fast);
      (backend == MlKernelBackend::kReference ? w_ref : w_fast) =
          layer.weights();
    }
    SCOPED_TRACE(testing::Message() << "relu=" << relu);
    ExpectNear(w_ref, w_fast);
    ExpectNear(out_ref, out_fast);
  }
}

// The FMA tiers' accum_outer holds each out tile in registers across the
// shared dimension, but on every tier each element must still take one
// multiply-add per shared row in k order: one fma per row on the FMA tiers,
// a rounded multiply then a rounded add at the portable baseline
// (contracted there too when the whole build targets an FMA ISA). That is
// what keeps batched training bit-identical to accumulating one row per
// call. The shapes cover m % 4, n % 16 and n % 8 tails, k in {0, 1} and a
// range that starts past row 0.
TEST(MlKernelsTest, TiledAccumOuterEqualsMultiplyAddChainInKOrder) {
  struct AccumShape {
    size_t k_lo, k_hi, m, n;
  };
  const AccumShape shapes[] = {
      {0, 0, 5, 17},  {0, 1, 4, 16},  {0, 1, 7, 33},  {0, 2, 3, 9},
      {0, 5, 13, 48}, {0, 64, 6, 25}, {0, 3, 1, 1},   {0, 7, 8, 8},
      {0, 17, 9, 24}, {2, 9, 11, 40}, {0, 40, 2, 7},  {0, 33, 4, 31}};
  for (const char* isa : AvailableMlKernelIsas()) {
    ScopedMlKernelIsa scoped(isa);
    ASSERT_TRUE(scoped.ok());
    const bool fma_tier = std::string(isa) != "portable";
    Rng rng(31);
    for (const AccumShape& s : shapes) {
      const Matrix a = RandomMatrix(s.k_hi, s.m, rng);
      const Matrix b = RandomMatrix(s.k_hi, s.n, rng);
      Matrix out = RandomMatrix(s.m, s.n, rng);
      Matrix expected = out;
      for (size_t i = 0; i < s.m; ++i) {
        for (size_t j = 0; j < s.n; ++j) {
          float acc = expected.At(i, j);
          for (size_t kk = s.k_lo; kk < s.k_hi; ++kk) {
            if (fma_tier) {
              acc = std::fma(a.At(kk, i), b.At(kk, j), acc);
            } else {
              acc += a.At(kk, i) * b.At(kk, j);
            }
          }
          expected.At(i, j) = acc;
        }
      }
      mlk::ActiveKernelOps().accum_outer(a.data(), s.m, b.data(), s.n,
                                         out.data(), s.n, s.k_lo, s.k_hi,
                                         s.m, s.n);
      SCOPED_TRACE(testing::Message() << isa << " k=[" << s.k_lo << ", "
                                      << s.k_hi << ") m=" << s.m
                                      << " n=" << s.n);
      ExpectNear(expected, out, 0.0f);
    }
  }
}

TEST(MlKernelsTest, BackendParsing) {
  MlKernelBackend backend;
  EXPECT_TRUE(ParseMlKernelBackend("reference", &backend));
  EXPECT_EQ(backend, MlKernelBackend::kReference);
  EXPECT_TRUE(ParseMlKernelBackend("fast", &backend));
  EXPECT_EQ(backend, MlKernelBackend::kFast);
  EXPECT_TRUE(ParseMlKernelBackend("quant", &backend));
  EXPECT_EQ(backend, MlKernelBackend::kQuant);
  EXPECT_FALSE(ParseMlKernelBackend("", &backend));
  EXPECT_FALSE(ParseMlKernelBackend("avx2", &backend));
  EXPECT_FALSE(ParseMlKernelBackend("Fast", &backend));
}

TEST(MlKernelsTest, ScopedBackendRestores) {
  const MlKernelBackend before = ActiveMlKernelBackend();
  {
    ScopedMlKernelBackend scoped(MlKernelBackend::kReference);
    EXPECT_EQ(ActiveMlKernelBackend(), MlKernelBackend::kReference);
    {
      ScopedMlKernelBackend nested(MlKernelBackend::kFast);
      EXPECT_EQ(ActiveMlKernelBackend(), MlKernelBackend::kFast);
    }
    EXPECT_EQ(ActiveMlKernelBackend(), MlKernelBackend::kReference);
  }
  EXPECT_EQ(ActiveMlKernelBackend(), before);
}

TEST(MlKernelsTest, SimdNameIsKnownTag) {
  const std::string name = MlKernelSimdName();
  EXPECT_TRUE(name == "avx512" || name == "avx2-fma" || name == "portable")
      << name;
}

TEST(MlKernelsTest, BackendNames) {
  EXPECT_STREQ(MlKernelBackendName(MlKernelBackend::kReference), "reference");
  EXPECT_STREQ(MlKernelBackendName(MlKernelBackend::kFast), "fast");
  EXPECT_STREQ(MlKernelBackendName(MlKernelBackend::kQuant), "quant");
}

TEST(MlKernelsTest, IsaSweepRestoresAndRejectsUnknown) {
  const std::string before = MlKernelSimdName();
  // Every advertised tier must be selectable, report its own tag, and the
  // scoped override must restore the previous tier on exit.
  for (const char* isa : AvailableMlKernelIsas()) {
    ScopedMlKernelIsa scoped(isa);
    ASSERT_TRUE(scoped.ok()) << isa;
    const std::string name = MlKernelSimdName();
    if (std::string(isa) == "avx2") {
      EXPECT_EQ(name, "avx2-fma");
    } else {
      EXPECT_EQ(name, isa);
    }
  }
  EXPECT_EQ(MlKernelSimdName(), before);
  EXPECT_FALSE(SetMlKernelIsa("sse9"));
  EXPECT_EQ(MlKernelSimdName(), before);
}

TEST(MlKernelsTest, MatrixStorageIs64ByteAligned) {
  for (size_t rows : {1u, 3u, 17u}) {
    Matrix m(rows, rows + 5);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.data()) % kMatrixAlignment, 0u);
  }
}

// TSan smoke for the two concurrency shapes the kernels see in production:
// (a) one big matmul crossing kParallelMaddsThreshold fans rows out over
// the pool; (b) several threads each running inference against shared
// read-only weights (the serving layer's fan-out).
TEST(MlKernelsParallelTest, LargeMatMulAndConcurrentInference) {
  Rng rng(13);
  // 300*200*120 = 7.2M madds > the 4M parallel threshold.
  const Matrix a = RandomMatrix(300, 200, rng);
  const Matrix b = RandomMatrix(200, 120, rng);
  Matrix ref, fast;
  {
    ScopedMlKernelBackend scoped(MlKernelBackend::kReference);
    MatMul(a, b, &ref);
  }
  {
    ScopedMlKernelBackend scoped(MlKernelBackend::kFast);
    MatMul(a, b, &fast);
  }
  ExpectNear(ref, fast);

  const Matrix weights = RandomMatrix(64, 64, rng);
  std::vector<float> bias(64, 0.1f);
  const Matrix input = RandomMatrix(32, 64, rng);
  Matrix expected;
  DenseForward(input, weights, bias.data(), /*relu=*/true, &expected);
  std::vector<std::thread> threads;
  std::vector<Matrix> outs(4);
  for (size_t t = 0; t < outs.size(); ++t) {
    threads.emplace_back([&, t] {
      for (int iter = 0; iter < 8; ++iter)
        DenseForward(input, weights, bias.data(), /*relu=*/true, &outs[t]);
    });
  }
  for (auto& thread : threads) thread.join();
  for (const Matrix& out : outs) ExpectNear(expected, out, 0.0f);
}

}  // namespace
}  // namespace arecel
