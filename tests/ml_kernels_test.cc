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
#include <cstdint>
#include <cstring>
#include <limits>
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
  Relu(m, &m);
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
// call. The shapes cover m % 4, n % 16 and n % 8 tails, the AVX-512
// tier's 48-, 32- and 16-column tiles, k in {0, 1} and a range that starts
// past row 0.
TEST(MlKernelsTest, TiledAccumOuterEqualsMultiplyAddChainInKOrder) {
  struct AccumShape {
    size_t k_lo, k_hi, m, n;
  };
  const AccumShape shapes[] = {
      {0, 0, 5, 17},  {0, 1, 4, 16},  {0, 1, 7, 33},  {0, 2, 3, 9},
      {0, 5, 13, 48}, {0, 64, 6, 25}, {0, 3, 1, 1},   {0, 7, 8, 8},
      {0, 17, 9, 24}, {2, 9, 11, 40}, {0, 40, 2, 7},  {0, 33, 4, 31},
      {0, 5, 6, 97},  {1, 9, 5, 80},  {0, 64, 17, 48}};
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

uint32_t Bits(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

void ExpectSameBits(const float* expected, const float* actual, size_t n) {
  for (size_t i = 0; i < n; ++i)
    ASSERT_EQ(Bits(expected[i]), Bits(actual[i]))
        << "index " << i << ": " << expected[i] << " vs " << actual[i];
}

// The fast backward's ReLU-mask/bias-sum pass, spelled out: dz keeps the
// gradient where the pre-activation is > 0 (NaN and both zeros mask it),
// and each bias sum adds its column in row order. The fused pass must match
// bit for bit, NaN payloads and infinities that pass the mask included. One
// exception: when a sum adds a NaN to a NaN, IEEE 754 lets either payload
// survive and x86 keeps the first operand's, an order the compiler may
// commute, so a NaN sum only has to be a NaN.
TEST(MlKernelsTest, FusedBackwardMaskAndBiasSumsEqualScalarLoop) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {nan, -nan, 0.0f, -0.0f, inf, -inf};
  ScopedMlKernelBackend scoped(MlKernelBackend::kFast);
  Rng rng(41);
  // With special gradients most of the 496-row sums are NaN, so the grid
  // also runs with specials in the pre-activations only.
  for (const bool special_grads : {false, true}) {
    for (const size_t rows : {size_t{1}, size_t{496}}) {
      for (const size_t n : {1, 7, 17, 48, 65}) {
        const size_t k = 5;
        const Matrix input = RandomMatrix(rows, k, rng);
        const Matrix weights = RandomMatrix(k, n, rng);
        Matrix preact = RandomMatrix(rows, n, rng);
        Matrix grad = RandomMatrix(rows, n, rng);
        // Specials land on and off the SIMD lane grid.
        for (size_t i = 0; i < preact.size(); i += 3)
          preact.data()[i] = specials[(i / 3) % 6];
        for (size_t i = 1; special_grads && i < grad.size(); i += 4)
          grad.data()[i] = specials[(i / 4) % 6];
        std::vector<float> bias_grad(n);
        for (float& b : bias_grad) b = static_cast<float>(rng.Uniform(-1, 1));
        std::vector<float> expected_bias = bias_grad;
        Matrix expected_dz(rows, n);
        for (size_t r = 0; r < rows; ++r) {
          for (size_t j = 0; j < n; ++j) {
            const float v = preact.At(r, j) > 0.0f ? grad.At(r, j) : 0.0f;
            expected_dz.At(r, j) = v;
            expected_bias[j] += v;
          }
        }
        Matrix weight_grad(k, n, 0.0f), dz;
        DenseBackward(input, preact, /*relu=*/true, grad, weights,
                      &weight_grad, bias_grad.data(), /*input_grad=*/nullptr,
                      &dz);
        SCOPED_TRACE(testing::Message() << "rows=" << rows << " n=" << n
                                        << " special_grads=" << special_grads);
        ASSERT_EQ(dz.rows(), rows);
        ASSERT_EQ(dz.cols(), n);
        ExpectSameBits(expected_dz.data(), dz.data(), dz.size());
        for (size_t j = 0; j < n; ++j) {
          if (std::isnan(expected_bias[j])) {
            EXPECT_TRUE(std::isnan(bias_grad[j])) << "bias sum " << j;
          } else {
            EXPECT_EQ(Bits(expected_bias[j]), Bits(bias_grad[j]))
                << "bias sum " << j;
          }
        }
      }
    }
  }
}

// dot_rows runs two rows of a per pass on the SIMD tiers. Each output must
// keep the bits of a one-row pass, whatever the row count's parity, the
// split of the row range or k's remainder modulo the 8-lane width.
TEST(MlKernelsTest, DotRowsPairingEqualsOneRowPerCall) {
  const size_t row_counts[] = {1, 2, 3, 5, 7, 33};
  const size_t ks[] = {1, 5, 8, 9, 17, 48, 63};
  const size_t ns[] = {1, 3, 4, 7, 17, 48};
  for (const char* isa : AvailableMlKernelIsas()) {
    ScopedMlKernelIsa scoped(isa);
    ASSERT_TRUE(scoped.ok());
    const mlk::KernelOps& ops = mlk::ActiveKernelOps();
    Rng rng(43);
    for (const size_t m : row_counts) {
      for (const size_t k : ks) {
        for (const size_t n : ns) {
          const Matrix a = RandomMatrix(m, k, rng);
          const Matrix b = RandomMatrix(n, k, rng);
          Matrix whole(m, n), one_row(m, n), split(m, n);
          ops.dot_rows(a.data(), k, b.data(), k, whole.data(), n, 0, m, k, n);
          for (size_t i = 0; i < m; ++i)
            ops.dot_rows(a.data(), k, b.data(), k, one_row.data(), n, i,
                         i + 1, k, n);
          // An odd first range shifts which rows pair up in the second.
          const size_t mid = m / 2 | 1;
          const size_t cut = mid < m ? mid : m;
          ops.dot_rows(a.data(), k, b.data(), k, split.data(), n, 0, cut, k,
                       n);
          ops.dot_rows(a.data(), k, b.data(), k, split.data(), n, cut, m, k,
                       n);
          SCOPED_TRACE(testing::Message() << isa << " m=" << m << " k=" << k
                                          << " n=" << n);
          ExpectSameBits(one_row.data(), whole.data(), whole.size());
          ExpectSameBits(one_row.data(), split.data(), split.size());
        }
      }
    }
  }
}

// adam_update must give the portable loop's bits on every tier, across the
// vector tails and with subnormal moments, zero and tiny gradients among
// the inputs (the regime where the moments decay during training).
TEST(MlKernelsTest, AdamUpdateEqualsPortableLoopOnEveryTier) {
  const float denorm = std::numeric_limits<float>::denorm_min();
  for (const size_t n : {1, 7, 8, 15, 16, 17, 40, 1001}) {
    Rng rng(47);
    std::vector<float> param(n), grad(n), m(n), v(n);
    for (size_t i = 0; i < n; ++i) {
      param[i] = static_cast<float>(rng.Uniform(-1, 1));
      switch (i % 5) {
        case 0:  // subnormal moments, a gradient that keeps them there.
          m[i] = denorm * static_cast<float>(1 + i % 97);
          v[i] = denorm * static_cast<float>(3 + i % 89);
          grad[i] = 0.0f;
          break;
        case 1:
          m[i] = -denorm * static_cast<float>(1 + i % 53);
          v[i] = 1e-39f;
          grad[i] = 1e-30f;
          break;
        default:
          m[i] = static_cast<float>(rng.Uniform(-1e-3, 1e-3));
          v[i] = static_cast<float>(rng.Uniform(0, 1e-6));
          grad[i] = static_cast<float>(rng.Uniform(-1, 1));
          break;
      }
    }
    const float lr = 1e-3f, c1 = 0.271f, c2 = 0.00995f;
    std::vector<float> want_param = param, want_m = m, want_v = v;
    mlk::PortableKernelOps().adam_update(want_param.data(), grad.data(),
                                         want_m.data(), want_v.data(), n, lr,
                                         c1, c2);
    for (const char* isa : AvailableMlKernelIsas()) {
      ScopedMlKernelIsa scoped(isa);
      ASSERT_TRUE(scoped.ok());
      std::vector<float> got_param = param, got_m = m, got_v = v;
      mlk::ActiveKernelOps().adam_update(got_param.data(), grad.data(),
                                         got_m.data(), got_v.data(), n, lr,
                                         c1, c2);
      SCOPED_TRACE(testing::Message() << isa << " n=" << n);
      ExpectSameBits(want_param.data(), got_param.data(), n);
      ExpectSameBits(want_m.data(), got_m.data(), n);
      ExpectSameBits(want_v.data(), got_v.data(), n);
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
