#include "ml/nn.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "ml/kernels.h"
#include "util/random.h"

namespace arecel {
namespace {

TEST(DenseLayerTest, ForwardLinearIdentityWeights) {
  Rng rng(1);
  DenseLayer layer(2, 2, Activation::kNone, rng);
  layer.mutable_weights().Fill(0.0f);
  layer.mutable_weights().At(0, 0) = 1.0f;
  layer.mutable_weights().At(1, 1) = 1.0f;
  layer.mutable_bias() = {0.5f, -0.5f};
  Matrix in(1, 2);
  in.At(0, 0) = 2.0f;
  in.At(0, 1) = 3.0f;
  Matrix out;
  layer.Forward(in, &out);
  EXPECT_FLOAT_EQ(out.At(0, 0), 2.5f);
  EXPECT_FLOAT_EQ(out.At(0, 1), 2.5f);
}

TEST(DenseLayerTest, ReluClampsNegatives) {
  Rng rng(2);
  DenseLayer layer(1, 1, Activation::kRelu, rng);
  layer.mutable_weights().At(0, 0) = 1.0f;
  layer.mutable_bias() = {-10.0f};
  Matrix in(1, 1);
  in.At(0, 0) = 1.0f;
  Matrix out;
  layer.Forward(in, &out);
  EXPECT_FLOAT_EQ(out.At(0, 0), 0.0f);
}

TEST(DenseLayerTest, MaskZeroesConnections) {
  Rng rng(3);
  DenseLayer layer(2, 2, Activation::kNone, rng);
  Matrix mask(2, 2, 0.0f);
  mask.At(0, 0) = 1.0f;  // only input 0 -> output 0 connected.
  layer.SetMask(mask);
  layer.mutable_bias() = {0.0f, 0.0f};
  Matrix in(1, 2);
  in.At(0, 1) = 100.0f;  // must not leak into any output.
  Matrix out;
  layer.Forward(in, &out);
  EXPECT_FLOAT_EQ(out.At(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(out.At(0, 1), 0.0f);
}

// Numerical gradient check of the whole MLP backward pass: perturb each
// parameter of a small network and compare the finite-difference loss slope
// with the analytic gradient baked into one Adam-free step.
TEST(MlpTest, GradientCheck) {
  Rng rng(4);
  Mlp mlp({3, 4, 1}, rng);
  Matrix input(2, 3);
  for (size_t i = 0; i < input.size(); ++i)
    input.data()[i] = static_cast<float>(rng.Uniform(-1, 1));
  const std::vector<float> targets = {0.3f, -0.7f};

  auto loss_value = [&]() {
    Matrix out;
    mlp.Forward(input, &out);
    float loss = 0.0f;
    for (size_t r = 0; r < 2; ++r) {
      const float d = out.At(r, 0) - targets[r];
      loss += d * d;
    }
    return loss / 2.0f;
  };

  // Analytic gradients via Backward (grad accumulates inside the layers; we
  // read the effect through a tiny SGD-like probe using finite differences
  // on the loss instead, so this checks ForwardTrain+Backward end to end).
  Matrix out;
  mlp.ForwardTrain(input, &out);
  Matrix grad(2, 1);
  for (size_t r = 0; r < 2; ++r)
    grad.At(r, 0) = 2.0f * (out.At(r, 0) - targets[r]) / 2.0f;
  mlp.Backward(grad);

  // Probe a handful of weights in layer 0 via finite differences.
  DenseLayer& layer = mlp.layers()[0];
  // Recompute the analytic gradient by re-running Backward into a copy:
  // we can't read the private grads, so check the Adam step direction
  // instead: after AdamStep, each touched weight moves opposite its
  // numerical gradient sign (Adam normalizes magnitude, sign must match).
  Matrix before = layer.weights();
  mlp.AdamStep(0.001f);
  Matrix after = layer.weights();
  int checked = 0;
  for (size_t i = 0; i < before.size() && checked < 8; ++i) {
    const float eps = 1e-3f;
    layer.mutable_weights().data()[i] = before.data()[i] + eps;
    const float up = loss_value();
    layer.mutable_weights().data()[i] = before.data()[i] - eps;
    const float down = loss_value();
    layer.mutable_weights().data()[i] = after.data()[i];
    const float numerical = (up - down) / (2 * eps);
    if (std::fabs(numerical) < 1e-3) continue;  // flat direction, skip.
    const float step = after.data()[i] - before.data()[i];
    EXPECT_LT(step * numerical, 0.0f)
        << "Adam step should oppose the numerical gradient at weight " << i;
    ++checked;
  }
  EXPECT_GE(checked, 4);
}

TEST(MlpTest, LearnsLinearFunction) {
  Rng rng(5);
  Mlp mlp({2, 16, 1}, rng);
  Matrix input(64, 2);
  std::vector<float> target(64);
  Rng data_rng(6);
  auto fill_batch = [&]() {
    for (size_t r = 0; r < 64; ++r) {
      const float a = static_cast<float>(data_rng.Uniform(-1, 1));
      const float b = static_cast<float>(data_rng.Uniform(-1, 1));
      input.At(r, 0) = a;
      input.At(r, 1) = b;
      target[r] = 2.0f * a - b + 0.5f;
    }
  };
  float final_loss = 1e9f;
  for (int step = 0; step < 800; ++step) {
    fill_batch();
    Matrix out;
    mlp.ForwardTrain(input, &out);
    Matrix grad(64, 1);
    float loss = 0.0f;
    for (size_t r = 0; r < 64; ++r) {
      const float d = out.At(r, 0) - target[r];
      loss += d * d / 64.0f;
      grad.At(r, 0) = 2.0f * d / 64.0f;
    }
    final_loss = loss;
    mlp.Backward(grad);
    mlp.AdamStep(0.005f);
  }
  EXPECT_LT(final_loss, 0.01f);
}

// The MSCN trainers stack a mini-batch into one matrix per module. Below
// the parallel threshold that must change nothing: one B-row
// ForwardTrain/Backward/AdamStep equals B single-row passes (gradients
// accumulating row by row) bit for bit, in the outputs, the input
// gradients and the updated parameters. The reference backend sums each
// call's dW into a temporary first, so its result depends on the grouping;
// it is skipped.
TEST(MlpTest, StackedBatchStepEqualsSingleRowPasses) {
  if (ActiveMlKernelBackend() == MlKernelBackend::kReference)
    GTEST_SKIP() << "reference backend sums dW per call";
  const std::vector<size_t> sizes = {19, 40, 17, 3};
  constexpr size_t kRows = 13;
  Rng data_rng(8);
  Matrix input(kRows, sizes.front()), grad(kRows, sizes.back());
  for (size_t i = 0; i < input.size(); ++i)
    input.data()[i] = static_cast<float>(data_rng.Uniform(-1, 1));
  for (size_t i = 0; i < grad.size(); ++i)
    grad.data()[i] = static_cast<float>(data_rng.Uniform(-1, 1));
  const auto same_bits = [](const float* x, const float* y, size_t n) {
    return std::memcmp(x, y, n * sizeof(float)) == 0;
  };
  for (const char* isa : AvailableMlKernelIsas()) {
    ScopedMlKernelIsa scoped(isa);
    ASSERT_TRUE(scoped.ok());
    Rng init_stacked(9), init_rows(9);
    Mlp stacked(sizes, init_stacked), rows(sizes, init_rows);
    Matrix out, input_grad;
    stacked.ForwardTrain(input, &out);
    stacked.Backward(grad, &input_grad);
    stacked.AdamStep(1e-3f);
    for (size_t r = 0; r < kRows; ++r) {
      Matrix row_in(1, sizes.front()), row_grad(1, sizes.back());
      std::copy(input.Row(r), input.Row(r) + input.cols(), row_in.Row(0));
      std::copy(grad.Row(r), grad.Row(r) + grad.cols(), row_grad.Row(0));
      Matrix row_out, row_input_grad;
      rows.ForwardTrain(row_in, &row_out);
      rows.Backward(row_grad, &row_input_grad);
      EXPECT_TRUE(same_bits(row_out.data(), out.Row(r), out.cols()))
          << isa << " row " << r;
      EXPECT_TRUE(same_bits(row_input_grad.data(), input_grad.Row(r),
                            input_grad.cols()))
          << isa << " row " << r;
    }
    rows.AdamStep(1e-3f);
    for (size_t l = 0; l < stacked.layers().size(); ++l) {
      const DenseLayer& x = stacked.layers()[l];
      const DenseLayer& y = rows.layers()[l];
      EXPECT_TRUE(same_bits(x.weights().data(), y.weights().data(),
                            x.weights().size()))
          << isa << " layer " << l;
      EXPECT_TRUE(same_bits(x.bias().data(), y.bias().data(), x.bias().size()))
          << isa << " layer " << l;
    }
  }
}

TEST(MlpTest, ParamCount) {
  Rng rng(7);
  Mlp mlp({3, 5, 2}, rng);
  EXPECT_EQ(mlp.ParamCount(), (3u * 5 + 5) + (5u * 2 + 2));
}

TEST(SoftmaxRowsTest, SegmentsNormalize) {
  Matrix m(1, 5);
  for (size_t i = 0; i < 5; ++i) m.At(0, i) = static_cast<float>(i);
  SoftmaxRows(&m, 1, 4);  // normalize columns 1..3 only.
  float sum = 0.0f;
  for (size_t i = 1; i < 4; ++i) sum += m.At(0, i);
  EXPECT_NEAR(sum, 1.0f, 1e-5f);
  EXPECT_FLOAT_EQ(m.At(0, 0), 0.0f);  // untouched.
  EXPECT_FLOAT_EQ(m.At(0, 4), 4.0f);  // untouched.
}

}  // namespace
}  // namespace arecel
