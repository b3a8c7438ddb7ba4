#include "ml/nn.h"

#include <algorithm>
#include <cmath>

#include "ml/kernels.h"
#include "util/check.h"

namespace arecel {

DenseLayer::DenseLayer(size_t in_features, size_t out_features,
                       Activation activation, Rng& rng)
    : activation_(activation),
      weights_(in_features, out_features),
      bias_(out_features, 0.0f),
      weight_grad_(in_features, out_features),
      bias_grad_(out_features, 0.0f),
      m_w_(in_features, out_features),
      v_w_(in_features, out_features),
      m_b_(out_features, 0.0f),
      v_b_(out_features, 0.0f) {
  const float bound =
      std::sqrt(6.0f / static_cast<float>(in_features));
  for (size_t i = 0; i < weights_.size(); ++i)
    weights_.data()[i] =
        static_cast<float>(rng.Uniform(-bound, bound));
}

void DenseLayer::SetMask(Matrix mask) {
  ARECEL_CHECK(mask.rows() == weights_.rows() &&
               mask.cols() == weights_.cols());
  mask_ = std::move(mask);
  has_mask_ = true;
  packed_.Clear();
  for (size_t i = 0; i < weights_.size(); ++i)
    weights_.data()[i] *= mask_.data()[i];
}

void DenseLayer::Forward(const Matrix& input, Matrix* output) const {
  if (packed_.has && ActiveMlKernelBackend() == MlKernelBackend::kQuant) {
    PackedDenseForward(input, packed_, bias_.data(),
                       activation_ == Activation::kRelu, output);
    return;
  }
  DenseForward(input, weights_, bias_.data(),
               activation_ == Activation::kRelu, output);
}

void DenseLayer::ForwardSlice(const Matrix& input, size_t col_begin,
                              size_t cols, Matrix* out) const {
  if (packed_.has && ActiveMlKernelBackend() == MlKernelBackend::kQuant) {
    PackedDenseForwardSlice(input, packed_, bias_.data(), col_begin, cols,
                            out);
    return;
  }
  DenseForwardSlice(input, weights_, bias_.data(), col_begin, cols, out);
}

void DenseLayer::PackForInference() { packed_.Build(weights_); }

void DenseLayer::ClearPacked() { packed_.Clear(); }

void DenseLayer::ForwardTrain(const Matrix& input, Matrix* output) {
  // The input is copied because a caller may change it before Backward
  // (ResMADE's residual blocks add into theirs). Reading the copy also
  // lets `output` alias `input`.
  cached_input_ = input;
  if (activation_ != Activation::kRelu) {
    // Backward reads the pre-activation only under ReLU.
    DenseForward(cached_input_, weights_, bias_.data(), /*relu=*/false,
                 output);
    return;
  }
  DenseForward(cached_input_, weights_, bias_.data(), /*relu=*/false,
               &cached_preact_);
  Relu(cached_preact_, output);
}

void DenseLayer::Backward(const Matrix& output_grad, Matrix* input_grad) {
  ARECEL_CHECK(output_grad.rows() == cached_input_.rows());
  ARECEL_CHECK(output_grad.cols() == weights_.cols());
  // Fused backward: dW += X^T dz, db += colsum(dz), dX = dz * W^T, with the
  // ReLU mask and bias sums produced in a single pass over dL/d(out).
  DenseBackward(cached_input_, cached_preact_,
                activation_ == Activation::kRelu, output_grad, weights_,
                &weight_grad_, bias_grad_.data(), input_grad, &dz_scratch_);
}

void DenseLayer::AdamStep(float learning_rate) {
  packed_.Clear();
  ++adam_step_;
  if (has_mask_) {
    for (size_t i = 0; i < weight_grad_.size(); ++i)
      weight_grad_.data()[i] *= mask_.data()[i];
  }
  AdamUpdate(weights_.data(), weight_grad_.data(), m_w_.data(), v_w_.data(),
             weights_.size(), learning_rate, adam_step_);
  AdamUpdate(bias_.data(), bias_grad_.data(), m_b_.data(), v_b_.data(),
             bias_.size(), learning_rate, adam_step_);
  if (has_mask_) {
    for (size_t i = 0; i < weights_.size(); ++i)
      weights_.data()[i] *= mask_.data()[i];
  }
  ZeroGradients();
}

void DenseLayer::ZeroGradients() {
  weight_grad_.Fill(0.0f);
  std::fill(bias_grad_.begin(), bias_grad_.end(), 0.0f);
}

Mlp::Mlp(const std::vector<size_t>& layer_sizes, Rng& rng) {
  ARECEL_CHECK(layer_sizes.size() >= 2);
  for (size_t i = 0; i + 1 < layer_sizes.size(); ++i) {
    const bool last = i + 2 == layer_sizes.size();
    layers_.emplace_back(layer_sizes[i], layer_sizes[i + 1],
                         last ? Activation::kNone : Activation::kRelu, rng);
  }
  buffers_.resize(layers_.size() - 1);
}

void Mlp::Forward(const Matrix& input, Matrix* output) const {
  // Local ping-pong activations instead of the shared training buffers:
  // inference stays a pure read, so a trained MLP (LW-NN, MSCN) can serve
  // concurrent EstimateSelectivity calls (src/serve/ batch dispatch).
  Matrix ping, pong;
  const Matrix* cur = &input;
  for (size_t i = 0; i < layers_.size(); ++i) {
    Matrix* dst = (i % 2 == 0) ? &ping : &pong;
    layers_[i].Forward(*cur, dst);
    cur = dst;
  }
  *output = *cur;
}

void Mlp::ForwardTrain(const Matrix& input, Matrix* output) {
  const Matrix* cur = &input;
  for (size_t i = 0; i + 1 < layers_.size(); ++i) {
    layers_[i].ForwardTrain(*cur, &buffers_[i]);
    cur = &buffers_[i];
  }
  layers_.back().ForwardTrain(*cur, output);
}

void Mlp::Backward(const Matrix& output_grad, Matrix* input_grad) {
  // Layer i writes its input gradient into grad_buffers_[i % 2], which
  // layer i - 1 reads while writing the other one.
  const Matrix* grad = &output_grad;
  for (size_t i = layers_.size(); i-- > 0;) {
    Matrix* dst = i == 0 ? input_grad : &grad_buffers_[i % 2];
    layers_[i].Backward(*grad, dst);
    grad = dst;
  }
}

void Mlp::PackForInference() {
  for (auto& layer : layers_) layer.PackForInference();
}

void Mlp::AdamStep(float learning_rate) {
  for (auto& layer : layers_) layer.AdamStep(learning_rate);
}

size_t Mlp::ParamCount() const {
  size_t total = 0;
  for (const auto& layer : layers_) total += layer.ParamCount();
  return total;
}

void SoftmaxRows(Matrix* m, size_t begin_col, size_t end_col) {
  ARECEL_CHECK(begin_col < end_col && end_col <= m->cols());
  for (size_t r = 0; r < m->rows(); ++r) {
    float* row = m->Row(r);
    float max_v = row[begin_col];
    for (size_t c = begin_col; c < end_col; ++c)
      max_v = std::max(max_v, row[c]);
    float sum = 0.0f;
    for (size_t c = begin_col; c < end_col; ++c) {
      row[c] = std::exp(row[c] - max_v);
      sum += row[c];
    }
    for (size_t c = begin_col; c < end_col; ++c) row[c] /= sum;
  }
}

void SerializeDenseLayerParams(const DenseLayer& layer, ByteWriter* writer) {
  writer->U64(layer.in_features());
  writer->U64(layer.out_features());
  const Matrix& weights = layer.weights();
  writer->Floats(
      std::vector<float>(weights.data(), weights.data() + weights.size()));
  writer->Floats(layer.bias());
}

namespace {

// He-uniform init draws |w| <= sqrt(6 / in) <= 2.45. The largest trained
// |parameter| measured among the models loaded through this file (naru's
// ResMADE, mscn and lw-nn on census and power, at default options and at
// bench_table5_tuning's 3e-2 learning rate) was 5.9, four orders of
// magnitude below the bound. A larger one is corrupt, and refusing it
// keeps a forward pass over [0, 1]-scaled features far from float
// overflow, where inf - inf would serve NaN even though each parameter is
// finite.
constexpr float kMaxAbsParam = 65536.0f;

// A serialized layer's claimed (in, out) shape must match its parameter
// counts (checked without forming in * out, which a hostile shape could
// overflow), and every parameter must be finite and within kMaxAbsParam.
bool ValidLayerParams(uint64_t in, uint64_t out,
                      const std::vector<float>& weights,
                      const std::vector<float>& bias) {
  if (in == 0 || out == 0 || bias.size() != out ||
      weights.size() % out != 0 || weights.size() / out != in) {
    return false;
  }
  // NaN fails the comparison too.
  const auto plausible = [](float v) { return std::abs(v) <= kMaxAbsParam; };
  return std::all_of(weights.begin(), weights.end(), plausible) &&
         std::all_of(bias.begin(), bias.end(), plausible);
}

}  // namespace

bool DeserializeDenseLayerParams(ByteReader* reader, DenseLayer* layer) {
  uint64_t in = 0, out = 0;
  std::vector<float> weights, bias;
  if (!reader->U64(&in) || !reader->U64(&out) || !reader->Floats(&weights) ||
      !reader->Floats(&bias)) {
    return false;
  }
  if (in != layer->in_features() || out != layer->out_features() ||
      !ValidLayerParams(in, out, weights, bias)) {
    return false;
  }
  std::copy(weights.begin(), weights.end(), layer->mutable_weights().data());
  layer->mutable_bias() = bias;
  return true;
}

void SerializeMlp(const Mlp& mlp, ByteWriter* writer) {
  const std::vector<DenseLayer>& layers = mlp.layers();
  writer->U64(layers.size());
  for (const DenseLayer& layer : layers)
    SerializeDenseLayerParams(layer, writer);
}

bool DeserializeMlp(ByteReader* reader, std::unique_ptr<Mlp>* mlp) {
  uint64_t layer_count = 0;
  if (!reader->U64(&layer_count) || layer_count == 0 || layer_count > 64)
    return false;
  // Two passes: shapes + params first (validating chaining), then rebuild
  // the MLP at that topology and overwrite every parameter (the initializer
  // Rng is irrelevant — nothing of it survives the overwrite).
  std::vector<size_t> sizes;
  std::vector<std::vector<float>> weights(layer_count), biases(layer_count);
  for (uint64_t i = 0; i < layer_count; ++i) {
    uint64_t in = 0, out = 0;
    if (!reader->U64(&in) || !reader->U64(&out) ||
        !reader->Floats(&weights[i]) || !reader->Floats(&biases[i])) {
      return false;
    }
    if (!ValidLayerParams(in, out, weights[i], biases[i])) return false;
    if (i == 0) {
      sizes.push_back(in);
    } else if (in != sizes.back()) {
      return false;
    }
    sizes.push_back(out);
  }
  Rng init_rng(0);
  *mlp = std::make_unique<Mlp>(sizes, init_rng);
  std::vector<DenseLayer>& layers = (*mlp)->layers();
  for (uint64_t i = 0; i < layer_count; ++i) {
    std::copy(weights[i].begin(), weights[i].end(),
              layers[i].mutable_weights().data());
    layers[i].mutable_bias() = biases[i];
  }
  return true;
}

}  // namespace arecel
