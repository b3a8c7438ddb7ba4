#include "ml/made.h"

#include <algorithm>
#include <cmath>

#include "ml/kernels.h"
#include "util/check.h"

namespace arecel {

namespace {

int BitsFor(int vocab) {
  int bits = 1;
  while ((1 << bits) < vocab) ++bits;
  return bits;
}

}  // namespace

ResMade::ResMade(std::vector<int> vocab_sizes, const Options& options)
    : vocab_sizes_(std::move(vocab_sizes)) {
  const size_t n = vocab_sizes_.size();
  ARECEL_CHECK(n >= 1);
  bits_.resize(n);
  in_offsets_.resize(n);
  out_offsets_.resize(n);
  for (size_t j = 0; j < n; ++j) {
    ARECEL_CHECK(vocab_sizes_[j] >= 1);
    bits_[j] = BitsFor(vocab_sizes_[j]);
    in_offsets_[j] = input_dim_;
    input_dim_ += static_cast<size_t>(bits_[j]);
    out_offsets_[j] = output_dim_;
    output_dim_ += static_cast<size_t>(vocab_sizes_[j]);
  }

  Rng rng(options.seed);
  const size_t hidden = options.hidden_units;

  // Autoregressive degrees. Input bit of column j has degree j; hidden unit
  // k has degree k % max(1, n-1) (round-robin covers every degree evenly);
  // output segment j requires strictly smaller hidden degrees.
  std::vector<int> hidden_degree(hidden);
  const int degree_span = std::max<size_t>(1, n - 1);
  for (size_t k = 0; k < hidden; ++k)
    hidden_degree[k] = static_cast<int>(k % static_cast<size_t>(degree_span));

  // Input layer with mask: connect column j -> hidden k iff deg(k) >= j.
  layers_.emplace_back(input_dim_, hidden, Activation::kRelu, rng);
  {
    Matrix mask(input_dim_, hidden, 0.0f);
    for (size_t j = 0; j < n; ++j) {
      for (int b = 0; b < bits_[j]; ++b) {
        const size_t row = in_offsets_[j] + static_cast<size_t>(b);
        for (size_t k = 0; k < hidden; ++k) {
          if (hidden_degree[k] >= static_cast<int>(j))
            mask.At(row, k) = 1.0f;
        }
      }
    }
    layers_.back().SetMask(std::move(mask));
  }

  // Residual blocks: hidden -> hidden, connect k -> k' iff deg(k') >= deg(k).
  Matrix hidden_mask(hidden, hidden, 0.0f);
  for (size_t k = 0; k < hidden; ++k) {
    for (size_t k2 = 0; k2 < hidden; ++k2) {
      if (hidden_degree[k2] >= hidden_degree[k])
        hidden_mask.At(k, k2) = 1.0f;
    }
  }
  for (int b = 0; b < options.num_blocks; ++b) {
    layers_.emplace_back(hidden, hidden, Activation::kRelu, rng);
    layers_.back().SetMask(hidden_mask);
  }

  // Output layer: hidden k -> output segment j iff deg(k) < j (strict).
  layers_.emplace_back(hidden, output_dim_, Activation::kNone, rng);
  {
    Matrix mask(hidden, output_dim_, 0.0f);
    for (size_t k = 0; k < hidden; ++k) {
      for (size_t j = 0; j < n; ++j) {
        if (hidden_degree[k] < static_cast<int>(j)) {
          for (int v = 0; v < vocab_sizes_[j]; ++v)
            mask.At(k, out_offsets_[j] + static_cast<size_t>(v)) = 1.0f;
        }
      }
    }
    layers_.back().SetMask(std::move(mask));
  }

  layer_inputs_.resize(layers_.size());
}

void ResMade::Encode(const int32_t* codes, size_t valid_prefix,
                     float* dst) const {
  std::fill(dst, dst + input_dim_, 0.0f);
  const size_t n = vocab_sizes_.size();
  for (size_t j = 0; j < n && j < valid_prefix; ++j) {
    const int32_t code = codes[j];
    ARECEL_CHECK(code >= 0 && code < vocab_sizes_[j]);
    for (int b = 0; b < bits_[j]; ++b) {
      dst[in_offsets_[j] + static_cast<size_t>(b)] =
          static_cast<float>((code >> b) & 1);
    }
  }
}

void ResMade::ForwardInternal(const Matrix& input, Matrix* logits,
                              bool training) const {
  const size_t last = layers_.size() - 1;
  Matrix current;
  // Input layer.
  layer_inputs_[0] = input;
  if (training) {
    layers_[0].ForwardTrain(input, &current);
  } else {
    layers_[0].Forward(input, &current);
  }
  // Residual blocks.
  Matrix block_out;
  for (size_t l = 1; l < last; ++l) {
    layer_inputs_[l] = current;
    if (training) {
      layers_[l].ForwardTrain(current, &block_out);
    } else {
      layers_[l].Forward(current, &block_out);
    }
    // Identity skip: masks are degree-consistent, so the sum stays
    // autoregressive.
    AddInPlace(&current, block_out);
  }
  layer_inputs_[last] = current;
  if (training) {
    layers_[last].ForwardTrain(current, logits);
  } else {
    layers_[last].Forward(current, logits);
  }
}

void ResMade::Forward(const Matrix& input, Matrix* logits) const {
  ForwardInternal(input, logits, /*training=*/false);
}

void ResMade::ForwardColumnLogits(const Matrix& input, size_t col,
                                  Matrix* logits) const {
  // Hidden stack (same as ForwardInternal, inference mode, no caches kept).
  const size_t last = layers_.size() - 1;
  Matrix current;
  layers_[0].Forward(input, &current);
  Matrix block_out;
  for (size_t l = 1; l < last; ++l) {
    layers_[l].Forward(current, &block_out);
    AddInPlace(&current, block_out);
  }
  // Sliced output matmul over this column's logit segment only; under the
  // quant backend it runs the int8 pack of the logits layer when one was
  // built (PackForInference).
  layers_[last].ForwardSlice(current, out_offsets_[col],
                             static_cast<size_t>(vocab_sizes_[col]), logits);
}

void ResMade::PackForInference() {
  for (DenseLayer& layer : layers_) layer.PackForInference();
}

float ResMade::TrainStep(const Matrix& input,
                         const std::vector<int32_t>& targets,
                         float learning_rate) {
  const size_t batch = input.rows();
  const size_t n = vocab_sizes_.size();
  ARECEL_CHECK(targets.size() == batch * n);

  Matrix logits;
  ForwardInternal(input, &logits, /*training=*/true);

  // Per-column softmax cross-entropy; gradient = (softmax - onehot) / batch.
  Matrix probs = logits;
  double total_nll = 0.0;
  for (size_t j = 0; j < n; ++j) {
    SoftmaxRows(&probs, out_offsets_[j],
                out_offsets_[j] + static_cast<size_t>(vocab_sizes_[j]));
  }
  Matrix grad(batch, output_dim_, 0.0f);
  const float inv_batch = 1.0f / static_cast<float>(batch);
  for (size_t r = 0; r < batch; ++r) {
    const float* p = probs.Row(r);
    float* g = grad.Row(r);
    for (size_t j = 0; j < n; ++j) {
      const int32_t target = targets[r * n + j];
      ARECEL_CHECK(target >= 0 && target < vocab_sizes_[j]);
      const size_t off = out_offsets_[j];
      const size_t vocab = static_cast<size_t>(vocab_sizes_[j]);
      for (size_t v = 0; v < vocab; ++v) g[off + v] = p[off + v] * inv_batch;
      g[off + static_cast<size_t>(target)] -= inv_batch;
      total_nll -= std::log(
          std::max(1e-30f, p[off + static_cast<size_t>(target)]));
    }
  }

  // Backward through output layer, residual blocks (skip adds gradients),
  // and the input layer.
  const size_t last = layers_.size() - 1;
  Matrix current_grad;
  layers_[last].Backward(grad, &current_grad);
  Matrix branch_grad;
  for (size_t l = last; l-- > 1;) {
    layers_[l].Backward(current_grad, &branch_grad);
    // Residual: total gradient into the block input = skip + branch.
    AddInPlace(&current_grad, branch_grad);
  }
  layers_[0].Backward(current_grad, nullptr);

  for (auto& layer : layers_) layer.AdamStep(learning_rate);
  return static_cast<float>(total_nll / static_cast<double>(batch));
}

void ResMade::ColumnDistribution(const Matrix& logits, size_t row, size_t col,
                                 std::vector<double>* probs) const {
  const size_t off = out_offsets_[col];
  const size_t vocab = static_cast<size_t>(vocab_sizes_[col]);
  probs->resize(vocab);
  const float* r = logits.Row(row);
  float max_v = r[off];
  for (size_t v = 0; v < vocab; ++v) max_v = std::max(max_v, r[off + v]);
  double sum = 0.0;
  for (size_t v = 0; v < vocab; ++v) {
    (*probs)[v] = std::exp(static_cast<double>(r[off + v] - max_v));
    sum += (*probs)[v];
  }
  for (size_t v = 0; v < vocab; ++v) (*probs)[v] /= sum;
}

size_t ResMade::ParamCount() const {
  size_t total = 0;
  for (const auto& layer : layers_) total += layer.ParamCount();
  return total;
}

}  // namespace arecel
