#ifndef ARECEL_ML_NN_H_
#define ARECEL_ML_NN_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "ml/matrix.h"
#include "ml/packed.h"
#include "util/archive.h"
#include "util/random.h"

namespace arecel {

// Minimal feed-forward neural-network substrate with hand-derived backward
// passes — the stand-in for PyTorch in this reproduction (DESIGN.md §2).
// It supports exactly what the paper's three NN estimators need:
//  * Dense layers with optional ReLU and optional elementwise weight masks
//    (masks implement MADE's autoregressive connectivity for Naru);
//  * residual additions (ResMADE);
//  * Adam;
//  * MSE-on-log and mean-q-error losses (ml/loss.h).
//
// Matrices are (batch x features), row-major.

enum class Activation { kNone, kRelu };

// Fully-connected layer: out = act(in * W + b), with an optional binary
// mask applied to W on every access (the mask also zeroes the corresponding
// gradients, so masked connections stay dead under Adam).
class DenseLayer {
 public:
  // He-uniform initialization.
  DenseLayer(size_t in_features, size_t out_features, Activation activation,
             Rng& rng);

  // Sets the MADE connectivity mask; shape (in_features x out_features),
  // entries 0/1. Applies immediately to the current weights.
  void SetMask(Matrix mask);

  // Inference forward; no caches.
  void Forward(const Matrix& input, Matrix* output) const;

  // Sliced inference head: out = input * W[:, col_begin:col_begin+cols) +
  // b[col_begin:...), no activation — the MADE logits access pattern.
  void ForwardSlice(const Matrix& input, size_t col_begin, size_t cols,
                    Matrix* out) const;

  // Builds the int8 inference form of the current weights (ml/packed.h);
  // Forward/ForwardSlice then use it under the quant backend and keep the
  // fp32 kernels under the others. Call only on a layer that has finished
  // training and is not concurrently Forward()ing (the serving layer packs
  // before publishing a model). Any weight mutation — AdamStep, SetMask,
  // mutable_weights() — drops the pack, so training numerics never change.
  void PackForInference();
  void ClearPacked();
  bool packed() const { return packed_.has; }

  // Training forward: caches input and pre-activation for Backward.
  void ForwardTrain(const Matrix& input, Matrix* output);

  // Backprop: consumes dL/d(output), accumulates weight/bias gradients and
  // writes dL/d(input) to `input_grad` (may be nullptr for the first layer).
  void Backward(const Matrix& output_grad, Matrix* input_grad);

  // Adam update with the accumulated gradients; zeroes them afterwards.
  void AdamStep(float learning_rate);

  void ZeroGradients();

  size_t in_features() const { return weights_.rows(); }
  size_t out_features() const { return weights_.cols(); }
  size_t ParamCount() const { return weights_.size() + bias_.size(); }

  // Non-const weight access invalidates the packed forms: callers get a
  // handle to mutate, so the derived cache can no longer be trusted.
  Matrix& mutable_weights() {
    packed_.Clear();
    return weights_;
  }
  const Matrix& weights() const { return weights_; }
  std::vector<float>& mutable_bias() { return bias_; }
  const std::vector<float>& bias() const { return bias_; }

 private:
  Activation activation_;
  Matrix weights_;           // (in x out).
  std::vector<float> bias_;  // (out).
  bool has_mask_ = false;
  Matrix mask_;

  // Derived inference cache (ml/packed.h); empty until PackForInference.
  PackedDenseWeights packed_;

  // Gradients.
  Matrix weight_grad_;
  std::vector<float> bias_grad_;

  // Adam state.
  Matrix m_w_, v_w_;
  std::vector<float> m_b_, v_b_;
  int adam_step_ = 0;

  // Caches from ForwardTrain.
  Matrix cached_input_;
  Matrix cached_preact_;

  // Scratch for the fused backward's masked gradient (avoids a per-step
  // allocation; see DenseBackward in ml/kernels.h).
  Matrix dz_scratch_;
};

// A plain multilayer perceptron: a stack of DenseLayers. The last layer is
// linear; hidden layers use ReLU.
class Mlp {
 public:
  // layer_sizes = {in, hidden..., out}.
  Mlp(const std::vector<size_t>& layer_sizes, Rng& rng);

  void Forward(const Matrix& input, Matrix* output) const;
  void ForwardTrain(const Matrix& input, Matrix* output);

  // Packs every layer for inference (see DenseLayer::PackForInference).
  void PackForInference();

  // Backprop from dL/d(output). When `input_grad` is non-null it receives
  // dL/d(input) — needed when this MLP is an inner module of a larger
  // network (e.g. MSCN's predicate/sample sub-networks). It must not alias
  // `output_grad`.
  void Backward(const Matrix& output_grad, Matrix* input_grad = nullptr);

  void AdamStep(float learning_rate);

  size_t ParamCount() const;

  std::vector<DenseLayer>& layers() { return layers_; }
  const std::vector<DenseLayer>& layers() const { return layers_; }

 private:
  std::vector<DenseLayer> layers_;
  // Hidden-layer activation buffers for ForwardTrain only (the last layer
  // writes the caller's output); Forward uses local scratch so concurrent
  // inference over a shared trained model is safe.
  std::vector<Matrix> buffers_;
  // Backward's two alternating gradient buffers.
  Matrix grad_buffers_[2];
};

// Softmax over the columns of each row segment [begin, end). In-place.
void SoftmaxRows(Matrix* m, size_t begin_col, size_t end_col);

// Model-persistence helpers (core/model_io.h, src/store/): topology +
// weights + biases of an MLP. Adam moments are training-only state and are
// not saved — an Update() after a load restarts them from zero, the same
// contract LW-NN documents.
void SerializeMlp(const Mlp& mlp, ByteWriter* writer);

// One layer's weight matrix + bias vector (shape-prefixed). Deserialize
// requires `layer` to already have the matching shape (the caller rebuilds
// the network structure first); returns false on truncation, mismatch or a
// non-finite or implausibly large parameter.
void SerializeDenseLayerParams(const DenseLayer& layer, ByteWriter* writer);
bool DeserializeDenseLayerParams(ByteReader* reader, DenseLayer* layer);

// Rebuilds `*mlp` at the serialized topology with every parameter
// overwritten. Validates layer chaining (out of layer i == in of layer
// i+1), per-layer weight/bias sizes and that every parameter is finite and
// of plausible magnitude; returns false (leaving *mlp in an unspecified
// state) on a truncated or inconsistent stream.
bool DeserializeMlp(ByteReader* reader, std::unique_ptr<Mlp>* mlp);

}  // namespace arecel

#endif  // ARECEL_ML_NN_H_
