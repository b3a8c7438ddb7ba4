#ifndef ARECEL_ML_MADE_H_
#define ARECEL_ML_MADE_H_

#include <cstdint>
#include <vector>

#include "ml/matrix.h"
#include "ml/nn.h"
#include "util/random.h"

namespace arecel {

// ResMADE: a masked autoregressive network over the dictionary codes of a
// table's columns — the building block the paper selects for Naru (§3,
// "we choose ResMADE ... because it is both efficient and accurate").
//
// Factorization (natural column order):
//   P(x_0, ..., x_{n-1}) = prod_i P(x_i | x_0..x_{i-1})
//
// Input encoding: each column's code is binary-encoded (ceil(log2(vocab))
// bits), the cheap encoding Naru offers for large domains; all bits of a
// column share that column's autoregressive degree. Output: one logit
// segment of length vocab_i per column; the MADE masks guarantee segment i
// only sees columns < i, so logits for column 0 are data-independent
// (learned marginals live in the bias).
//
// Architecture: masked input layer -> `num_blocks` residual blocks (each a
// masked hidden->hidden dense with ReLU plus identity skip) -> masked
// output layer.
class ResMade {
 public:
  struct Options {
    size_t hidden_units = 64;
    int num_blocks = 2;
    uint64_t seed = 1;
  };

  ResMade(std::vector<int> vocab_sizes, const Options& options);

  size_t num_columns() const { return vocab_sizes_.size(); }
  int vocab_size(size_t col) const { return vocab_sizes_[col]; }
  size_t input_dim() const { return input_dim_; }
  size_t output_dim() const { return output_dim_; }
  size_t logit_offset(size_t col) const { return out_offsets_[col]; }

  // Writes the binary encoding of one code vector (length num_columns) into
  // dst[0 .. input_dim). Columns with index >= `valid_prefix` are encoded
  // as zeros (their value cannot affect outputs for columns < valid_prefix,
  // which is all progressive sampling reads at that step).
  void Encode(const int32_t* codes, size_t valid_prefix, float* dst) const;

  // Inference forward: logits (batch x output_dim).
  void Forward(const Matrix& input, Matrix* logits) const;

  // Inference forward computing only column `col`'s logit segment
  // (batch x vocab(col)). Progressive sampling reads one column per step;
  // slicing the output matmul makes that step O(vocab_col) instead of
  // O(sum of vocabs).
  void ForwardColumnLogits(const Matrix& input, size_t col,
                           Matrix* logits) const;

  // Builds the int8 inference form of every layer (ml/packed.h), which the
  // quant backend runs. Training or raw weight mutation drops the packs
  // layer-by-layer.
  void PackForInference();

  // One SGD/Adam step on a batch. `targets` holds batch*num_columns codes
  // (row-major). Returns the mean per-row negative log-likelihood (nats).
  float TrainStep(const Matrix& input, const std::vector<int32_t>& targets,
                  float learning_rate);

  // P(x_col = k | prefix) for every k, extracted from a logits row.
  void ColumnDistribution(const Matrix& logits, size_t row, size_t col,
                          std::vector<double>* probs) const;

  size_t ParamCount() const;

  // Structure + parameter access for persistence (ml/autoregressive.cc):
  // masks are rebuilt deterministically from (vocab_sizes, hidden_units,
  // num_blocks), so a saved model is reconstructed by re-running the
  // constructor at the recorded shape and overwriting every weight/bias.
  const std::vector<int>& vocab_sizes() const { return vocab_sizes_; }
  size_t hidden_units() const { return layers_[0].out_features(); }
  int num_blocks() const { return static_cast<int>(layers_.size()) - 2; }
  const std::vector<DenseLayer>& layers() const { return layers_; }
  std::vector<DenseLayer>& mutable_layers() { return layers_; }

 private:
  void ForwardInternal(const Matrix& input, Matrix* logits,
                       bool training) const;

  std::vector<int> vocab_sizes_;
  std::vector<int> bits_;          // input bits per column.
  std::vector<size_t> in_offsets_;   // input segment start per column.
  std::vector<size_t> out_offsets_;  // output segment start per column.
  size_t input_dim_ = 0;
  size_t output_dim_ = 0;

  // Layers: [0] input->hidden; [1..num_blocks] hidden->hidden (residual);
  // [last] hidden->output.
  mutable std::vector<DenseLayer> layers_;
  // Training caches: activations entering each layer (post-residual).
  mutable std::vector<Matrix> layer_inputs_;
};

}  // namespace arecel

#endif  // ARECEL_ML_MADE_H_
