#ifndef ARECEL_ML_TRANSFORMER_H_
#define ARECEL_ML_TRANSFORMER_H_

#include <cstdint>
#include <vector>

#include "ml/autoregressive.h"
#include "ml/matrix.h"
#include "ml/packed.h"
#include "util/random.h"

namespace arecel {

// Decoder-only autoregressive Transformer over column codes — the second
// model family Naru builds on (§2.4 "deep autoregressive models such as
// MADE and Transformer"). Single attention head, causal mask, ReLU FFN,
// residual connections (no normalization layers: at <=16 positions and the
// small widths used here Adam trains the residual stack stably, and the
// backward pass stays auditable).
//
// Sequence layout: position i predicts column i from a token embedding of
// column i-1's value (a learned start-of-sequence vector at position 0)
// plus a learned positional embedding, so position i sees exactly
// x_0..x_{i-1} through the causal attention mask.
class AutoregressiveTransformer : public AutoregressiveModel {
 public:
  AutoregressiveTransformer(std::vector<int> vocab_sizes,
                            const TransformerBackboneOptions& options);

  size_t num_columns() const override { return vocab_sizes_.size(); }
  int vocab_size(size_t col) const override { return vocab_sizes_[col]; }

  float TrainStep(const std::vector<int32_t>& codes, size_t batch,
                  float learning_rate) override;

  void ColumnLogits(const std::vector<int32_t>& codes, size_t batch,
                    size_t col, Matrix* logits) const override;

  size_t ParamCount() const override;

  // Packs the per-column output heads (d x vocab — the widest matmuls on
  // the ColumnLogits path) and each block's FFN expansion W1 into the int8
  // form the quant backend runs (ml/packed.h). TrainStep and
  // DeserializeParams drop the packs.
  void PackForInference() override;

  void Serialize(ByteWriter* writer) const override;
  // Overwrites every parameter from the stream; shapes must match this
  // instance's construction (the deserializing factory rebuilds it from the
  // recorded structural options first). False on truncation or mismatch.
  bool DeserializeParams(ByteReader* reader);

 private:
  // A weight matrix (or bias vector via 1 x n) with its gradient and Adam
  // state.
  struct Param {
    Matrix value, grad, m, v;
    void Init(size_t rows, size_t cols, Rng& rng);
    void AdamStep(float learning_rate, int step);
  };

  struct Block {
    Param wq, wk, wv, wo;    // attention projections, (d x d).
    Param w1, b1, w2, b2;    // FFN (d x f), (1 x f), (f x d), (1 x d).
  };

  // Per-block training caches (batch*n rows unless noted).
  struct BlockCache {
    Matrix input;            // H entering the block.
    Matrix q, k, v;          // projections.
    std::vector<Matrix> attention;  // per sample, (n x n) softmax rows.
    Matrix context;          // A*V.
    Matrix after_attention;  // H + context*Wo (input to FFN).
    Matrix ffn_pre;          // after_attention * W1 + b1 (pre-ReLU).
  };

  // Builds the embedded input H0 (batch*n x d). Positions >= valid_prefix+1
  // read zero embeddings (their tokens cannot affect earlier positions).
  void Embed(const std::vector<int32_t>& codes, size_t batch,
             size_t valid_prefix, Matrix* h) const;
  // Runs the block stack; fills caches when training.
  void ForwardBlocks(Matrix* h, std::vector<BlockCache>* caches) const;
  void AttentionForward(const Block& block, const Matrix& input, Matrix* out,
                        BlockCache* cache) const;

  std::vector<int> vocab_sizes_;
  size_t d_model_;
  size_t ffn_hidden_;

  Param sos_;                      // (1 x d).
  Param positions_;                // (n x d).
  std::vector<Param> embeddings_;  // per column, (vocab x d).
  std::vector<Block> blocks_;
  std::vector<Param> out_weights_;  // per column, (d x vocab).
  std::vector<Param> out_biases_;   // per column, (1 x vocab).
  int adam_step_ = 0;

  void ClearPacked();

  // Derived inference caches (empty until PackForInference): one pack per
  // output head, one per block FFN W1.
  std::vector<PackedDenseWeights> packed_out_;
  std::vector<PackedDenseWeights> packed_w1_;
};

}  // namespace arecel

#endif  // ARECEL_ML_TRANSFORMER_H_
