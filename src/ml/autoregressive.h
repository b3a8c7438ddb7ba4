#ifndef ARECEL_ML_AUTOREGRESSIVE_H_
#define ARECEL_ML_AUTOREGRESSIVE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "ml/matrix.h"
#include "util/archive.h"

namespace arecel {

// Interface of a deep autoregressive density model over per-column
// dictionary codes — the abstraction Naru's progressive sampling consumes.
// The paper evaluates two instantiations (§2.4): MADE-style masked MLPs
// (ml/made.h, chosen by the paper as "efficient and accurate") and the
// Transformer (ml/transformer.h). Both factorize
//   P(x_0..x_{n-1}) = prod_i P(x_i | x_<i)
// in natural column order.
class AutoregressiveModel {
 public:
  virtual ~AutoregressiveModel() = default;

  virtual size_t num_columns() const = 0;
  virtual int vocab_size(size_t col) const = 0;

  // One optimizer step over `batch` code rows (row-major, batch * n codes).
  // Returns the mean per-row negative log-likelihood (nats).
  virtual float TrainStep(const std::vector<int32_t>& codes, size_t batch,
                          float learning_rate) = 0;

  // Logits of P(x_col | prefix) for `batch` prefixes; only codes of columns
  // < col need to be valid. Output shape (batch x vocab(col)).
  virtual void ColumnLogits(const std::vector<int32_t>& codes, size_t batch,
                            size_t col, Matrix* logits) const = 0;

  virtual size_t ParamCount() const = 0;

  // Builds the int8 inference-weight forms (ml/packed.h) of the
  // backbone's dense layers, if the instantiation supports them. Call only
  // on a model that has finished training and is not concurrently serving
  // ColumnLogits; further TrainStep calls drop the packs. Default: no-op.
  virtual void PackForInference() {}

  // Persistence (core/model_io.h): writes a backbone tag + structural
  // options + every trainable parameter. Adam moments are training-only
  // state and are not saved; an Update() after a load restarts them.
  virtual void Serialize(ByteWriter* writer) const = 0;
};

// Reconstructs a serialized backbone (either family, dispatched on the
// tag). Returns nullptr on a truncated stream or an impossible shape —
// callers must treat that as a corrupt model, not a fresh one.
std::unique_ptr<AutoregressiveModel> DeserializeAutoregressiveModel(
    ByteReader* reader);

// Factory helpers.
struct ResMadeBackboneOptions {
  size_t hidden_units = 64;
  int num_blocks = 2;
  uint64_t seed = 1;
};
std::unique_ptr<AutoregressiveModel> MakeResMadeModel(
    std::vector<int> vocab_sizes, const ResMadeBackboneOptions& options);

struct TransformerBackboneOptions {
  size_t d_model = 32;
  size_t ffn_hidden = 64;
  int num_blocks = 2;
  uint64_t seed = 1;
};
std::unique_ptr<AutoregressiveModel> MakeTransformerModel(
    std::vector<int> vocab_sizes, const TransformerBackboneOptions& options);

}  // namespace arecel

#endif  // ARECEL_ML_AUTOREGRESSIVE_H_
