#ifndef ARECEL_ESTIMATORS_LEARNED_NARU_H_
#define ARECEL_ESTIMATORS_LEARNED_NARU_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "estimators/learned/binning.h"
#include "ml/autoregressive.h"

namespace arecel {

// Naru (Yang et al., VLDB'20): a deep autoregressive model over the table's
// per-column dictionary codes, answering range queries with progressive
// sampling. Data-driven: trains on rows only.
//
// Two backbones are provided, matching §2.4 ("deep autoregressive models
// such as MADE and Transformer"): ResMADE (the paper's choice, default) and
// a decoder-only Transformer (ml/transformer.h); see bench_ablation_naru.
//
// Columns whose domain exceeds `max_vocab` are quantile-binned; the model
// then predicts bin probabilities and range predicates snap to bin
// boundaries (DESIGN.md §2 documents this substitution for the paper's
// embedding-based large-domain handling — both mechanisms trade resolution
// for size at large domains, which is what Figure 10 probes).
//
// Progressive sampling (§2.4) draws `sample_count` paths column by column,
// masking each conditional distribution to the values allowed by the
// query; the estimate is the mean product of the masked masses. The
// procedure is stochastic by design — Figure 11 and the stability rule of
// Table 6 probe exactly this — so each estimate draws fresh randomness
// from a mutable per-instance counter unless `pin_sampling_seed` is set.
class NaruEstimator : public CardinalityEstimator {
 public:
  enum class Backbone { kResMade, kTransformer };

  // Most progressive-sampling paths a model may use: Train refuses more and
  // DeserializeModel rejects more, so every model that saves also loads
  // and no stored byte can slow estimates past it.
  static constexpr int kMaxSampleCount = 4096;

  struct Options {
    Backbone backbone = Backbone::kResMade;
    size_t hidden_units = 64;  // ResMADE hidden width.
    int num_blocks = 2;        // residual / transformer blocks.
    size_t d_model = 32;       // Transformer embedding width.
    size_t ffn_hidden = 64;    // Transformer FFN width.
    int epochs = 20;
    int update_epochs = 1;  // the paper updates Naru with one epoch (§5.1).
    size_t batch_size = 512;
    float learning_rate = 7e-4f;
    int max_vocab = 256;
    int sample_count = 128;  // progressive-sampling paths, at most
                             // kMaxSampleCount.
    size_t max_train_rows = 20000;  // row subsample cap per epoch.
    bool pin_sampling_seed = false;
  };

  NaruEstimator() : NaruEstimator(Options()) {}
  explicit NaruEstimator(Options options) : options_(std::move(options)) {}

  std::string Name() const override { return "naru"; }
  void Train(const Table& table, const TrainContext& context) override;
  void Update(const Table& table, const UpdateContext& context) override;
  double EstimateSelectivity(const Query& query) const override;
  size_t SizeBytes() const override;
  // Progressive sampling advances estimate_counter_ per call.
  bool ThreadSafeEstimates() const override { return false; }
  // Packs the backbone's dense layers into the int8 form the quant backend
  // serves from — the MADE logits layer slices are its headline consumer
  // (ml/packed.h).
  void PackForServing() override {
    if (model_ != nullptr) model_->PackForInference();
  }

  // Model persistence: column binnings + the autoregressive backbone
  // (either family, via AutoregressiveModel::Serialize) + the inference
  // knobs that shape estimates (sample_count, pin_sampling_seed). The
  // per-instance estimate counter restarts at zero, matching a fresh
  // instance — round-trip comparisons must be sequence-aligned.
  bool SerializeModel(ByteWriter* writer) const override;
  bool DeserializeModel(ByteReader* reader) override;

  double final_loss() const { return final_loss_; }
  const AutoregressiveModel* model() const { return model_.get(); }

 private:
  void RunEpochs(const Table& table, int epochs, uint64_t seed,
                 const CancellationToken* cancel = nullptr);

  Options options_;
  std::vector<ColumnBinning> binnings_;
  std::unique_ptr<AutoregressiveModel> model_;
  double final_loss_ = 0.0;
  mutable uint64_t estimate_counter_ = 0;
};

}  // namespace arecel

#endif  // ARECEL_ESTIMATORS_LEARNED_NARU_H_
