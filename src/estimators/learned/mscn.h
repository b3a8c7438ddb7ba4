#ifndef ARECEL_ESTIMATORS_LEARNED_MSCN_H_
#define ARECEL_ESTIMATORS_LEARNED_MSCN_H_

#include <memory>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "data/table.h"
#include "ml/matrix.h"
#include "ml/nn.h"

namespace arecel {

// MSCN (Kipf et al., CIDR'19), restricted to single-table queries exactly as
// the paper does (§3: only the predicate features and the qualifying-sample
// bitmap are kept).
//
// Architecture: a shared two-layer MLP embeds each predicate vector
// (column one-hot + op one-hot + normalized literal); embeddings are
// average-pooled over the predicate set. A materialized uniform sample of
// the table is evaluated against the query's conjunction, giving a bitmap
// that a second two-layer MLP embeds. Both representations are concatenated
// into a final two-layer output network producing the log-selectivity.
// Training minimizes the mean q-error (equivalently mean exp|z - t| in log
// space), MSCN's loss.
class MscnEstimator : public CardinalityEstimator {
 public:
  struct Options {
    size_t hidden_units = 48;
    size_t sample_size = 256;
    int epochs = 30;
    int update_epochs = 8;
    size_t batch_size = 64;  // queries per Adam step.
    float learning_rate = 1e-3f;
    // Ablation knob: when false, the bitmap input is zeroed, removing the
    // materialized sample's information while keeping the architecture.
    bool use_sample_bitmap = true;
  };

  MscnEstimator() : MscnEstimator(Options()) {}
  explicit MscnEstimator(Options options) : options_(std::move(options)) {}

  std::string Name() const override { return "mscn"; }
  bool IsQueryDriven() const override { return true; }
  void Train(const Table& table, const TrainContext& context) override;
  void Update(const Table& table, const UpdateContext& context) override;
  double EstimateSelectivity(const Query& query) const override;
  size_t SizeBytes() const override;
  // Packs all three module MLPs for inference (ml/packed.h).
  void PackForServing() override;

  double final_loss() const { return final_loss_; }

  // Model persistence: column ranges, the materialized sample (WriteTable's
  // raw column values; ReadTable rebuilds the dictionaries), and the three
  // module MLPs. Adam moments are not saved; an Update() after a load
  // restarts them from zero.
  bool SerializeModel(ByteWriter* writer) const override;
  bool DeserializeModel(ByteReader* reader) override;

 private:
  // Per-predicate feature rows: (num predicates after decomposition) x
  // pred_dim. Interval predicates decompose into >= lo and <= hi atoms.
  Matrix PredicateFeatures(const Query& query) const;
  // 1 x sample_size 0/1 bitmap of sample rows satisfying the conjunction.
  Matrix SampleBitmap(const Query& query) const;
  // Inference over one query's features: the log-selectivity.
  float Forward(const Matrix& pred_features, const Matrix& bitmap) const;
  // One Adam step over the queries batch[0..count) of the featurized
  // workload: each module runs once over the stacked batch. Adds each
  // query's loss to *loss_sum in batch order.
  void TrainStep(const std::vector<Matrix>& pred_sets,
                 const std::vector<Matrix>& bitmaps,
                 const std::vector<double>& labels, const size_t* batch,
                 size_t count, double* loss_sum);
  void FitWorkload(const Table& table, const Workload& workload, int epochs,
                   uint64_t seed, bool reuse_model);

  Options options_;
  size_t num_cols_ = 0;
  std::vector<double> col_min_, col_max_;
  Table sample_;
  std::unique_ptr<Mlp> pred_mlp_, sample_mlp_, out_mlp_;
  size_t trained_rows_ = 0;
  double final_loss_ = 0.0;
};

}  // namespace arecel

#endif  // ARECEL_ESTIMATORS_LEARNED_MSCN_H_
