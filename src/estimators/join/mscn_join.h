#ifndef ARECEL_ESTIMATORS_JOIN_MSCN_JOIN_H_
#define ARECEL_ESTIMATORS_JOIN_MSCN_JOIN_H_

#include <memory>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "ml/matrix.h"
#include "ml/nn.h"

namespace arecel {

// Full multi-set convolutional network ("mscn-join"): MSCN (Kipf et al.,
// CIDR'19) with all three input modules, extending the single-table
// restriction of estimators/learned/mscn.cc to star join queries.
//
// Per query, three variable-size sets are featurized and embedded by
// shared two-layer MLPs with average pooling:
//  * table set: one row per participating table —
//    [table one-hot | bitmap of that table's materialized sample under the
//    query's predicates on that table];
//  * join set: one row per join edge — one-hot over the schema's FK edges
//    (a single zero row for single-table queries);
//  * predicate set: one row per predicate atom —
//    [(table, column) one-hot | op one-hot (=, >=, <=) | normalized
//    literal], intervals decomposed into >= and <= atoms.
// The three pooled embeddings are concatenated into the output MLP, which
// produces log Cartesian-product selectivity; training minimizes the mean
// q-error in log space, exactly like the single-table MSCN.
class MscnJoinEstimator : public CardinalityEstimator {
 public:
  struct Options {
    size_t hidden_units = 64;
    size_t sample_size = 128;  // materialized sample rows per table.
    int epochs = 160;
    size_t batch_size = 64;
    float learning_rate = 1e-3f;  // stepped 1x/0.5x/0.25x over the epochs.
  };

  MscnJoinEstimator() : MscnJoinEstimator(Options()) {}
  explicit MscnJoinEstimator(Options options) : options_(options) {}

  std::string Name() const override { return "mscn-join"; }
  bool IsQueryDriven() const override { return true; }
  void Train(const Table& table, const TrainContext& context) override;
  double EstimateSelectivity(const Query& query) const override;
  size_t SizeBytes() const override;
  void PackForServing() override;

  bool SupportsJoins() const override { return true; }
  void TrainJoin(const Schema& schema, const TrainContext& context) override;

  double final_loss() const { return final_loss_; }

  // The four module MLPs in SerializeMlp form (table, join, predicate,
  // output). mscn-join has no model file; these bytes pin its training
  // numerics in tests.
  void SerializeWeights(ByteWriter* writer) const;

 private:
  // Frozen per-table metadata captured at TrainJoin time.
  struct TableInfo {
    std::string name;
    size_t rows = 0;
    size_t col_offset = 0;  // into the global (table, column) one-hot.
    std::vector<double> col_min, col_max;
    std::vector<std::vector<double>> sample;  // [col][sample row].
    size_t sample_rows = 0;
  };
  int EdgeIndexOf(const JoinEdge& edge) const;

  // The three feature sets of `query`, whose tables resolve to `tables`
  // (ResolveQueryTables).
  Matrix TableFeatures(const Query& query,
                       const std::vector<const TableInfo*>& tables) const;
  Matrix JoinFeatures(const Query& query) const;
  Matrix PredicateFeatures(const Query& query,
                           const std::vector<const TableInfo*>& tables) const;
  // Inference over one query's three feature sets: the log-selectivity.
  float Forward(const Matrix& table_rows, const Matrix& join_rows,
                const Matrix& pred_rows) const;
  // One Adam step at rate `lr` over the queries batch[0..count) of the
  // featurized workload (sets[0..2] = table, join and predicate sets per
  // query): each module runs once over its stacked sets. Adds each query's
  // loss to *loss_sum in batch order.
  void TrainStep(const std::vector<Matrix> (&sets)[3],
                 const std::vector<double>& labels, const size_t* batch,
                 size_t count, float lr, double* loss_sum);
  void FitWorkload(const Workload& workload, int epochs, uint64_t seed,
                   bool reuse_model);

  Options options_;
  std::vector<TableInfo> tables_;
  std::vector<ForeignKey> edges_;
  size_t total_cols_ = 0;
  std::unique_ptr<Mlp> table_mlp_, join_mlp_, pred_mlp_, out_mlp_;
  double final_loss_ = 0.0;
};

std::unique_ptr<CardinalityEstimator> MakeMscnJoinEstimator();

}  // namespace arecel

#endif  // ARECEL_ESTIMATORS_JOIN_MSCN_JOIN_H_
