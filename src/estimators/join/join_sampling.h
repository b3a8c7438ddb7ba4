#ifndef ARECEL_ESTIMATORS_JOIN_JOIN_SAMPLING_H_
#define ARECEL_ESTIMATORS_JOIN_JOIN_SAMPLING_H_

#include <memory>
#include <string>
#include <vector>

#include "core/estimator.h"

namespace arecel {

// Join-aware correlated sampling ("sampling-join").
//
// At TrainJoin time the estimator draws a uniform sample of the star
// center's rows and *materializes the join* for each sampled row: every FK
// edge is followed into its dimension (key -> row hash lookup), producing a
// row-aligned joined sample that preserves exactly the cross-table
// correlations independence baselines destroy. A join query is then
// answered by the fraction of joined-sample rows satisfying every
// participating table's predicates, divided by the row counts of the
// participating dimensions to land in the Cartesian-product convention:
//   sel ~= (sum of matching sample weights / sample size)
//          / prod_{dims in query} |dim|.
// Dangling FKs get weight 0; duplicate build keys are folded into the
// weight via key multiplicity (exact under PK-FK integrity, where every
// multiplicity is 1). Per-table uniform samples additionally serve
// one-table queries, including those that name no tables.
class JoinSamplingEstimator : public CardinalityEstimator {
 public:
  explicit JoinSamplingEstimator(size_t max_sample_rows = 10000);

  std::string Name() const override { return "sampling-join"; }
  void Train(const Table& table, const TrainContext& context) override;
  double EstimateSelectivity(const Query& query) const override;
  size_t SizeBytes() const override;

  bool SupportsJoins() const override { return true; }
  void TrainJoin(const Schema& schema, const TrainContext& context) override;

 private:
  // Uniform per-table sample, row-major by column.
  struct TableSample {
    std::string name;
    size_t table_rows = 0;
    size_t sample_rows = 0;
    std::vector<std::vector<double>> columns;  // [col][sample row].
  };
  // One joined dimension of the correlated sample, aligned with the center
  // sample rows.
  struct JoinedDimension {
    std::string name;
    size_t table_rows = 0;
    std::vector<std::vector<double>> columns;  // [col][center sample row].
    std::vector<double> weight;  // key multiplicity; 0 = dangling FK.
  };

  const JoinedDimension* FindDimension(const std::string& name) const;

  size_t max_sample_rows_;
  std::string center_;
  size_t center_sample_rows_ = 0;
  std::vector<std::vector<double>> center_columns_;  // [col][sample row].
  std::vector<JoinedDimension> joined_;
  std::vector<TableSample> per_table_;
};

std::unique_ptr<CardinalityEstimator> MakeJoinSamplingEstimator();

}  // namespace arecel

#endif  // ARECEL_ESTIMATORS_JOIN_JOIN_SAMPLING_H_
