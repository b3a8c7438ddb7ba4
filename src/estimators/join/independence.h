#ifndef ARECEL_ESTIMATORS_JOIN_INDEPENDENCE_H_
#define ARECEL_ESTIMATORS_JOIN_INDEPENDENCE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "ml/histogram.h"

namespace arecel {

// Postgres-style join baseline ("postgres-join"): per-table per-column
// statistics (MCVs + equi-depth histogram, ml/histogram.h) combined under
// full independence —
//   sel(join query) = prod_t sel_t(predicates on t)
//                   * prod_edges 1 / max(distinct(left), distinct(right)),
// the textbook eqjoinsel formula against the Cartesian-product denominator.
// Deliberately blind to FK skew and cross-table correlation: the foil the
// learned join estimators are measured against (bench/bench_join.cc).
class JoinIndependenceEstimator : public CardinalityEstimator {
 public:
  explicit JoinIndependenceEstimator(ColumnStats::Options options = {
                                         .num_buckets = 1000,
                                         .num_mcvs = 1000});

  std::string Name() const override { return "postgres-join"; }
  void Train(const Table& table, const TrainContext& context) override;
  double EstimateSelectivity(const Query& query) const override;
  size_t SizeBytes() const override;

  bool SupportsJoins() const override { return true; }
  void TrainJoin(const Schema& schema, const TrainContext& context) override;

 private:
  struct TableStats {
    std::string name;
    size_t rows = 0;
    std::vector<ColumnStats> columns;
  };
  const TableStats* Find(const std::string& name) const;

  ColumnStats::Options options_;
  std::vector<TableStats> stats_;
};

std::unique_ptr<CardinalityEstimator> MakeJoinIndependenceEstimator();

}  // namespace arecel

#endif  // ARECEL_ESTIMATORS_JOIN_INDEPENDENCE_H_
