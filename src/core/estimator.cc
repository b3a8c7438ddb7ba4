#include "core/estimator.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace arecel {

void CardinalityEstimator::Update(const Table& table,
                                  const UpdateContext& context) {
  TrainContext train_context;
  train_context.training_workload = context.update_workload;
  train_context.seed = context.seed;
  Train(table, train_context);
}

double CardinalityEstimator::EstimateCardinality(const Query& query,
                                                 double rows) const {
  return std::clamp(EstimateSelectivity(query) * rows, 0.0, rows);
}

void CardinalityEstimator::TrainJoin(const Schema& schema,
                                     const TrainContext& context) {
  (void)schema;
  (void)context;
  ARECEL_CHECK_MSG(false, "estimator does not support joins (TrainJoin)");
}

double QError(double estimated_cardinality, double actual_cardinality) {
  // A NaN estimate would otherwise clamp to 1.0 (std::max with an unordered
  // NaN returns its first argument) and score as near-perfect; an infinite
  // one used to abort the whole process. Both now yield the defined
  // worst-case sentinel so evaluation keeps going and aggregates expose the
  // broken estimator.
  if (!std::isfinite(estimated_cardinality) ||
      !std::isfinite(actual_cardinality)) {
    return kInvalidQError;
  }
  const double est = std::max(1.0, estimated_cardinality);
  const double act = std::max(1.0, actual_cardinality);
  return std::max(est, act) / std::min(est, act);
}

std::vector<double> EvaluateQErrors(const CardinalityEstimator& estimator,
                                    const Workload& workload, size_t rows) {
  std::vector<double> errors(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    const double est =
        estimator.EstimateCardinality(workload.queries[i], rows);
    errors[i] = QError(est, workload.Cardinality(i, rows));
  }
  return errors;
}

}  // namespace arecel
