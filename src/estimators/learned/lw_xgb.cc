#include "estimators/learned/lw_xgb.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace arecel {

void LwXgbEstimator::Train(const Table& table, const TrainContext& context) {
  ARECEL_CHECK_MSG(context.training_workload != nullptr &&
                       context.training_workload->size() > 0,
                   "LW-XGB is query-driven and needs a labelled workload");
  featurizer_.Build(table, options_.include_ce_features);
  trained_rows_ = table.num_rows();

  const Workload& workload = *context.training_workload;
  std::vector<std::vector<float>> features(workload.size());
  std::vector<double> labels(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    features[i] = featurizer_.Featurize(workload.queries[i]);
    labels[i] =
        LwFeaturizer::LogLabel(workload.selectivities[i], trained_rows_);
  }
  model_.Train(features, labels, options_.gbdt);
}

double LwXgbEstimator::EstimateSelectivity(const Query& query) const {
  const std::vector<float> features = featurizer_.Featurize(query);
  const double log_sel = model_.Predict(features);
  return std::clamp(std::exp(log_sel), 0.0, 1.0);
}

bool LwXgbEstimator::SerializeModel(ByteWriter* writer) const {
  featurizer_.Serialize(writer);
  model_.Serialize(writer);
  writer->U64(trained_rows_);
  return true;
}

bool LwXgbEstimator::DeserializeModel(ByteReader* reader) {
  uint64_t rows = 0;
  if (!featurizer_.Deserialize(reader) ||
      !model_.Deserialize(reader, featurizer_.FeatureDim()) ||
      !reader->U64(&rows)) {
    return false;
  }
  trained_rows_ = rows;
  return true;
}

size_t LwXgbEstimator::SizeBytes() const {
  return model_.SizeBytes() + featurizer_.SizeBytes();
}

}  // namespace arecel
