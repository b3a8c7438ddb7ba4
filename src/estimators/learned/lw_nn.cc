#include "estimators/learned/lw_nn.h"

#include <algorithm>
#include <cmath>

#include "ml/loss.h"
#include "robustness/failure.h"
#include "util/check.h"
#include "util/random.h"

namespace arecel {

void LwNnEstimator::FitWorkload(const Table& table, const Workload& workload,
                                int epochs, uint64_t seed, bool reuse_model,
                                const CancellationToken* cancel) {
  if (!reuse_model || model_ == nullptr) {
    featurizer_.Build(table, options_.include_ce_features);
    std::vector<size_t> sizes;
    sizes.push_back(featurizer_.FeatureDim());
    for (size_t h : options_.hidden) sizes.push_back(h);
    sizes.push_back(1);
    Rng init_rng(seed);
    model_ = std::make_unique<Mlp>(sizes, init_rng);
  }
  trained_rows_ = table.num_rows();

  const size_t n = workload.size();
  std::vector<std::vector<float>> features(n);
  std::vector<float> labels(n);
  for (size_t i = 0; i < n; ++i) {
    features[i] = featurizer_.Featurize(workload.queries[i]);
    labels[i] = static_cast<float>(
        LwFeaturizer::LogLabel(workload.selectivities[i], trained_rows_));
  }

  Rng rng(seed + 1);
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  const size_t batch = std::min(options_.batch_size, n);
  Matrix input(batch, featurizer_.FeatureDim());
  Matrix output, grad(batch, 1);

  for (int epoch = 0; epoch < epochs; ++epoch) {
    if (cancel && cancel->cancelled()) throw CancelledError("lw-nn train");
    rng.Shuffle(order);
    double epoch_loss = 0.0;
    size_t batches = 0;
    for (size_t start = 0; start + batch <= n; start += batch) {
      for (size_t b = 0; b < batch; ++b) {
        const auto& f = features[order[start + b]];
        std::copy(f.begin(), f.end(), input.Row(b));
      }
      model_->ForwardTrain(input, &output);
      // MSE on log labels (ml/loss.h): dL/dz = 2 (z - y) / batch.
      double loss = 0.0;
      for (size_t b = 0; b < batch; ++b) {
        const LossValueGrad value_grad =
            MseLogLoss(output.At(b, 0), labels[order[start + b]]);
        loss += value_grad.loss;
        grad.At(b, 0) =
            static_cast<float>(value_grad.dloss_dz) /
            static_cast<float>(batch);
      }
      epoch_loss += loss / static_cast<double>(batch);
      ++batches;
      model_->Backward(grad);
      model_->AdamStep(options_.learning_rate);
    }
    if (batches > 0) final_loss_ = epoch_loss / static_cast<double>(batches);
  }
}

void LwNnEstimator::Train(const Table& table, const TrainContext& context) {
  ARECEL_CHECK_MSG(context.training_workload != nullptr &&
                       context.training_workload->size() > 0,
                   "LW-NN is query-driven and needs a labelled workload");
  FitWorkload(table, *context.training_workload, options_.epochs,
              context.seed, /*reuse_model=*/false, context.cancellation);
}

void LwNnEstimator::Update(const Table& table, const UpdateContext& context) {
  ARECEL_CHECK(context.update_workload != nullptr);
  const int epochs =
      context.epochs > 0 ? context.epochs : options_.update_epochs;
  // Incremental: keep the learned weights, refresh statistics-derived
  // features only through relabelled queries (the featurizer itself is
  // rebuilt since CE features depend on column statistics).
  featurizer_.Build(table, options_.include_ce_features);
  FitWorkload(table, *context.update_workload, epochs, context.seed,
              /*reuse_model=*/true);
}

double LwNnEstimator::EstimateSelectivity(const Query& query) const {
  ARECEL_CHECK_MSG(model_ != nullptr, "Train() must run first");
  const std::vector<float> features = featurizer_.Featurize(query);
  Matrix input(1, features.size());
  std::copy(features.begin(), features.end(), input.Row(0));
  Matrix output;
  model_->Forward(input, &output);
  return std::clamp(std::exp(static_cast<double>(output.At(0, 0))), 0.0, 1.0);
}

size_t LwNnEstimator::SizeBytes() const {
  return (model_ ? model_->ParamCount() * sizeof(float) : 0) +
         featurizer_.SizeBytes();
}

bool LwNnEstimator::SerializeModel(ByteWriter* writer) const {
  if (model_ == nullptr) return false;
  featurizer_.Serialize(writer);
  writer->U64(trained_rows_);
  SerializeMlp(*model_, writer);
  return true;
}

bool LwNnEstimator::DeserializeModel(ByteReader* reader) {
  uint64_t rows = 0;
  std::unique_ptr<Mlp> model;
  if (!featurizer_.Deserialize(reader) || !reader->U64(&rows) ||
      !DeserializeMlp(reader, &model)) {
    return false;
  }
  const std::vector<DenseLayer>& layers = model->layers();
  if (layers.front().in_features() != featurizer_.FeatureDim() ||
      layers.back().out_features() != 1) {
    return false;
  }
  // Keep options_.hidden consistent so SizeBytes/Update see the loaded
  // shape.
  options_.hidden.clear();
  for (size_t i = 0; i + 1 < layers.size(); ++i)
    options_.hidden.push_back(layers[i].out_features());
  model_ = std::move(model);
  trained_rows_ = rows;
  return true;
}

}  // namespace arecel
