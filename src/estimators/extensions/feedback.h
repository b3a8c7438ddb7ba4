#ifndef ARECEL_ESTIMATORS_EXTENSIONS_FEEDBACK_H_
#define ARECEL_ESTIMATORS_EXTENSIONS_FEEDBACK_H_

#include <memory>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "feedback/online_model.h"

namespace arecel {

// Adaptive estimators over the src/feedback/ online store (DESIGN.md §11).
//
// Both are FeedbackSinks: the serving layer's truth worker (or a test
// driving the loop synchronously) calls ObserveTruth with executed-query
// selectivities, and subsequent estimates for the same predicate subspace
// move toward the observed truth.

// `feedback-knn` — AQO's machinery as a standalone estimator. Training
// binds the schema and seeds the store with the labelled training workload
// (target = log truth selectivity); ObserveTruth keeps feeding it online.
// Queries whose subspace has been observed answer from the kNN+EMA store;
// unseen subspaces fall back to a uniform-independence prior over the
// column spans, so the estimator is total from the first query on.
class FeedbackKnnEstimator : public CardinalityEstimator,
                             public FeedbackSink {
 public:
  explicit FeedbackKnnEstimator(
      feedback::FeedbackOptions options = feedback::FeedbackOptionsFromEnv());

  std::string Name() const override { return "feedback-knn"; }
  bool IsQueryDriven() const override { return true; }
  bool ThreadSafeEstimates() const override { return true; }

  void Train(const Table& table, const TrainContext& context) override;
  void Update(const Table& table, const UpdateContext& context) override;
  double EstimateSelectivity(const Query& query) const override;
  size_t SizeBytes() const override;

  void ObserveTruth(const Query& query, double truth_selectivity) override;

  bool SerializeModel(ByteWriter* writer) const override;
  bool DeserializeModel(ByteReader* reader) override;

  // Data version the store currently learns under (bumped by Update).
  uint64_t data_version() const { return version_; }
  feedback::FeedbackModelStats FeedbackStats() const { return model_.Stats(); }

 private:
  struct ColumnPrior {
    double lo = 0.0;
    double hi = 1.0;
    size_t domain_size = 1;
  };

  double FallbackSelectivity(const Query& query) const;
  // Binds the store's schema, the row count and the column priors to
  // `table`.
  void BindTable(const Table& table);
  void SeedFromWorkload(const Workload& workload);

  feedback::OnlineSubspaceModel model_;
  std::vector<ColumnPrior> priors_;
  size_t rows_ = 0;
  uint64_t version_ = 0;
};

// `feedback-corrected` — the correction decorator: wraps any base estimator
// and multiplies its estimate by the learned exp(residual) for the query's
// subspace, where the residual is log(truth / base estimate) observed on
// executed queries. Estimates for never-observed subspaces pass through
// unchanged, so enabling the loop is never worse than the base on cold
// subspaces. The registry instance wraps the postgres-style baseline.
class FeedbackCorrectedEstimator : public CardinalityEstimator,
                                   public FeedbackSink {
 public:
  explicit FeedbackCorrectedEstimator(
      std::unique_ptr<CardinalityEstimator> base,
      feedback::FeedbackOptions options = feedback::FeedbackOptionsFromEnv());

  // The registry name, regardless of the wrapped base: the registry
  // contract (and model-file kind check) is Name() == MakeEstimator key.
  // base().Name() identifies the wrapped estimator when needed.
  std::string Name() const override { return "feedback-corrected"; }
  bool IsQueryDriven() const override { return base_->IsQueryDriven(); }
  bool ThreadSafeEstimates() const override {
    return base_->ThreadSafeEstimates();
  }

  void Train(const Table& table, const TrainContext& context) override;
  void Update(const Table& table, const UpdateContext& context) override;
  double EstimateSelectivity(const Query& query) const override;
  size_t SizeBytes() const override;

  void ObserveTruth(const Query& query, double truth_selectivity) override;

  bool SerializeModel(ByteWriter* writer) const override;
  bool DeserializeModel(ByteReader* reader) override;

  const CardinalityEstimator& base() const { return *base_; }
  uint64_t data_version() const { return version_; }
  feedback::FeedbackModelStats FeedbackStats() const { return model_.Stats(); }

 private:
  std::unique_ptr<CardinalityEstimator> base_;
  feedback::OnlineSubspaceModel model_;
  size_t rows_ = 0;
  uint64_t version_ = 0;
};

// Registry factory: feedback-corrected over the postgres-style baseline.
std::unique_ptr<CardinalityEstimator> MakeFeedbackCorrectedEstimator();

}  // namespace arecel

#endif  // ARECEL_ESTIMATORS_EXTENSIONS_FEEDBACK_H_
