#include "feedback/hub.h"

#include <algorithm>
#include <cmath>

namespace arecel::feedback {

namespace {
constexpr char kKeySeparator = '\x1f';
}  // namespace

FeedbackHub::FeedbackHub(FeedbackOptions options) : options_(options) {
  worker_ = std::make_unique<TruthWorker>(
      [this](const TruthJob& job, double truth) { LearnTruth(job, truth); });
}

FeedbackHub::~FeedbackHub() { worker_->Stop(); }

OnlineSubspaceModel* FeedbackHub::ModelForLocked(const std::string& dataset,
                                                 const std::string& estimator,
                                                 bool create) const {
  const std::string key = dataset + kKeySeparator + estimator;
  auto it = models_.find(key);
  if (it != models_.end()) return it->second.get();
  if (!create) return nullptr;
  auto inserted =
      models_.emplace(key, std::make_unique<OnlineSubspaceModel>(options_));
  return inserted.first->second.get();
}

double FeedbackHub::Correct(const std::string& dataset,
                            const std::string& estimator, const Query& query,
                            double base_selectivity, size_t rows) const {
  OnlineSubspaceModel* model = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    model = ModelForLocked(dataset, estimator, /*create=*/false);
  }
  double residual = 0.0;
  if (model == nullptr || !model->Predict(query, &residual)) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++corrections_passthrough_;
    return base_selectivity;
  }
  const double floor = SelectivityFloor(rows);
  const double corrected =
      std::clamp(std::max(base_selectivity, floor) * std::exp(residual),
                 0.0, 1.0);
  std::lock_guard<std::mutex> lock(mutex_);
  ++corrections_applied_;
  return corrected;
}

bool FeedbackHub::EnqueueTruth(TruthJob job) {
  if (job.from_cache_hit) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++cache_hit_jobs_;
  }
  return worker_->Enqueue(std::move(job));
}

void FeedbackHub::LearnTruth(const TruthJob& job, double truth) {
  if (job.deliver) {
    job.deliver(job, truth);
    return;
  }
  const size_t rows = job.snapshot != nullptr ? job.snapshot->num_rows() : 0;
  const double floor = SelectivityFloor(rows);
  const double residual = std::log(std::max(truth, floor) /
                                   std::max(job.base_selectivity, floor));
  std::lock_guard<std::mutex> lock(mutex_);
  const auto invalidated = invalidated_to_.find(job.dataset);
  if (invalidated != invalidated_to_.end() &&
      job.version < invalidated->second) {
    ++stale_truths_;
    return;
  }
  OnlineSubspaceModel* model =
      ModelForLocked(job.dataset, job.estimator, /*create=*/true);
  if (!model->bound()) {
    if (job.snapshot == nullptr) return;
    model->BindSchema(*job.snapshot);
  }
  model->Observe(job.query, residual, job.version);
}

size_t FeedbackHub::InvalidateDataset(const std::string& dataset,
                                      uint64_t min_version) {
  const std::string prefix = dataset + kKeySeparator;
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t& floor = invalidated_to_[dataset];
  floor = std::max(floor, min_version);
  size_t dropped = 0;
  for (auto it = models_.lower_bound(prefix);
       it != models_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it)
    dropped += it->second->InvalidateOlderThan(min_version);
  return dropped;
}

void FeedbackHub::Drain() { worker_->Drain(); }

FeedbackHubStats FeedbackHub::Stats() const {
  FeedbackHubStats stats;
  stats.worker = worker_->Stats();
  std::vector<OnlineSubspaceModel*> models;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats.corrections_applied = corrections_applied_;
    stats.corrections_passthrough = corrections_passthrough_;
    stats.cache_hit_jobs = cache_hit_jobs_;
    stats.stale_truths = stale_truths_;
    for (const auto& [key, model] : models_) models.push_back(model.get());
  }
  for (const OnlineSubspaceModel* model : models) {
    const FeedbackModelStats m = model->Stats();
    stats.models.subspaces += m.subspaces;
    stats.models.entries += m.entries;
    stats.models.observed += m.observed;
    stats.models.predictions += m.predictions;
    stats.models.misses += m.misses;
    stats.models.evicted_entries += m.evicted_entries;
    stats.models.evicted_subspaces += m.evicted_subspaces;
    stats.models.invalidated += m.invalidated;
  }
  return stats;
}

size_t FeedbackHub::SizeBytes() const {
  std::vector<OnlineSubspaceModel*> models;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [key, model] : models_) models.push_back(model.get());
  }
  size_t bytes = sizeof(*this);
  for (const OnlineSubspaceModel* model : models) bytes += model->SizeBytes();
  return bytes;
}

}  // namespace arecel::feedback
