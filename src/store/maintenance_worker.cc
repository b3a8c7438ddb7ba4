#include "store/maintenance_worker.h"

#include <algorithm>
#include <chrono>
#include <climits>

#include "core/model_io.h"
#include "util/env.h"

namespace arecel::store {

MaintenanceOptions MaintenanceOptions::FromEnv() {
  MaintenanceOptions options;
  const double interval = EnvDouble("ARECEL_MAINT_INTERVAL_MS", 0.0);
  if (interval >= 1.0 && interval <= INT_MAX)
    options.interval_ms = static_cast<int>(interval);
  return options;
}

MaintenanceWorker::MaintenanceWorker(
    std::shared_ptr<serve::ModelManager> manager,
    std::shared_ptr<ModelStore> store, MaintenanceOptions options)
    : manager_(std::move(manager)),
      store_(std::move(store)),
      options_(options),
      jitter_state_(options.jitter_seed | 1) {}

MaintenanceWorker::~MaintenanceWorker() { Stop(); }

void MaintenanceWorker::Start() {
  std::lock_guard<std::mutex> lock(run_mutex_);
  if (thread_.joinable()) return;
  stop_ = false;
  thread_ = std::thread([this] { Loop(); });
}

void MaintenanceWorker::Stop() {
  {
    std::lock_guard<std::mutex> lock(run_mutex_);
    stop_ = true;
  }
  run_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  // Final flush: a short-lived server (train, answer, exit) must not lose
  // its trained models to the tick interval. Same bounded-retry drain as a
  // regular pass, so a persistently failing disk cannot wedge shutdown.
  std::lock_guard<std::mutex> tick_lock(tick_mutex_);
  DrainSaves();
}

void MaintenanceWorker::Loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(run_mutex_);
      run_cv_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                       [this] { return stop_; });
      if (stop_) return;
    }
    TickNow();
  }
}

size_t MaintenanceWorker::TickNow() {
  std::lock_guard<std::mutex> tick_lock(tick_mutex_);
  size_t actions = 0;
  // Refresh first so a retrain's save-back commits within the same pass.
  actions += RefreshStale();
  actions += DrainSaves();
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.ticks;
  return actions;
}

void MaintenanceWorker::SleepBeforeRetry(int attempt) {
  int jitter_ms = 0;
  {
    // xorshift64 on the seeded state: deterministic per worker, decorrelated
    // across retries so two workers colliding on a flaky disk spread out.
    std::lock_guard<std::mutex> lock(stats_mutex_);
    jitter_state_ ^= jitter_state_ << 13;
    jitter_state_ ^= jitter_state_ >> 7;
    jitter_state_ ^= jitter_state_ << 17;
    if (options_.backoff_base_ms > 0)
      jitter_ms = static_cast<int>(
          jitter_state_ %
          static_cast<uint64_t>(options_.backoff_base_ms));
  }
  const int backoff = std::min(options_.backoff_max_ms,
                               options_.backoff_base_ms << attempt);
  std::this_thread::sleep_for(
      std::chrono::milliseconds(std::max(0, backoff) + jitter_ms));
}

size_t MaintenanceWorker::DrainSaves() {
  size_t committed = 0;
  for (const serve::PendingSave& save : manager_->TakePendingSaves()) {
    if (save.model == nullptr || save.model->estimator == nullptr) continue;

    std::string bytes;
    bool serialized = false;
    {
      // Stochastic estimators mutate state during estimates (e.g. naru's
      // sampling counter); hold the same mutex the serving path holds so
      // serialization sees a quiescent model.
      std::unique_lock<std::mutex> infer_lock;
      if (!save.model->thread_safe)
        infer_lock = std::unique_lock<std::mutex>(save.model->inference_mutex);
      serialized = SerializeEstimatorBytes(*save.model->estimator, &bytes);
    }
    if (!serialized) {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.save_failures;
      continue;
    }

    bool done = false;
    for (int attempt = 0; attempt < options_.save_max_attempts; ++attempt) {
      if (attempt > 0) {
        SleepBeforeRetry(attempt - 1);
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.save_retries;
      }
      if (store_->Put(save.dataset, save.estimator, bytes)) {
        done = true;
        break;
      }
    }
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (done) {
      ++stats_.saves_committed;
      ++committed;
    } else {
      ++stats_.save_failures;
    }
  }
  return committed;
}

size_t MaintenanceWorker::RefreshStale() {
  size_t refreshed = 0;
  for (const serve::LoadedModelInfo& info : manager_->LoadedModels())
    if (manager_->RefreshModelNow(info.dataset, info.estimator)) ++refreshed;
  return refreshed;
}

WorkerStats MaintenanceWorker::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

}  // namespace arecel::store

