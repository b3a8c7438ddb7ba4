#ifndef ARECEL_STORE_MAINTENANCE_WORKER_H_
#define ARECEL_STORE_MAINTENANCE_WORKER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>

#include "serve/model_manager.h"
#include "store/model_store.h"

namespace arecel::store {

// Background maintenance for a store-backed serving deployment. Owns the
// work the serving threads must never block on:
//
//  * write-back — drains ModelManager::TakePendingSaves(), serializes each
//    trained model (under its inference mutex when inference mutates
//    state, e.g. naru's sampling counter) and commits it to the store with
//    bounded retries under exponential backoff + jitter;
//  * refresh retry — calls ModelManager::RefreshModelNow for every loaded
//    model, which retrains on this thread the ones behind their data with
//    no build in flight: a refresh that failed (or was never started)
//    gets another try each pass. Refreshes are counted in the manager's
//    ManagerCounters.

struct MaintenanceOptions {
  // Pause between background passes. ARECEL_MAINT_INTERVAL_MS.
  int interval_ms = 1000;

  // Write-back retry policy: up to save_max_attempts Puts per model, with
  // sleep min(backoff_max_ms, backoff_base_ms << attempt) plus up to
  // backoff_base_ms of jitter between attempts. A model that exhausts its
  // attempts is dropped (counted in save_failures); the next successful
  // retrain re-enqueues fresh state.
  int save_max_attempts = 3;
  int backoff_base_ms = 10;
  int backoff_max_ms = 1000;

  uint64_t jitter_seed = 0x5eed;

  // Reads ARECEL_MAINT_INTERVAL_MS.
  static MaintenanceOptions FromEnv();
};

struct WorkerStats {
  uint64_t ticks = 0;
  uint64_t saves_committed = 0;
  uint64_t save_retries = 0;    // failed Put attempts that were retried.
  uint64_t save_failures = 0;   // models dropped after the attempt budget.
};

class MaintenanceWorker {
 public:
  MaintenanceWorker(std::shared_ptr<serve::ModelManager> manager,
                    std::shared_ptr<ModelStore> store,
                    MaintenanceOptions options = {});
  ~MaintenanceWorker();  // Stop().

  MaintenanceWorker(const MaintenanceWorker&) = delete;
  MaintenanceWorker& operator=(const MaintenanceWorker&) = delete;

  // Starts the background loop (idempotent).
  void Start();

  // Signals the loop, joins it, then drains pending save-backs one last
  // time so a clean shutdown persists everything trained since the last
  // tick. Safe to call twice; the destructor calls it.
  void Stop();

  // Runs one full maintenance pass (refresh retry + write-back) on the
  // calling thread and returns the number of actions taken. Tests drive
  // this directly for determinism; the background loop calls it too, so
  // both paths are the same code.
  size_t TickNow();

  WorkerStats stats() const;

 private:
  void Loop();
  size_t DrainSaves();
  size_t RefreshStale();
  void SleepBeforeRetry(int attempt);

  std::shared_ptr<serve::ModelManager> manager_;
  std::shared_ptr<ModelStore> store_;
  MaintenanceOptions options_;

  std::mutex tick_mutex_;  // serializes TickNow vs. the background loop.

  std::mutex run_mutex_;
  std::condition_variable run_cv_;
  bool stop_ = false;       // guarded by run_mutex_.
  std::thread thread_;

  mutable std::mutex stats_mutex_;
  WorkerStats stats_;
  uint64_t jitter_state_ = 0;  // guarded by stats_mutex_.
};

}  // namespace arecel::store

#endif  // ARECEL_STORE_MAINTENANCE_WORKER_H_
