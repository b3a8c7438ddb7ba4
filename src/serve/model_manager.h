#ifndef ARECEL_SERVE_MODEL_MANAGER_H_
#define ARECEL_SERVE_MODEL_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "data/table.h"
#include "util/latency_histogram.h"

namespace arecel::store {
class ModelStore;
}  // namespace arecel::store

namespace arecel::serve {

using ServeEstimatorFactory =
    std::function<std::unique_ptr<CardinalityEstimator>(const std::string&)>;

struct ModelManagerOptions {
  // Crash-safe versioned model store (src/store/; null disables
  // persistence). Cold loads read the last committed generation through
  // the store's checksum-verified recovery path (restart = warm start), and
  // trained models that support persistence (cheap counting probe,
  // core/model_io.h) are queued for the MaintenanceWorker to save, never
  // written on the serving thread. A payload the store serves but the
  // deserializer rejects as corrupt poisons only that instance: the manager
  // discards it, counts a corrupt_load, and cold-trains.
  std::shared_ptr<arecel::store::ModelStore> store;

  // Labelled workload size for query-driven methods trained on first use.
  size_t train_query_count = 2000;

  // Base training seed; the effective seed is TrainSeedForVersion(base,
  // data version) so a refresh at version v is reproducible by a manual
  // retrain at the same version.
  uint64_t train_seed = 42;

  // Estimator constructor, defaulting to the registry's MakeEstimator.
  // Tests and the bench swap in fault-injecting wrappers here.
  ServeEstimatorFactory factory;
};

// Deterministic training seed for (base seed, data version): refreshed
// models must be bit-identical to a fresh retrain at the same version,
// which is what the serve tests pin.
uint64_t TrainSeedForVersion(uint64_t base_seed, uint64_t data_version);

// One servable trained model. Immutable after publication except for the
// inference mutex, which serializes EstimateSelectivity calls for
// estimators whose inference is not a pure read (ThreadSafeEstimates()
// false: naru / bayes / dqm-d / guarded), and the latency of the requests
// served from it, which the server records without a lock.
struct ServedModel {
  std::shared_ptr<CardinalityEstimator> estimator;
  uint64_t data_version = 0;
  size_t trained_rows = 0;
  // Columns of the table the model serves; appends never change it, so the
  // server checks predicate columns against it without a lock.
  size_t num_columns = 0;
  bool thread_safe = true;
  std::string source;  // "trained" | "loaded" | "refreshed".
  double train_seconds = 0.0;
  mutable std::mutex inference_mutex;
  mutable LatencyHistogram latency;
};

struct ManagerCounters {
  uint64_t cold_trains = 0;
  uint64_t persisted_loads = 0;
  uint64_t refreshes = 0;            // background retrains completed.
  uint64_t refresh_failures = 0;     // background retrains that threw.
  uint64_t single_flight_waits = 0;  // requests that waited on a cold load.
  uint64_t train_failures = 0;
  uint64_t evictions = 0;
  uint64_t corrupt_loads = 0;    // store payloads rejected as corrupt.
  uint64_t saves_enqueued = 0;   // save-backs queued for the worker.
  uint64_t packed_models = 0;    // models packed for serving (PackForServing).
};

// A trained model awaiting write-back to the store. The worker serializes
// it (under the inference mutex when the estimator's inference mutates
// state) and commits it as a new generation.
struct PendingSave {
  std::string dataset;
  std::string estimator;
  std::shared_ptr<const ServedModel> model;
};

// Loaded-model inventory row, for the maintenance worker's refresh pass
// and the server's latency report.
struct LoadedModelInfo {
  std::string dataset;
  std::string estimator;
  std::shared_ptr<const ServedModel> model;
};

// Owns the dataset snapshots and the trained estimators behind the serving
// layer, keyed by (dataset, estimator name).
//
// Concurrency contract:
//  * One routine publishes every model: it snapshots (table, version),
//    builds outside any lock, installs the result into the registry entry
//    and wakes waiters. GetModel's cold load, RefreshModelsAsync and
//    RefreshModelNow all run it, and each entry has at most one build in
//    flight.
//  * GetModel is single-flight: N concurrent requests for the same cold
//    model run exactly one train (or persisted load); the rest block and
//    share the result. A hit is one lock and one lookup, and returns the
//    current model even while its refresh is in flight.
//  * ApplyUpdate installs a new table snapshot under a fresh data version;
//    existing models keep serving (stale-while-revalidate) until a refresh
//    swaps them, one atomically published ServedModel at a time. Updates
//    of one dataset are serialized from snapshot to install, so version
//    k + 1 always extends version k: concurrent Update calls never drop
//    each other's rows.
//  * A model installed behind its dataset's version (an update landed
//    while it was built) starts one background refresh of its entry, so
//    every loaded model converges to its data; WaitForRefreshes waits for
//    that refresh too. A failed build starts none.
//  * Published ServedModels are immutable, so readers never need a lock to
//    use one (beyond the inference mutex for stochastic estimators).
class ModelManager {
 public:
  explicit ModelManager(ModelManagerOptions options = {});
  ~ModelManager();  // waits for in-flight background refreshes.

  ModelManager(const ModelManager&) = delete;
  ModelManager& operator=(const ModelManager&) = delete;

  // Installs a dataset snapshot at data version 0. A name registers once:
  // when it exists the call returns false and changes nothing.
  bool RegisterDataset(const std::string& name, Table table);

  bool HasDataset(const std::string& name) const;
  std::vector<std::string> DatasetNames() const;
  std::shared_ptr<const Table> TableSnapshot(const std::string& dataset) const;
  uint64_t DataVersion(const std::string& dataset) const;

  // Single-flight get-or-load-or-train. Returns nullptr (and fills *error
  // when given) if the dataset is unknown or training failed; a failed load
  // is forgotten, so the next request retries.
  std::shared_ptr<const ServedModel> GetModel(const std::string& dataset,
                                              const std::string& estimator,
                                              std::string* error = nullptr);

  // The paper's append-update procedure (§5.1 sorted-copy append):
  // appends `fraction` * rows correlated tuples, installs the new snapshot,
  // and returns the bumped data version. Serving continues from the old
  // models until their refreshes land.
  uint64_t ApplyUpdate(const std::string& dataset, double fraction,
                       uint64_t seed);

  // Kicks one background full retrain per loaded model of `dataset` that
  // is behind the current data version and has no build in flight, each
  // on a pool worker that starts it at once (StartOnWorker). Returns how
  // many were started. A failed retrain keeps the stale model serving and
  // counts a refresh_failure.
  size_t RefreshModelsAsync(const std::string& dataset);

  // Blocks until no background refresh is in flight, catch-up refreshes
  // of models that landed behind their data included.
  void WaitForRefreshes();

  // Synchronous single-model refresh: retrains (dataset, estimator) at the
  // current data version on the calling thread and atomically swaps it
  // in. Returns false — without touching the serving entry — when the
  // model is not loaded, has a build in flight, is already fresh, or the
  // retrain failed (stale model keeps serving). `cancel` is threaded into
  // TrainContext.
  bool RefreshModelNow(const std::string& dataset,
                       const std::string& estimator,
                       const CancellationToken* cancel = nullptr,
                       std::string* error = nullptr);

  // Drains the save-back queue (trained models waiting for the maintenance
  // worker to persist them). Models enqueue after successful cold trains
  // and refreshes when a store is configured and the estimator supports
  // persistence.
  std::vector<PendingSave> TakePendingSaves();

  // Snapshot of the entries that serve a model.
  std::vector<LoadedModelInfo> LoadedModels() const;

  // Drops a model entry (e.g. after a per-request deadline abandoned a
  // worker inside a non-thread-safe model). The next GetModel retrains.
  void Evict(const std::string& dataset, const std::string& estimator);

  ManagerCounters counters() const;

  const ModelManagerOptions& options() const { return options_; }

 private:
  struct DatasetState {
    std::shared_ptr<const Table> table;
    uint64_t version = 0;
    // Held by ApplyUpdate from reading the snapshot to installing its
    // successor; taken before data_mutex_. The map never erases an entry,
    // so the mutex outlives every caller.
    std::mutex update_mutex;
  };

  struct ModelEntry {
    // The entry's one build in flight: its cold load (model still null)
    // or a refresh (the current model keeps serving).
    bool building = false;
    std::shared_ptr<const ServedModel> model;

    // The one staleness test: serves a model older than `version`, with
    // no build in flight.
    bool Behind(uint64_t version) const {
      return !building && model != nullptr && model->data_version < version;
    }
  };

  static std::string ModelKey(const std::string& dataset,
                              const std::string& estimator);

  // Reads (snapshot, version) as one consistent pair.
  bool Snapshot(const std::string& dataset,
                std::shared_ptr<const Table>* table, uint64_t* version,
                std::string* error) const;

  // The one publish path, for an entry the caller marked `building` (and,
  // for a refresh, counted in active_refreshes_). Snapshots the dataset,
  // builds through BuildModel outside any lock, then under models_mutex_
  // installs a built model, clears the flag and wakes waiters; a failed
  // cold load erases the entry so the next request retries. A model
  // installed behind its data starts one background refresh of the entry.
  // Returns the built model, or nullptr with *error filled.
  std::shared_ptr<const ServedModel> Publish(
      const std::string& dataset, const std::string& estimator,
      bool is_refresh, const CancellationToken* cancel, std::string* error);

  // Marks `entry` building and runs Publish for it on a pool worker.
  // Caller holds models_mutex_.
  void StartRefresh(const std::string& dataset, const std::string& estimator,
                    ModelEntry* entry);

  // Trains (or loads) one model outside any lock. Returns nullptr and
  // fills *error on failure.
  std::shared_ptr<const ServedModel> BuildModel(
      const std::string& dataset, const std::string& estimator,
      const std::shared_ptr<const Table>& table, uint64_t version,
      bool is_refresh, std::string* error,
      const CancellationToken* cancel = nullptr);

  ModelManagerOptions options_;

  mutable std::mutex data_mutex_;
  std::map<std::string, DatasetState> datasets_;

  // Taken before data_mutex_ when both are held: Publish reads the data
  // version under it, so an update whose refresh it skipped is seen.
  mutable std::mutex models_mutex_;
  std::map<std::string, ModelEntry> models_;

  // Notified under models_mutex_ at every publish, so a waiter that sees
  // no refresh left (the destructor among them) cannot return while a
  // refresh still touches this object.
  std::condition_variable models_cv_;
  int active_refreshes_ = 0;  // guarded by models_mutex_.

  mutable std::mutex counters_mutex_;
  ManagerCounters counters_;

  mutable std::mutex saves_mutex_;
  std::vector<PendingSave> pending_saves_;
};

}  // namespace arecel::serve

#endif  // ARECEL_SERVE_MODEL_MANAGER_H_
