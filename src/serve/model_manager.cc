#include "serve/model_manager.h"

#include <exception>
#include <utility>

#include "core/model_io.h"
#include "core/registry.h"
#include "data/datasets.h"
#include "store/model_store.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "workload/generator.h"

namespace arecel::serve {

uint64_t TrainSeedForVersion(uint64_t base_seed, uint64_t data_version) {
  // Same spirit as the robust runner's retry_seed_stride: a distinct,
  // deterministic seed per version so refreshes neither replay the stale
  // model's randomness nor depend on wall-clock state.
  return base_seed + data_version * 1000003ull;
}

ModelManager::ModelManager(ModelManagerOptions options)
    : options_(std::move(options)) {
  if (!options_.factory) {
    options_.factory = [](const std::string& name) {
      return MakeEstimator(name);
    };
  }
}

ModelManager::~ModelManager() { WaitForRefreshes(); }

std::string ModelManager::ModelKey(const std::string& dataset,
                                   const std::string& estimator) {
  return dataset + '\x1f' + estimator;
}

bool ModelManager::RegisterDataset(const std::string& name, Table table) {
  auto shared = std::make_shared<const Table>(std::move(table));
  std::lock_guard<std::mutex> lock(data_mutex_);
  auto [it, inserted] = datasets_.try_emplace(name);
  if (inserted) it->second.table = std::move(shared);
  return inserted;
}

bool ModelManager::HasDataset(const std::string& name) const {
  std::lock_guard<std::mutex> lock(data_mutex_);
  return datasets_.count(name) > 0;
}

std::vector<std::string> ModelManager::DatasetNames() const {
  std::lock_guard<std::mutex> lock(data_mutex_);
  std::vector<std::string> names;
  names.reserve(datasets_.size());
  for (const auto& [name, state] : datasets_) names.push_back(name);
  return names;
}

std::shared_ptr<const Table> ModelManager::TableSnapshot(
    const std::string& dataset) const {
  std::lock_guard<std::mutex> lock(data_mutex_);
  auto it = datasets_.find(dataset);
  return it == datasets_.end() ? nullptr : it->second.table;
}

uint64_t ModelManager::DataVersion(const std::string& dataset) const {
  std::lock_guard<std::mutex> lock(data_mutex_);
  auto it = datasets_.find(dataset);
  return it == datasets_.end() ? 0 : it->second.version;
}

bool ModelManager::Snapshot(const std::string& dataset,
                            std::shared_ptr<const Table>* table,
                            uint64_t* version, std::string* error) const {
  std::lock_guard<std::mutex> lock(data_mutex_);
  auto it = datasets_.find(dataset);
  if (it == datasets_.end()) {
    if (error != nullptr) *error = "unknown dataset \"" + dataset + "\"";
    return false;
  }
  *table = it->second.table;
  *version = it->second.version;
  return true;
}

std::shared_ptr<const ServedModel> ModelManager::BuildModel(
    const std::string& dataset, const std::string& estimator,
    const std::shared_ptr<const Table>& table, uint64_t version,
    bool is_refresh, std::string* error, const CancellationToken* cancel) {
  const uint64_t seed = TrainSeedForVersion(options_.train_seed, version);
  auto model = std::make_shared<ServedModel>();
  model->data_version = version;
  model->trained_rows = table->num_rows();
  model->num_columns = table->num_cols();
  Timer timer;

  std::unique_ptr<CardinalityEstimator> instance;
  try {
    instance = options_.factory(estimator);
  } catch (const std::exception& e) {
    if (error != nullptr)
      *error = std::string("estimator construction failed: ") + e.what();
    return nullptr;
  }

  // Version-0 cold path: prefer a persisted model over training. The
  // store's Get runs the checksum-verified recovery chain, so the bytes
  // handed back are the last committed generation, never a torn or
  // bit-rotted record.
  bool loaded = false;
  std::string bytes;
  if (!is_refresh && version == 0 && options_.store != nullptr &&
      options_.store->Get(dataset, estimator, &bytes)) {
    const ModelLoadResult result = LoadEstimatorBytes(instance.get(), bytes);
    if (result.ok()) {
      loaded = true;
    } else {
      // The instance may hold partially deserialized state — poisoned.
      // Discard it and fall through to a clean cold train.
      {
        std::lock_guard<std::mutex> lock(counters_mutex_);
        if (result.kind == FailureKind::kCorruptModel)
          ++counters_.corrupt_loads;
      }
      try {
        instance = options_.factory(estimator);
      } catch (const std::exception& e) {
        if (error != nullptr)
          *error = std::string("estimator construction failed: ") + e.what();
        return nullptr;
      }
    }
  }

  if (loaded) {
    model->estimator = std::move(instance);
    model->source = "loaded";
    std::lock_guard<std::mutex> lock(counters_mutex_);
    ++counters_.persisted_loads;
  } else {
    try {
      TrainContext context;
      context.seed = seed;
      context.cancellation = cancel;
      Workload training;
      if (instance->IsQueryDriven()) {
        training =
            GenerateWorkload(*table, options_.train_query_count, seed);
        context.training_workload = &training;
      }
      instance->Train(*table, context);
    } catch (const std::exception& e) {
      if (error != nullptr)
        *error = std::string("train failed: ") + e.what();
      std::lock_guard<std::mutex> lock(counters_mutex_);
      if (is_refresh)
        ++counters_.refresh_failures;
      else
        ++counters_.train_failures;
      return nullptr;
    }
    model->estimator = std::move(instance);
    model->source = is_refresh ? "refreshed" : "trained";
    std::lock_guard<std::mutex> lock(counters_mutex_);
    if (is_refresh)
      ++counters_.refreshes;
    else
      ++counters_.cold_trains;
  }

  // Build the int8 inference-weight form before publication: the model is
  // still private to this thread here, so packing cannot race with
  // inference. Under the quant backend every request served from this
  // ServedModel runs the int8 kernels; the fp32 backends ignore the pack
  // and answer exactly as the unpacked model would (ml/kernels.h).
  model->estimator->PackForServing();
  {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    ++counters_.packed_models;
  }

  model->thread_safe = model->estimator->ThreadSafeEstimates();
  model->train_seconds = timer.ElapsedSeconds();

  // Write-back stays off the serving thread: queue the trained model; the
  // MaintenanceWorker serializes and commits it with bounded retries.
  // Refreshes enqueue too, so the store tracks the newest trained state
  // across data versions.
  if (!loaded && options_.store != nullptr &&
      SupportsPersistence(*model->estimator)) {
    {
      std::lock_guard<std::mutex> lock(saves_mutex_);
      pending_saves_.push_back(PendingSave{dataset, estimator, model});
    }
    std::lock_guard<std::mutex> lock(counters_mutex_);
    ++counters_.saves_enqueued;
  }
  return model;
}

std::shared_ptr<const ServedModel> ModelManager::Publish(
    const std::string& dataset, const std::string& estimator,
    bool is_refresh, const CancellationToken* cancel, std::string* error) {
  std::shared_ptr<const Table> table;
  uint64_t version = 0;
  std::shared_ptr<const ServedModel> model;
  if (Snapshot(dataset, &table, &version, error)) {
    model = BuildModel(dataset, estimator, table, version, is_refresh, error,
                       cancel);
  }

  const std::string key = ModelKey(dataset, estimator);
  std::lock_guard<std::mutex> lock(models_mutex_);
  // Only this call erases a building entry (Evict skips them).
  auto it = models_.find(key);
  ModelEntry& entry = it->second;
  entry.building = false;
  if (model != nullptr) {
    entry.model = model;
    // An update that landed during the build found the entry building and
    // started no refresh; catch up on its version now.
    if (entry.Behind(DataVersion(dataset)))
      StartRefresh(dataset, estimator, &entry);
  } else if (entry.model == nullptr) {
    models_.erase(it);  // forget a failed cold load; the next request retries.
  }
  if (is_refresh) --active_refreshes_;
  models_cv_.notify_all();
  return model;
}

void ModelManager::StartRefresh(const std::string& dataset,
                                const std::string& estimator,
                                ModelEntry* entry) {
  entry->building = true;
  ++active_refreshes_;
  StartOnWorker([this, dataset, estimator] {
    Publish(dataset, estimator, /*is_refresh=*/true, nullptr, nullptr);
  });
}

bool ModelManager::RefreshModelNow(const std::string& dataset,
                                   const std::string& estimator,
                                   const CancellationToken* cancel,
                                   std::string* error) {
  const uint64_t version = DataVersion(dataset);
  {
    std::lock_guard<std::mutex> lock(models_mutex_);
    auto it = models_.find(ModelKey(dataset, estimator));
    if (it == models_.end() || !it->second.Behind(version)) {
      if (error != nullptr) *error = "nothing to refresh";
      return false;
    }
    it->second.building = true;
    ++active_refreshes_;
  }
  return Publish(dataset, estimator, /*is_refresh=*/true, cancel, error) !=
         nullptr;
}

std::vector<PendingSave> ModelManager::TakePendingSaves() {
  std::lock_guard<std::mutex> lock(saves_mutex_);
  std::vector<PendingSave> taken;
  taken.swap(pending_saves_);
  return taken;
}

std::vector<LoadedModelInfo> ModelManager::LoadedModels() const {
  std::lock_guard<std::mutex> lock(models_mutex_);
  std::vector<LoadedModelInfo> infos;
  for (const auto& [key, entry] : models_) {
    if (entry.model == nullptr) continue;
    const size_t sep = key.find('\x1f');
    infos.push_back({key.substr(0, sep), key.substr(sep + 1), entry.model});
  }
  return infos;
}

std::shared_ptr<const ServedModel> ModelManager::GetModel(
    const std::string& dataset, const std::string& estimator,
    std::string* error) {
  const std::string key = ModelKey(dataset, estimator);
  {
    std::unique_lock<std::mutex> lock(models_mutex_);
    for (;;) {
      auto [it, cold] = models_.try_emplace(key);
      if (it->second.model != nullptr) return it->second.model;
      if (cold) {
        it->second.building = true;  // claim the single-flight slot.
        break;
      }
      {
        std::lock_guard<std::mutex> counters_lock(counters_mutex_);
        ++counters_.single_flight_waits;
      }
      models_cv_.wait(lock);
    }
  }
  // This thread owns the load; everyone else is parked on models_cv_.
  return Publish(dataset, estimator, /*is_refresh=*/false, nullptr, error);
}

uint64_t ModelManager::ApplyUpdate(const std::string& dataset, double fraction,
                                   uint64_t seed) {
  // Build the appended version outside data_mutex_ (it reads the whole
  // table's codes), then install it atomically. The update mutex spans
  // both, so no other update can install between this snapshot and this
  // install.
  std::mutex* update_mutex = nullptr;
  {
    std::lock_guard<std::mutex> lock(data_mutex_);
    auto it = datasets_.find(dataset);
    if (it == datasets_.end()) return 0;
    update_mutex = &it->second.update_mutex;
  }
  std::lock_guard<std::mutex> update_lock(*update_mutex);
  std::shared_ptr<const Table> base;
  uint64_t version = 0;
  if (!Snapshot(dataset, &base, &version, nullptr)) return 0;
  auto shared = std::make_shared<const Table>(
      AppendCorrelatedUpdate(*base, fraction, seed));

  std::lock_guard<std::mutex> lock(data_mutex_);
  DatasetState& state = datasets_[dataset];
  state.table = std::move(shared);
  return ++state.version;
}

size_t ModelManager::RefreshModelsAsync(const std::string& dataset) {
  const uint64_t version = DataVersion(dataset);
  const std::string prefix = dataset + '\x1f';
  size_t started = 0;
  std::lock_guard<std::mutex> lock(models_mutex_);
  for (auto& [key, entry] : models_) {
    if (key.compare(0, prefix.size(), prefix) != 0) continue;
    if (!entry.Behind(version)) continue;
    StartRefresh(dataset, key.substr(prefix.size()), &entry);
    ++started;
  }
  return started;
}

void ModelManager::WaitForRefreshes() {
  std::unique_lock<std::mutex> lock(models_mutex_);
  models_cv_.wait(lock, [this] { return active_refreshes_ == 0; });
}

void ModelManager::Evict(const std::string& dataset,
                         const std::string& estimator) {
  const std::string key = ModelKey(dataset, estimator);
  std::lock_guard<std::mutex> lock(models_mutex_);
  auto it = models_.find(key);
  // Entries mid-load or mid-refresh are owned by their build; evicting
  // them would strand the single-flight waiters.
  if (it == models_.end() || it->second.building) return;
  models_.erase(it);
  std::lock_guard<std::mutex> counters_lock(counters_mutex_);
  ++counters_.evictions;
}

ManagerCounters ModelManager::counters() const {
  std::lock_guard<std::mutex> lock(counters_mutex_);
  return counters_;
}

}  // namespace arecel::serve
