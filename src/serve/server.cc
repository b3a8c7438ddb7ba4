#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <mutex>
#include <utility>

#include "ml/kernels.h"
#include "robustness/guard.h"
#include "store/model_store.h"
#include "util/env.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace arecel::serve {

namespace {

// Below this many queries per slice, handing slices to pool workers costs
// more than it saves.
constexpr size_t kMinQueriesPerSlice = 8;

// True when a model of a `columns`-column table can answer `query`: the
// server answers single-table queries only, every predicate must name one
// of the table's columns, and no bound may be NaN (the canonical key's
// predicate sort cannot order NaN; +/-inf are open ranges and stay legal).
// Otherwise false, with the reason in *reason.
bool Answerable(const Query& query, size_t columns, std::string* reason) {
  if (!query.IsSingleTable()) {
    *reason = "query names tables or joins";
    return false;
  }
  for (const Predicate& p : query.predicates) {
    if (p.table != 0) {
      *reason = "predicate names table " + std::to_string(p.table);
      return false;
    }
    if (p.column < 0 || static_cast<size_t>(p.column) >= columns) {
      *reason = "predicate column " + std::to_string(p.column) +
                " outside a " + std::to_string(columns) + "-column table";
      return false;
    }
    if (std::isnan(p.lo) || std::isnan(p.hi)) {
      *reason = "predicate has a NaN bound";
      return false;
    }
  }
  return true;
}

}  // namespace

ServeOptions ServeOptionsFromEnv() {
  ServeOptions options;
  const double cache_mb = EnvDouble("ARECEL_SERVE_CACHE_MB", 64.0);
  options.cache_bytes =
      cache_mb <= 0 ? 0 : static_cast<size_t>(cache_mb * (1 << 20));
  options.cache_enabled = options.cache_bytes > 0;
  options.robust.query_deadline_seconds = EnvDouble(
      "ARECEL_QUERY_DEADLINE", options.robust.query_deadline_seconds);
  options.feedback_enabled = EnvDouble("ARECEL_FEEDBACK", 0.0) > 0;
  store::StoreOptions store_options = store::StoreOptions::FromEnv();
  if (!store_options.root_dir.empty())
    options.manager.store =
        std::make_shared<store::ModelStore>(std::move(store_options));
  return options;
}

EstimatorServer::EstimatorServer(ServeOptions options)
    : options_(std::move(options)),
      manager_(options_.manager),
      cache_(options_.cache_bytes, options_.cache_shards),
      cache_enabled_(options_.cache_enabled) {
  if (options_.dispatch_threads <= 0)
    options_.dispatch_threads = ParallelWorkerCount();
  if (options_.feedback_enabled)
    feedback_ = std::make_unique<feedback::FeedbackHub>();
}

bool EstimatorServer::RegisterDataset(const std::string& name, Table table) {
  return manager_.RegisterDataset(name, std::move(table));
}

bool EstimatorServer::RunInference(
    const std::string& dataset, const std::string& estimator,
    const std::shared_ptr<const ServedModel>& model, const Query& query,
    double* selectivity, EstimateResponse* response) {
  const double deadline = options_.robust.query_deadline_seconds;
  if (deadline <= 0) {
    try {
      if (model->thread_safe) {
        *selectivity = model->estimator->EstimateSelectivity(query);
      } else {
        std::lock_guard<std::mutex> lock(model->inference_mutex);
        *selectivity = model->estimator->EstimateSelectivity(query);
      }
      return true;
    } catch (const std::exception& e) {
      response->failure = FailureKind::kEstimateThrew;
      response->detail = e.what();
      ++estimate_errors_;
      return false;
    }
  }

  // Guarded path: the closure owns the model (shared_ptr by value) and a
  // private copy of the query, per the leak-on-hang contract — an abandoned
  // worker may outlive this request, never this process' model.
  auto result = std::make_shared<double>(0.0);
  robust::GuardKinds kinds;
  kinds.on_timeout = FailureKind::kEstimateTimeout;
  kinds.on_throw = FailureKind::kEstimateThrew;
  kinds.on_cancel = FailureKind::kEstimateThrew;
  robust::GuardResult guard = robust::RunGuarded(
      [model, query, result] {
        if (model->thread_safe) {
          *result = model->estimator->EstimateSelectivity(query);
        } else {
          std::lock_guard<std::mutex> lock(model->inference_mutex);
          *result = model->estimator->EstimateSelectivity(query);
        }
      },
      deadline, kinds);
  if (guard.ok()) {
    *selectivity = *result;
    return true;
  }
  response->failure = guard.kind;
  response->detail = guard.detail;
  if (guard.kind == FailureKind::kEstimateTimeout) {
    ++deadline_exceeded_;
    // A timed-out worker on a serialized model may still hold the model's
    // inference mutex; retire the entry so later requests retrain a fresh
    // instance instead of queueing behind a hung lock.
    if (!model->thread_safe) manager_.Evict(dataset, estimator);
  } else {
    ++estimate_errors_;
  }
  return false;
}

EstimatorServer::Stage EstimatorServer::AnswerOnCaller(
    const std::string& dataset, const std::string& estimator,
    const std::shared_ptr<const ServedModel>& model, const Query& query,
    CacheKeyBuffer* key, const MissedKeys* missed,
    EstimateResponse* response) {
  Timer timer;
  response->data_version = model->data_version;

  // Refused before the cache key is built or the estimator sees the query.
  if (!Answerable(query, model->num_columns, &response->detail)) {
    response->failure = FailureKind::kInvalidQuery;
    ++estimate_errors_;
    return Stage::kRefused;
  }

  Stage stage = Stage::kNeedsInference;
  if (key != nullptr) {
    key->Build(dataset, estimator, model->data_version, query);
    if (missed != nullptr && !missed->empty() &&
        missed->contains(key->view())) {
      stage = Stage::kHeldBack;
    } else if (AnswerFromCache(dataset, estimator, model, query, key->view(),
                               response)) {
      stage = Stage::kAnswered;
    }
  }
  response->latency_ms = timer.ElapsedMillis();
  return stage;
}

bool EstimatorServer::AnswerFromCache(
    const std::string& dataset, const std::string& estimator,
    const std::shared_ptr<const ServedModel>& model, const Query& query,
    std::string_view key, EstimateResponse* response) {
  double cached = 0.0;
  if (!cache_.Lookup(key, &cached)) return false;
  response->ok = true;
  response->cache_hit = true;
  // The cache stores the *base* estimate; corrections apply after lookup
  // so the hit path and the miss path learn and serve the same way. A
  // cache hit is still real traffic — it enqueues a truth job (the latent
  // gap this layer used to have: hits bypassed learning).
  response->selectivity = cached;
  if (feedback_ != nullptr) {
    EnqueueFeedback(dataset, estimator, model, query, key, cached,
                    /*from_cache_hit=*/true);
    response->selectivity = feedback_->Correct(dataset, estimator, query,
                                               cached, model->trained_rows);
  }
  response->cardinality =
      response->selectivity * static_cast<double>(model->trained_rows);
  return true;
}

void EstimatorServer::AnswerByInference(
    const std::string& dataset, const std::string& estimator,
    const std::shared_ptr<const ServedModel>& model, const Query& query,
    std::string_view key, EstimateResponse* response) {
  Timer timer;
  double selectivity = 0.0;
  if (RunInference(dataset, estimator, model, query, &selectivity,
                   response)) {
    if (!std::isfinite(selectivity) || selectivity < 0.0) {
      response->failure = FailureKind::kNonFiniteEstimate;
      response->detail = "selectivity " + std::to_string(selectivity);
      ++estimate_errors_;
    } else {
      // Clamp like EstimateCardinality does; the cached value is the
      // clamped one, so a hit replays exactly what was served.
      selectivity = std::min(selectivity, 1.0);
      response->ok = true;
      response->selectivity = selectivity;
      if (!key.empty()) cache_.Insert(key, selectivity);
      if (feedback_ != nullptr) {
        EnqueueFeedback(dataset, estimator, model, query, key, selectivity,
                        /*from_cache_hit=*/false);
        response->selectivity = feedback_->Correct(
            dataset, estimator, query, selectivity, model->trained_rows);
      }
      response->cardinality =
          response->selectivity * static_cast<double>(model->trained_rows);
    }
  }
  response->latency_ms += timer.ElapsedMillis();
}

bool EstimatorServer::CacheOn() const {
  return cache_enabled_.load() && cache_.capacity_bytes() > 0;
}

EstimateResponse EstimatorServer::Estimate(const std::string& dataset,
                                           const std::string& estimator,
                                           const Query& query) {
  ++requests_;
  EstimateResponse response;
  std::string error;
  std::shared_ptr<const ServedModel> model =
      manager_.GetModel(dataset, estimator, &error);
  if (model == nullptr) {
    ++model_failures_;
    response.failure = FailureKind::kTrainThrew;
    response.detail = error;
    return response;
  }
  const bool use_cache = CacheOn();
  CacheKeyBuffer key;
  const Stage stage =
      AnswerOnCaller(dataset, estimator, model, query,
                     use_cache ? &key : nullptr, nullptr, &response);
  if (stage == Stage::kNeedsInference)
    AnswerByInference(dataset, estimator, model, query, key.view(),
                      &response);
  if (stage != Stage::kRefused) model->latency.Record(response.latency_ms);
  return response;
}

std::vector<EstimateResponse> EstimatorServer::EstimateBatch(
    const std::string& dataset, const std::string& estimator,
    const std::vector<Query>& queries) {
  ++batches_;
  std::vector<EstimateResponse> responses(queries.size());
  if (queries.empty()) return responses;
  requests_ += queries.size();

  std::string error;
  std::shared_ptr<const ServedModel> model =
      manager_.GetModel(dataset, estimator, &error);
  if (model == nullptr) {
    model_failures_ += queries.size();
    for (EstimateResponse& response : responses) {
      response.failure = FailureKind::kTrainThrew;
      response.detail = error;
    }
    return responses;
  }

  // The caller's stage answers refusals and hits on this thread; only the
  // misses go on to inference, each with the key it was looked up under.
  // A later copy of a missed key waits for the misses, then is answered
  // from the cache, so it replays the first copy's answer as a batch
  // served in order would. The answers' latencies reach the model's shared
  // histogram once.
  const bool use_cache = CacheOn();
  CacheKeyBuffer key;
  MissedKeys missed;
  struct Pending {
    size_t query;
    std::string_view key;  // into `missed`; empty when the cache is off.
  };
  std::vector<Pending> misses;
  std::vector<Pending> repeats;
  LatencyHistogram::Accumulator latencies;
  for (size_t i = 0; i < queries.size(); ++i) {
    switch (AnswerOnCaller(dataset, estimator, model, queries[i],
                           use_cache ? &key : nullptr, &missed,
                           &responses[i])) {
      case Stage::kRefused:
        break;
      case Stage::kAnswered:
        latencies.Record(responses[i].latency_ms);
        break;
      case Stage::kHeldBack:
        repeats.push_back({i, *missed.find(key.view())});
        break;
      case Stage::kNeedsInference: {
        std::string_view miss_key;
        if (use_cache) miss_key = *missed.emplace(key.view()).first;
        misses.push_back({i, miss_key});
        break;
      }
    }
  }
  const auto infer = [&](const Pending& miss) {
    AnswerByInference(dataset, estimator, model, queries[miss.query],
                      miss.key, &responses[miss.query]);
  };
  // Serialized-inference models gain nothing from fan-out: every request
  // would queue on the inference mutex. A few misses likewise run inline.
  const size_t slices =
      std::min<size_t>(static_cast<size_t>(options_.dispatch_threads),
                       misses.size() / kMinQueriesPerSlice);
  if (!model->thread_safe || slices <= 1) {
    for (const Pending& miss : misses) infer(miss);
  } else {
    const size_t slice = (misses.size() + slices - 1) / slices;
    ParallelFor(0, slices, [&](size_t s) {
      const size_t end = std::min(misses.size(), (s + 1) * slice);
      for (size_t m = s * slice; m < end; ++m) infer(misses[m]);
    });
  }
  for (const Pending& miss : misses)
    latencies.Record(responses[miss.query].latency_ms);
  // In batch order, so a copy whose first copy's answer is not cached
  // (its inference failed, or the entry is already gone) is inferred once
  // and answers the copies after it.
  for (const Pending& repeat : repeats) {
    EstimateResponse& response = responses[repeat.query];
    Timer timer;
    const bool hit = AnswerFromCache(dataset, estimator, model,
                                     queries[repeat.query], repeat.key,
                                     &response);
    response.latency_ms += timer.ElapsedMillis();
    if (!hit) infer(repeat);
    latencies.Record(response.latency_ms);
  }
  model->latency.Add(latencies);
  return responses;
}

uint64_t EstimatorServer::Update(const std::string& dataset, uint64_t seed) {
  const uint64_t version =
      manager_.ApplyUpdate(dataset, kUpdateFraction, seed);
  if (version == 0) return 0;
  ++updates_;
  // Order matters: invalidate before kicking refreshes so no refreshed
  // model can observe a cache still holding pre-update keys. (Stale-model
  // requests racing this call may re-insert entries under the OLD version
  // prefix; those keys are unreachable once their model refreshes and age
  // out through CLOCK eviction — they can never serve a wrong answer
  // because the version is part of the key.)
  cache_.InvalidatePrefix(DatasetKeyPrefix(dataset));
  // Residuals learned over the pre-update data are stale the same way the
  // cache entries were: drop everything tagged with an older version.
  // In-flight truth jobs that raced the bump carry the old version and are
  // likewise discarded by the next invalidation-or-never consulted, since
  // Correct() reads models that just lost those entries.
  if (feedback_ != nullptr) feedback_->InvalidateDataset(dataset, version);
  manager_.RefreshModelsAsync(dataset);
  return version;
}

void EstimatorServer::EnqueueFeedback(
    const std::string& dataset, const std::string& estimator,
    const std::shared_ptr<const ServedModel>& model, const Query& query,
    std::string_view cache_key, double base_selectivity,
    bool from_cache_hit) {
  feedback::TruthJob job;
  job.dataset = dataset;
  job.estimator = estimator;
  job.query = query;
  job.base_selectivity = base_selectivity;
  job.snapshot = model->table;
  job.version = model->data_version;
  job.from_cache_hit = from_cache_hit;
  // Self-adapting estimators take the truth directly; everything else
  // learns a hub residual that Correct() applies on the way out.
  if (dynamic_cast<FeedbackSink*>(model->estimator.get()) != nullptr) {
    const bool needs_lock = !model->thread_safe;
    // A sink changes its own answers when it learns, so the cached base
    // estimate for this exact query is stale the moment its truth lands —
    // drop it and let the next repeat re-infer. (Hub-corrected estimators
    // don't need this: their cached base stays valid and Correct() applies
    // the fresh residual after lookup.) Safe to touch cache_ from the
    // truth worker: the hub stops it before cache_ is destroyed.
    // A call served with the cache turned off built no key, but the cache
    // may still hold an entry from before it was turned off.
    std::string key(cache_key);
    if (key.empty() && cache_.capacity_bytes() > 0)
      key = EstimateCacheKey(dataset, estimator, model->data_version, query);
    job.deliver = [this, model, needs_lock,
                   key = std::move(key)](const feedback::TruthJob& done,
                                         double truth) {
      auto* sink = dynamic_cast<FeedbackSink*>(model->estimator.get());
      if (sink == nullptr) return;
      if (needs_lock) {
        std::lock_guard<std::mutex> lock(model->inference_mutex);
        sink->ObserveTruth(done.query, truth);
      } else {
        sink->ObserveTruth(done.query, truth);
      }
      if (!key.empty()) cache_.Erase(key);
    };
  }
  feedback_->EnqueueTruth(std::move(job));
}

ServerStats EstimatorServer::Stats() const {
  ServerStats stats;
  stats.requests = requests_.load();
  stats.batches = batches_.load();
  stats.deadline_exceeded = deadline_exceeded_.load();
  stats.estimate_errors = estimate_errors_.load();
  stats.model_failures = model_failures_.load();
  stats.updates = updates_.load();
  stats.cache = cache_.Stats();
  stats.manager = manager_.counters();
  stats.feedback_enabled = feedback_ != nullptr;
  if (feedback_ != nullptr) stats.feedback = feedback_->Stats();
  stats.store_enabled = options_.manager.store != nullptr;
  if (stats.store_enabled) stats.store = options_.manager.store->stats();
  stats.ml_backend = MlKernelBackendName(ActiveMlKernelBackend());
  stats.ml_simd = MlKernelSimdName();
  stats.ml_cpu_flags = MlCpuFeatureFlags();
  for (const LoadedModelInfo& info : manager_.LoadedModels()) {
    const LatencyHistogram& latency = info.model->latency;
    const uint64_t requests = latency.count();
    if (requests == 0) continue;
    ModelLatencyStats entry;
    entry.model = info.dataset + "/" + info.estimator;
    entry.requests = requests;
    entry.p50_ms = latency.PercentileMs(50.0);
    entry.p90_ms = latency.PercentileMs(90.0);
    entry.p99_ms = latency.PercentileMs(99.0);
    entry.max_ms = latency.PercentileMs(100.0);
    stats.latencies.push_back(std::move(entry));
  }
  return stats;
}

}  // namespace arecel::serve
