#ifndef ARECEL_SERVE_SERVER_H_
#define ARECEL_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "feedback/hub.h"
#include "robustness/failure.h"
#include "robustness/runner.h"
#include "serve/cache.h"
#include "serve/model_manager.h"
#include "store/model_store.h"
#include "util/hash.h"
#include "workload/query.h"

namespace arecel::serve {

// Serving-layer configuration. Environment knobs (ServeOptionsFromEnv):
//   ARECEL_SERVE_CACHE_MB  estimate-cache capacity in MB (default 64;
//                          0 disables the cache entirely)
//   ARECEL_FEEDBACK        non-zero enables the online query-feedback loop
//                          (default off: serving behavior is bit-identical
//                          to the pre-feedback server unless opted in)
//   ARECEL_QUERY_DEADLINE  per-request deadline in seconds (default 0:
//                          no watchdog), read into
//                          robust.query_deadline_seconds
//   ARECEL_STORE_DIR       enables the crash-safe versioned model store
//                          (src/store/, DESIGN.md §12): cold loads become
//                          warm starts through checksum-verified recovery,
//                          and the manager writes each trained model back
//                          on a pool worker (ARECEL_STORE_MAX_GENERATIONS)
// The feedback store's shape has no knob: the hub is built with
// feedback::FeedbackOptions{}. The bench harness's other robustness knobs
// (ARECEL_FALLBACK, ...) are not read here.
struct ServeOptions {
  size_t cache_bytes = 64ull << 20;
  size_t cache_shards = 16;
  bool cache_enabled = true;
  // Most slices one EstimateBatch is cut into for the shared worker pool
  // (util/thread_pool.h); <= 0: ParallelWorkerCount().
  int dispatch_threads = 0;

  // Per-request deadline reuses RobustOptions.query_deadline_seconds, the
  // only field the server reads; <= 0 runs inference inline with no
  // hand-off to a pool worker. The failure taxonomy is shared with the
  // bench harness (kEstimateTimeout / kEstimateThrew / ...).
  robust::RobustOptions robust;

  // Online query-feedback loop (src/feedback/, DESIGN.md §11). Off by
  // default; when enabled every served estimate is asynchronously labeled
  // with its exact selectivity and the truth feeds either the estimator
  // itself (FeedbackSink models) or a per-(dataset, estimator) residual
  // correction applied to future answers.
  bool feedback_enabled = false;

  ModelManagerOptions manager;
};

ServeOptions ServeOptionsFromEnv();

// The share of rows EstimatorServer::Update appends: the paper's §5.1
// dynamic-update fraction (20%).
inline constexpr double kUpdateFraction = 0.2;

// One served estimate. `cardinality` is selectivity x the rows the serving
// model was trained on — under stale-while-revalidate that is the stale
// model's view until the background refresh swaps in the new one.
struct EstimateResponse {
  bool ok = false;
  FailureKind failure = FailureKind::kNone;
  std::string detail;
  double selectivity = 0.0;
  double cardinality = 0.0;
  bool cache_hit = false;
  uint64_t data_version = 0;
  double latency_ms = 0.0;
};

// Latency summary of the requests served by one (dataset, estimator)
// key's current model, since that model was published (a refresh or an
// eviction starts afresh). Percentiles and max are at the resolution of
// util/latency_histogram.h: at most 12.5% above the recorded latency.
struct ModelLatencyStats {
  std::string model;  // "dataset/estimator".
  uint64_t requests = 0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

struct ServerStats {
  uint64_t requests = 0;
  uint64_t batches = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t estimate_errors = 0;    // threw, non-finite or refused.
  uint64_t model_failures = 0;     // GetModel returned no model.
  uint64_t updates = 0;
  CacheStats cache;
  ManagerCounters manager;
  bool feedback_enabled = false;
  feedback::FeedbackHubStats feedback;
  std::vector<ModelLatencyStats> latencies;
  bool store_enabled = false;
  store::StoreStats store;  // zero-valued unless store_enabled.
  // ML compute configuration of this process, so cross-machine serving
  // numbers are interpretable (ml/kernels.h): the active kernel backend
  // ("reference"/"fast"/"quant"), the resolved SIMD tier ("avx512"/
  // "avx2-fma"/"portable"), and the raw CPUID feature flags.
  std::string ml_backend;
  std::string ml_simd;
  std::string ml_cpu_flags;
};

// In-process cardinality-estimation server: the long-lived path the bench
// binaries never had. Wraps a ModelManager (train-once / load / refresh)
// and an EstimateCache (sharded CLOCK over canonical predicate
// fingerprints) behind single and batched Estimate calls. Both run one
// estimate in two stages: a cheap one on the calling thread (refusal, key,
// lookup, a hit's answer) and inference for what it left open.
//
// Threading: every public method is safe to call concurrently. A batch's
// misses fan out in up to dispatch_threads slices on the shared worker
// pool when the serving model's inference is a pure read
// (CardinalityEstimator::ThreadSafeEstimates); stochastic-inference models
// run their misses sequentially under the model's inference mutex, so
// their per-instance counters never race.
//
// Staleness: Update() appends 20% correlated rows (the paper's §5.1
// procedure), bumps the dataset's data version, drops the dataset's cache
// entries, and kicks background retrains; a model that lands behind its
// data is refreshed again. Until a retrain lands, requests are served by
// the stale model — the §6.4 "estimator lags behind data" regime — and
// cache keys carry the stale version so a refreshed model can never serve
// a stale cached estimate.
class EstimatorServer {
 public:
  explicit EstimatorServer(ServeOptions options);
  EstimatorServer() : EstimatorServer(ServeOptionsFromEnv()) {}

  // Registers a dataset snapshot at data version 0; false, changing
  // nothing, when the name is already registered.
  bool RegisterDataset(const std::string& name, Table table);

  // Trains (or loads) the model if cold — single-flight — then serves the
  // estimate, consulting the cache first. Cache hits return exactly the
  // selectivity the estimator produced when the entry was filled; for
  // deterministic-inference estimators that is bit-identical to what a
  // fresh call would return. A query the model cannot answer — one that
  // names tables or joins, or has a predicate column outside the dataset's
  // table — fails with kInvalidQuery before the cache or the estimator
  // sees it.
  EstimateResponse Estimate(const std::string& dataset,
                            const std::string& estimator, const Query& query);

  // Batched dispatch: resolves the model once, answers refusals and cache
  // hits on the calling thread, then fans only the misses, with the keys
  // already built, out over the worker pool, the calling thread included.
  // A later copy of a query that missed earlier in the batch is not looked
  // up with the misses: once they are inferred, it is answered from the
  // cache like a hit, as a batch served in order would answer it. The
  // batch adds its request count and its answers' latencies to the shared
  // counters once per call. Responses are positionally aligned with
  // `queries`.
  std::vector<EstimateResponse> EstimateBatch(
      const std::string& dataset, const std::string& estimator,
      const std::vector<Query>& queries);

  // The §5.1 data update + staleness protocol described above. Returns the
  // new data version (0 if the dataset is unknown).
  uint64_t Update(const std::string& dataset, uint64_t seed = 97);

  // Blocks until every background model refresh has landed and every
  // write-back to the store posted so far has finished.
  void WaitForRefreshes() { manager_.WaitForRefreshes(); }

  // Runtime cache toggle (the bench sweeps cache on/off on one server).
  void set_cache_enabled(bool enabled) { cache_enabled_.store(enabled); }
  bool cache_enabled() const { return cache_enabled_.load(); }
  void ClearCache() { cache_.Clear(); }

  // The online feedback loop; null unless options.feedback_enabled. Tests
  // and benches call DrainFeedback() to make the asynchronous truth path
  // deterministic before asserting on corrected estimates.
  feedback::FeedbackHub* feedback() { return feedback_.get(); }
  void DrainFeedback() {
    if (feedback_ != nullptr) feedback_->Drain();
  }

  ServerStats Stats() const;

  ModelManager& manager() { return manager_; }
  const ServeOptions& options() const { return options_; }

 private:
  // Where the caller's stage of an estimate left its query.
  enum class Stage { kRefused, kAnswered, kHeldBack, kNeedsInference };

  // The keys that missed so far in one batch; the set owns their bytes.
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(std::string_view key) const noexcept {
      return HashBytes(key.data(), key.size());
    }
  };
  using MissedKeys = std::unordered_set<std::string, KeyHash, std::equal_to<>>;

  // The cheap stage of an estimate, run on the calling thread: refuses a
  // query the model cannot answer and, when `key` is non-null (the cache
  // is on for this call), builds the query's key into it. A key in
  // `missed` (null for a single call) is held back without a lookup;
  // any other is looked up, and a hit answered.
  Stage AnswerOnCaller(const std::string& dataset,
                       const std::string& estimator,
                       const std::shared_ptr<const ServedModel>& model,
                       const Query& query, CacheKeyBuffer* key,
                       const MissedKeys* missed, EstimateResponse* response);

  // Looks `key` up and, on a hit, answers from the cached base estimate,
  // feedback job and correction included. False on a miss.
  bool AnswerFromCache(const std::string& dataset,
                       const std::string& estimator,
                       const std::shared_ptr<const ServedModel>& model,
                       const Query& query, std::string_view key,
                       EstimateResponse* response);

  // The inference stage: answers a query the caller's stage left open by
  // running the model, and caches the answer under `key` (the key that
  // stage looked up; empty when the cache is off). Adds its time to
  // response->latency_ms.
  void AnswerByInference(const std::string& dataset,
                         const std::string& estimator,
                         const std::shared_ptr<const ServedModel>& model,
                         const Query& query, std::string_view key,
                         EstimateResponse* response);

  bool CacheOn() const;

  // Runs one inference under the per-request deadline (or inline when
  // disabled), filling failure/detail on timeout/throw.
  bool RunInference(const std::string& dataset, const std::string& estimator,
                    const std::shared_ptr<const ServedModel>& model,
                    const Query& query, double* selectivity,
                    EstimateResponse* response);

  // Queues the served query for asynchronous exact labeling (call only
  // when the loop is enabled). `cache_key` is the key the query was looked
  // up under (empty when the cache was off); `base_selectivity` is the
  // pre-correction estimate.
  void EnqueueFeedback(const std::string& dataset,
                       const std::string& estimator,
                       const std::shared_ptr<const ServedModel>& model,
                       const Query& query, std::string_view cache_key,
                       double base_selectivity, bool from_cache_hit);

  ServeOptions options_;
  ModelManager manager_;
  EstimateCache cache_;
  std::atomic<bool> cache_enabled_;
  // Declared after cache_: destroyed first, so no truth delivery touches
  // a destroyed cache.
  std::unique_ptr<feedback::FeedbackHub> feedback_;

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> estimate_errors_{0};
  std::atomic<uint64_t> model_failures_{0};
  std::atomic<uint64_t> updates_{0};
};

}  // namespace arecel::serve

#endif  // ARECEL_SERVE_SERVER_H_
