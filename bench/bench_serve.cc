// Closed-loop load benchmark of the in-process serving layer (src/serve/):
// sweeps client threads x request batch size x estimate-cache on/off over a
// skewed (Zipf-repeating) request stream and reports QPS per cell, plus
// the headline speedup of the served configuration (cache + batching) over
// the uncached one-at-a-time baseline. Every cell's selectivities are
// compared bit-exactly against a direct single-threaded run of the same
// model, so the speedup can never come from answering a different question.
// Cells run through SweepContext (guarded + journaled), so a killed run
// resumes at the first missing cell. Emits machine-readable
// BENCH_serve.json (default at the repo root).
//
// Environment knobs (all optional):
//   ARECEL_SERVE_BENCH_ROWS      table rows             (default 200000)
//   ARECEL_SERVE_BENCH_QUERIES   requests per cell      (default 10000)
//   ARECEL_SERVE_BENCH_POOL     distinct queries       (default 512)
//   ARECEL_SERVE_BENCH_EST      estimator registry name (default sampling)
//   ARECEL_SERVE_BENCH_OUT      output JSON path
//                               (default <repo>/BENCH_serve.json)
//   ARECEL_SERVE_CACHE_MB / ARECEL_QUERY_DEADLINE
//                               serving-layer knobs (src/serve/server.h);
//                               batches fan out over the shared worker
//                               pool, one slice per core
//
//   --smoke                     tiny configuration for the CTest smoke run

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <mutex>

#include "bench_common.h"
#include "data/datasets.h"
#include "serve/server.h"
#include "util/env.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "workload/generator.h"

namespace {

using namespace arecel;

struct CellConfig {
  int clients = 1;
  size_t batch = 1;
  bool cache = false;

  std::string Key() const {
    return "clients=" + std::to_string(clients) +
           ",batch=" + std::to_string(batch) +
           ",cache=" + (cache ? std::string("on") : std::string("off"));
  }
};

struct CellResult {
  CellConfig config;
  double seconds = 0.0;
  double qps = 0.0;
  double p99_ms = 0.0;
  double hit_rate = 0.0;
  bool identical = false;
  bool from_journal = false;
  bool ok = false;
  std::string failure;
};

// Everything one closed-loop cell touches, bundled for shared ownership so
// the guarded body survives being abandoned on a deadline (the SweepContext
// capture contract).
struct LoadInputs {
  serve::EstimatorServer* server = nullptr;  // main-scope.
  std::string dataset;
  std::string estimator;
  std::vector<Query> pool;
  std::vector<size_t> requests;      // indices into pool.
  std::vector<double> expected;      // per pool entry, from the direct run.
};

// Runs the closed loop: `clients` threads drain the shared request stream
// in chunks of `batch`, going through Estimate (batch == 1) or
// EstimateBatch. Returns wall seconds; *identical reports whether every
// response matched the direct-run selectivity bit-for-bit, *p99_ms the
// per-request latency tail (a batched request's latency is attributed to
// each query it carried).
double RunClosedLoop(const std::shared_ptr<LoadInputs>& in, int clients,
                     size_t batch, bool* identical, double* p99_ms) {
  std::atomic<size_t> cursor{0};
  std::atomic<bool> all_match{true};
  std::mutex latency_mutex;
  std::vector<double> latencies;
  latencies.reserve(in->requests.size());
  const size_t total = in->requests.size();
  Timer timer;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([in, batch, total, &cursor, &all_match,
                          &latency_mutex, &latencies] {
      std::vector<Query> queries;
      std::vector<size_t> pool_ids;
      std::vector<double> local_latencies;
      for (;;) {
        const size_t begin = cursor.fetch_add(batch);
        if (begin >= total) break;
        const size_t end = std::min(total, begin + batch);
        if (batch == 1) {
          const size_t id = in->requests[begin];
          const auto response =
              in->server->Estimate(in->dataset, in->estimator,
                                   in->pool[id]);
          if (!response.ok || response.selectivity != in->expected[id])
            all_match.store(false);
          local_latencies.push_back(response.latency_ms);
          continue;
        }
        queries.clear();
        pool_ids.clear();
        for (size_t i = begin; i < end; ++i) {
          pool_ids.push_back(in->requests[i]);
          queries.push_back(in->pool[in->requests[i]]);
        }
        const auto responses = in->server->EstimateBatch(
            in->dataset, in->estimator, queries);
        for (size_t i = 0; i < responses.size(); ++i) {
          if (!responses[i].ok ||
              responses[i].selectivity != in->expected[pool_ids[i]])
            all_match.store(false);
          local_latencies.push_back(responses[i].latency_ms);
        }
      }
      std::lock_guard<std::mutex> lock(latency_mutex);
      latencies.insert(latencies.end(), local_latencies.begin(),
                       local_latencies.end());
    });
  }
  for (std::thread& worker : workers) worker.join();
  const double seconds = timer.ElapsedSeconds();
  *identical = all_match.load();
  *p99_ms = latencies.empty() ? 0.0 : Percentile(latencies, 99.0);
  return seconds;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;

  // Default rows are chosen so the sampling estimator's per-query sample
  // scan has realistic serving cost (the paper's tables are millions of
  // rows); a tiny table makes every estimator so cheap that fixed
  // per-request overhead, not inference, decides QPS.
  const size_t rows =
      EnvSize("ARECEL_SERVE_BENCH_ROWS", smoke ? 4000 : 200000);
  const size_t num_requests =
      EnvSize("ARECEL_SERVE_BENCH_QUERIES", smoke ? 800 : 10000);
  const size_t pool_size =
      EnvSize("ARECEL_SERVE_BENCH_POOL", smoke ? 64 : 512);
  const std::string estimator =
      EnvString("ARECEL_SERVE_BENCH_EST", "sampling");
  std::string out_path = ARECEL_REPO_ROOT "/BENCH_serve.json";
  if (smoke) out_path = "BENCH_serve_smoke.json";
  if (const char* env_out = std::getenv("ARECEL_SERVE_BENCH_OUT"))
    out_path = env_out;

  bench::PrintHeader("bench_serve: serving-layer closed-loop load",
                     "serving-layer QPS; correctness vs direct inference");

  serve::ServeOptions options = serve::ServeOptionsFromEnv();
  options.manager.factory = [](const std::string& name) {
    return bench::MakeBenchEstimator(name);
  };
  serve::EstimatorServer server(options);

  DatasetSpec spec = CensusSpec();
  spec.rows = rows;
  server.RegisterDataset("census", GenerateDataset(spec, /*seed=*/11));

  // Skewed request stream: a fixed pool of distinct queries, requests drawn
  // Zipf(1.0) over the pool — the repeat pattern a plan cache sees. The
  // same stream is replayed for every cell.
  auto inputs = std::make_shared<LoadInputs>();
  inputs->server = &server;
  inputs->dataset = "census";
  inputs->estimator = estimator;
  {
    const Table* table = server.manager().TableSnapshot("census").get();
    inputs->pool = GenerateQueries(*table, pool_size, /*seed=*/23);
  }
  {
    Rng rng(/*seed=*/31);
    inputs->requests.reserve(num_requests);
    for (size_t i = 0; i < num_requests; ++i)
      inputs->requests.push_back(rng.Zipf(inputs->pool.size(), 1.0));
  }

  // Direct single-threaded reference run: train (or load) the model once,
  // then one plain inference per pool entry. Every cell must reproduce
  // these selectivities exactly.
  std::string error;
  auto model = server.manager().GetModel("census", estimator, &error);
  if (model == nullptr) {
    std::fprintf(stderr, "model load failed: %s\n", error.c_str());
    return 1;
  }
  inputs->expected.reserve(inputs->pool.size());
  for (const Query& query : inputs->pool) {
    double sel = model->estimator->EstimateSelectivity(query);
    inputs->expected.push_back(std::min(sel, 1.0));
  }

  std::printf("rows=%zu requests=%zu pool=%zu estimator=%s "
              "dispatch_threads=%d cache=%zuMB\n\n",
              rows, num_requests, pool_size, estimator.c_str(),
              server.options().dispatch_threads,
              server.options().cache_bytes >> 20);

  std::vector<CellConfig> cells;
  const int max_clients = smoke ? 2 : 4;
  const size_t big_batch = smoke ? 16 : 64;
  for (int clients : {1, max_clients})
    for (size_t batch : {size_t{1}, big_batch})
      for (bool cache : {false, true})
        cells.push_back(CellConfig{clients, batch, cache});

  bench::SweepContext sweep("bench_serve");
  std::vector<CellResult> results;
  std::printf("%24s %10s %10s %9s %9s %10s %s\n", "cell", "seconds", "qps",
              "p99_ms", "hit_rate", "identical", "status");
  for (const CellConfig& config : cells) {
    CellResult result;
    result.config = config;
    auto status = sweep.RunCell(estimator, config.Key(), [inputs, config] {
      // Each cell starts from a cold cache so hit rates are comparable.
      inputs->server->ClearCache();
      inputs->server->set_cache_enabled(config.cache);
      const auto before = inputs->server->Stats().cache;
      bool identical = false;
      double p99_ms = 0.0;
      const double seconds = RunClosedLoop(inputs, config.clients,
                                           config.batch, &identical, &p99_ms);
      const auto after = inputs->server->Stats().cache;
      const double lookups =
          static_cast<double>((after.hits - before.hits) +
                              (after.misses - before.misses));
      const double hit_rate =
          lookups == 0
              ? 0.0
              : static_cast<double>(after.hits - before.hits) / lookups;
      return std::vector<std::pair<std::string, double>>{
          {"seconds", seconds},
          {"qps", seconds > 0
                      ? static_cast<double>(inputs->requests.size()) / seconds
                      : 0.0},
          {"p99_ms", p99_ms},
          {"hit_rate", hit_rate},
          {"identical", identical ? 1.0 : 0.0}};
    });
    result.ok = status.ok;
    result.from_journal = status.from_journal;
    result.failure = status.failure;
    for (const auto& [name, value] : status.metrics) {
      if (name == "seconds") result.seconds = value;
      if (name == "qps") result.qps = value;
      if (name == "p99_ms") result.p99_ms = value;
      if (name == "hit_rate") result.hit_rate = value;
      if (name == "identical") result.identical = value != 0.0;
    }
    std::printf("%24s %10.3f %10.0f %9.4f %9.3f %10s %s\n",
                config.Key().c_str(), result.seconds, result.qps,
                result.p99_ms, result.hit_rate,
                result.identical ? "yes" : "NO",
                result.from_journal ? "journal"
                                    : (result.ok ? "" : result.failure.c_str()));
    results.push_back(result);
  }

  // Headline: best served configuration vs uncached one-at-a-time.
  const CellResult* baseline = nullptr;
  const CellResult* served = nullptr;
  for (const CellResult& result : results) {
    if (!result.ok) continue;
    if (result.config.clients == 1 && result.config.batch == 1 &&
        !result.config.cache)
      baseline = &result;
    if (result.config.cache && result.config.batch > 1 &&
        (served == nullptr || result.qps > served->qps))
      served = &result;
  }
  double speedup = 0.0;
  bool all_identical = true;
  for (const CellResult& result : results)
    all_identical = all_identical && result.ok && result.identical;
  if (baseline != nullptr && served != nullptr && baseline->qps > 0)
    speedup = served->qps / baseline->qps;
  std::printf("\nheadline: %s (%.0f qps, p99 %.4f ms) vs %s (%.0f qps, "
              "p99 %.4f ms): %.1fx, estimates %s\n",
              served ? served->config.Key().c_str() : "-",
              served ? served->qps : 0.0, served ? served->p99_ms : 0.0,
              baseline ? baseline->config.Key().c_str() : "-",
              baseline ? baseline->qps : 0.0,
              baseline ? baseline->p99_ms : 0.0, speedup,
              all_identical ? "bit-identical" : "DIVERGED");

  // ---- machine-readable artifact ----------------------------------------
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  const auto stats = server.Stats();
  std::fprintf(out, "{\n  \"bench\": \"bench_serve\",\n");
  std::fprintf(out, "  \"rows\": %zu,\n  \"requests\": %zu,\n", rows,
               num_requests);
  std::fprintf(out, "  \"pool\": %zu,\n  \"estimator\": \"%s\",\n",
               pool_size, estimator.c_str());
  std::fprintf(out, "  \"dispatch_threads\": %d,\n",
               server.options().dispatch_threads);
  std::fprintf(out, "  \"speedup_cache_batch_vs_baseline\": %.3f,\n",
               speedup);
  std::fprintf(out, "  \"all_identical\": %s,\n",
               all_identical ? "true" : "false");
  std::fprintf(out, "  \"cells\": [");
  for (size_t i = 0; i < results.size(); ++i) {
    const CellResult& result = results[i];
    std::fprintf(out,
                 "%s\n    {\"clients\": %d, \"batch\": %zu, \"cache\": %s, "
                 "\"seconds\": %.6f, \"qps\": %.1f, \"p99_ms\": %.5f, "
                 "\"hit_rate\": %.4f, \"identical\": %s, \"ok\": %s}",
                 i == 0 ? "" : ",", result.config.clients,
                 result.config.batch, result.config.cache ? "true" : "false",
                 result.seconds, result.qps, result.p99_ms, result.hit_rate,
                 result.identical ? "true" : "false",
                 result.ok ? "true" : "false");
  }
  std::fprintf(out, "\n  ],\n");
  std::fprintf(out,
               "  \"server\": {\"requests\": %llu, \"cache_hits\": %llu, "
               "\"cache_misses\": %llu, \"cold_trains\": %llu, "
               "\"deadline_exceeded\": %llu}\n}\n",
               (unsigned long long)stats.requests,
               (unsigned long long)stats.cache.hits,
               (unsigned long long)stats.cache.misses,
               (unsigned long long)stats.manager.cold_trains,
               (unsigned long long)stats.deadline_exceeded);
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAILED: served estimates diverged from direct inference\n");
    return 1;
  }
  return sweep.Finish();
}
