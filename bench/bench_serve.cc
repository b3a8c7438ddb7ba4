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
// Usage: bench_serve [--smoke] [--out <path>] (bench_report.h); --smoke is
// a tiny configuration for the CTest smoke run. The serving-layer knobs
// ARECEL_SERVE_CACHE_MB and ARECEL_QUERY_DEADLINE (src/serve/server.h)
// apply. A batch answers its cache hits on the calling thread and fans
// only its misses out over the shared worker pool, one slice per core.

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <mutex>

#include "bench_common.h"
#include "bench_report.h"
#include "data/datasets.h"
#include "serve/server.h"
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
  const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv, "serve");
  const bool smoke = args.smoke;

  // Full-run rows are chosen so the sampling estimator's per-query sample
  // scan has realistic serving cost (the paper's tables are millions of
  // rows); a tiny table makes every estimator so cheap that fixed
  // per-request overhead, not inference, decides QPS.
  const size_t rows = smoke ? 4000 : 200000;
  const size_t num_requests = smoke ? 800 : 10000;
  const size_t pool_size = smoke ? 64 : 512;
  const std::string estimator = "sampling";

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
  const auto stats = server.Stats();
  bench::BenchReport report("bench_serve");
  report.Add("rows", rows).Add("requests", num_requests);
  report.Add("pool", pool_size).Add("estimator", estimator);
  report.Add("dispatch_threads", server.options().dispatch_threads);
  report.Add("speedup_cache_batch_vs_baseline", speedup);
  report.Add("all_identical", all_identical);
  std::vector<bench::JsonRow> cell_rows(results.size());
  for (size_t i = 0; i < results.size(); ++i) {
    const CellResult& r = results[i];
    bench::JsonRow& row = cell_rows[i];
    row.Add("clients", r.config.clients).Add("batch", r.config.batch);
    row.Add("cache", r.config.cache).Add("seconds", r.seconds);
    row.Add("qps", r.qps).Add("p99_ms", r.p99_ms);
    row.Add("hit_rate", r.hit_rate).Add("identical", r.identical);
    row.Add("ok", r.ok);
  }
  bench::JsonRow server_row;
  server_row.Add("requests", stats.requests);
  server_row.Add("cache_hits", stats.cache.hits);
  server_row.Add("cache_misses", stats.cache.misses);
  server_row.Add("cold_trains", stats.manager.cold_trains);
  server_row.Add("deadline_exceeded", stats.deadline_exceeded);
  report.Add("cells", cell_rows).Add("server", server_row);
  if (!report.WriteTo(args.out)) return 1;

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAILED: served estimates diverged from direct inference\n");
    return 1;
  }
  return sweep.Finish();
}
