// Before/after benchmark of the serving-layer feedback loop (src/feedback/):
// for each base estimator, replays a fresh query stream through the
// EstimatorServer twice over — once scoring the frozen model directly
// (feedback off), once prequentially through the live loop, draining the
// asynchronous truth worker every few queries so learned residuals correct
// later answers. Reports median q-error before (frozen base), at the start
// of the corrected replay, and at the end, plus the improvement factor —
// the §5 adaptivity story as a load test instead of an invariant. Cells run
// through SweepContext (guarded + journaled), so a killed run resumes at
// the first missing cell, and estimators are built through the
// fault-injection plan like every other driver. Emits machine-readable
// BENCH_feedback.json (default at the repo root).
//
// Usage: bench_feedback [--smoke] [--out <path>] (bench_report.h); --smoke
// is a tiny configuration for the CTest smoke run.

#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "bench_report.h"
#include "core/evaluator.h"
#include "data/datasets.h"
#include "serve/server.h"
#include "util/random.h"
#include "util/stats.h"
#include "workload/generator.h"

namespace {

using namespace arecel;

// Shared cell inputs (SweepContext capture contract: the guarded body owns
// shared ownership, so an abandoned worker never dangles into main).
struct ReplayInputs {
  serve::EstimatorServer* server = nullptr;  // main-scope.
  std::string dataset;
  Workload pool;                 // distinct labelled queries.
  std::vector<size_t> requests;  // Zipf-repeating stream over the pool.
  size_t rows = 0;
  size_t drain_every = 25;
  size_t phases = 5;
};

struct CellResult {
  std::string estimator;
  double base_p50 = 0.0;      // frozen model, loop off, whole stream.
  double fb_p50 = 0.0;        // live loop, whole stream (same requests).
  double fb_first_p50 = 0.0;  // first replay phase through the live loop.
  double fb_last_p50 = 0.0;   // final replay phase.
  double improvement = 0.0;   // base_p50 / fb_p50.
  double truths = 0.0;        // truth jobs completed during the cell.
  double corrections = 0.0;   // Correct() calls that moved an estimate.
  bool from_journal = false;
  bool ok = false;
  std::string failure;
};

double MedianSlice(const std::vector<double>& values, size_t begin,
                   size_t end) {
  return Percentile(std::vector<double>(values.begin() + begin,
                                        values.begin() + end),
                    50.0);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv, "feedback");
  const bool smoke = args.smoke;

  const size_t rows = smoke ? 3000 : 40000;
  const size_t num_queries = smoke ? 150 : 1000;
  const size_t pool_size = smoke ? 48 : 256;
  const size_t drain_every = smoke ? 10 : 25;
  const std::vector<std::string> estimators =
      smoke ? std::vector<std::string>{"postgres", "feedback-knn"}
            : std::vector<std::string>{"postgres", "sampling", "feedback-knn"};

  bench::PrintHeader("bench_feedback: online feedback-loop replay",
                     "prequential q-error before/after the truth loop");

  serve::ServeOptions options = serve::ServeOptionsFromEnv();
  options.feedback_enabled = true;
  options.manager.factory = [](const std::string& name) {
    return bench::MakeBenchEstimator(name);
  };
  serve::EstimatorServer server(options);

  // Skewed two-column data with a strong correlation: the regime where the
  // independence-assuming baselines demonstrably err (§4), so the residual
  // loop has real error to correct — and with only two columns the
  // predicate subspaces repeat, which is what lets kNN feedback converge
  // inside one replay.
  server.RegisterDataset("synth-corr",
                         GenerateSynthetic2D(rows, /*skew=*/1.0,
                                             /*correlation=*/0.8,
                                             /*domain=*/64, /*seed=*/11));

  // The request stream repeats queries Zipf(1.0) over a fixed labelled
  // pool — the recurring-query pattern the AQO design assumes (a truth
  // learned for a query corrects its own later executions first, nearby
  // ones second). Repeats also route through the estimate cache, so the
  // cache-hit-still-learns path is load-tested here, not just unit-tested.
  auto inputs = std::make_shared<ReplayInputs>();
  inputs->server = &server;
  inputs->dataset = "synth-corr";
  inputs->rows = rows;
  inputs->drain_every = drain_every;
  {
    const auto table = server.manager().TableSnapshot("synth-corr");
    inputs->pool = GenerateWorkload(*table, pool_size, /*seed=*/23);
  }
  {
    Rng rng(/*seed=*/31);
    inputs->requests.reserve(num_queries);
    for (size_t i = 0; i < num_queries; ++i)
      inputs->requests.push_back(rng.Zipf(inputs->pool.size(), 1.0));
  }

  std::printf("rows=%zu requests=%zu pool=%zu drain_every=%zu k=%zu "
              "radius=%.2f\n\n",
              rows, num_queries, pool_size, inputs->drain_every,
              server.feedback()->options().neighbors,
              server.feedback()->options().trust_radius);

  bench::SweepContext sweep("bench_feedback");
  std::vector<CellResult> results;
  std::printf("%14s %10s %8s %14s %13s %12s %8s %12s %s\n", "estimator",
              "base_p50", "fb_p50", "fb_first_p50", "fb_last_p50",
              "improvement", "truths", "corrections", "status");
  for (const std::string& name : estimators) {
    CellResult result;
    result.estimator = name;
    auto status = sweep.RunCell(name, "replay", [inputs, name] {
      serve::EstimatorServer* server = inputs->server;
      std::string error;
      auto model = server->manager().GetModel(inputs->dataset, name, &error);
      if (model == nullptr)
        throw std::runtime_error("model load failed: " + error);

      const Workload& pool = inputs->pool;
      const std::vector<size_t>& requests = inputs->requests;
      const size_t rows = inputs->rows;

      // Before: the frozen model scored directly, no loop in the path; one
      // estimate per pool entry, replayed over the request stream.
      std::vector<double> pool_base_q(pool.size(), 0.0);
      {
        std::lock_guard<std::mutex> lock(model->inference_mutex);
        for (size_t i = 0; i < pool.size(); ++i) {
          bool invalid = false;
          pool_base_q[i] = ScoreEstimate(
              model->estimator->EstimateSelectivity(pool.queries[i]), rows,
              pool.Cardinality(i, rows), &invalid);
        }
      }
      std::vector<double> base_q;
      base_q.reserve(requests.size());
      for (size_t id : requests) base_q.push_back(pool_base_q[id]);

      // After: the same stream served through the live loop. Every answer
      // enqueues an exact-labeling job (repeats route through the estimate
      // cache but still learn); periodic drains let truths from earlier
      // requests correct later ones (prequential: each request is scored
      // before its own truth can possibly land).
      const auto before = server->Stats().feedback;
      std::vector<double> fb_q;
      fb_q.reserve(requests.size());
      for (size_t i = 0; i < requests.size(); ++i) {
        const size_t id = requests[i];
        const auto response =
            server->Estimate(inputs->dataset, name, pool.queries[id]);
        bool invalid = false;
        fb_q.push_back(ScoreEstimate(response.ok ? response.selectivity : -1.0,
                                     rows, pool.Cardinality(id, rows),
                                     &invalid));
        if ((i + 1) % inputs->drain_every == 0) server->DrainFeedback();
      }
      server->DrainFeedback();
      const auto after = server->Stats().feedback;

      const size_t phases = inputs->phases;
      const size_t phase_len = requests.size() / phases;
      // base_q and fb_q score the identical request sequence, so the
      // whole-stream medians are directly comparable (no query-mix
      // confound); the first/last phase medians show the convergence trend.
      const double base_p50 = Percentile(base_q, 50.0);
      const double fb_p50 = Percentile(fb_q, 50.0);
      const double fb_first = MedianSlice(fb_q, 0, phase_len);
      const double fb_last =
          MedianSlice(fb_q, (phases - 1) * phase_len, fb_q.size());
      return std::vector<std::pair<std::string, double>>{
          {"base_p50", base_p50},
          {"fb_p50", fb_p50},
          {"fb_first_p50", fb_first},
          {"fb_last_p50", fb_last},
          {"improvement", fb_p50 > 0 ? base_p50 / fb_p50 : 0.0},
          {"truths", static_cast<double>(after.worker.completed -
                                         before.worker.completed)},
          {"corrections", static_cast<double>(after.corrections_applied -
                                              before.corrections_applied)}};
    });
    result.ok = status.ok;
    result.from_journal = status.from_journal;
    result.failure = status.failure;
    for (const auto& [metric, value] : status.metrics) {
      if (metric == "base_p50") result.base_p50 = value;
      if (metric == "fb_p50") result.fb_p50 = value;
      if (metric == "fb_first_p50") result.fb_first_p50 = value;
      if (metric == "fb_last_p50") result.fb_last_p50 = value;
      if (metric == "improvement") result.improvement = value;
      if (metric == "truths") result.truths = value;
      if (metric == "corrections") result.corrections = value;
    }
    std::printf("%14s %10.3f %8.3f %14.3f %13.3f %11.2fx %8.0f %12.0f %s\n",
                name.c_str(), result.base_p50, result.fb_p50,
                result.fb_first_p50, result.fb_last_p50, result.improvement,
                result.truths, result.corrections,
                result.from_journal
                    ? "journal"
                    : (result.ok ? "" : result.failure.c_str()));
    results.push_back(result);
  }

  // Headline: the loop's before/after on the best-served base.
  const CellResult* best = nullptr;
  for (const CellResult& result : results)
    if (result.ok && (best == nullptr || result.improvement > best->improvement))
      best = &result;
  if (best != nullptr)
    std::printf("\nheadline: %s median q-error %.3f -> %.3f over the replay "
                "(%.2fx better with the loop on)\n",
                best->estimator.c_str(), best->base_p50, best->fb_p50,
                best->improvement);

  // ---- machine-readable artifact ----------------------------------------
  const feedback::FeedbackHubStats loop = server.Stats().feedback;
  std::vector<bench::JsonRow> cells(results.size());
  for (size_t i = 0; i < results.size(); ++i) {
    const CellResult& r = results[i];
    cells[i].Add("estimator", r.estimator).Add("base_p50", r.base_p50);
    cells[i].Add("fb_p50", r.fb_p50).Add("fb_first_p50", r.fb_first_p50);
    cells[i].Add("fb_last_p50", r.fb_last_p50);
    cells[i].Add("improvement", r.improvement).Add("truths", r.truths);
    cells[i].Add("corrections", r.corrections).Add("ok", r.ok);
  }
  bench::JsonRow loop_row;
  loop_row.Add("enqueued", loop.worker.enqueued);
  loop_row.Add("completed", loop.worker.completed);
  loop_row.Add("dropped", loop.worker.dropped);
  loop_row.Add("cache_hit_jobs", loop.cache_hit_jobs);
  loop_row.Add("corrections_applied", loop.corrections_applied);
  loop_row.Add("corrections_passthrough", loop.corrections_passthrough);
  loop_row.Add("subspaces", loop.models.subspaces);
  loop_row.Add("entries", loop.models.entries);
  bench::BenchReport report("bench_feedback");
  report.Add("rows", rows).Add("requests", num_queries);
  report.Add("pool", pool_size).Add("drain_every", drain_every);
  report.Add("cells", cells).Add("loop", loop_row);
  if (!report.WriteTo(args.out)) return 1;

  return sweep.Finish();
}
