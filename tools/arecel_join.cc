// arecel_join — inspection CLI for the multi-table join subsystem
// (src/join/, DESIGN.md §13): generates a seeded correlated star schema,
// draws a join workload, and prints each query with its exact hash-join
// count next to every join-capable estimator's answer — the quickest way
// to eyeball where independence math falls off the truth.
//
//   arecel_join [--fact-rows=N] [--dims=N] [--dim-rows=N] [--queries=N]
//               [--seed=N] [--estimators=a,b,c]
//       Print the per-query comparison table (defaults: 5000 rows, 2 dims
//       of 64 rows, 10 queries, seed 7, all join-capable estimators).
//   arecel_join --selftest
//       Self-contained smoke: tiny star, hash-vs-nested-loop differential
//       plus estimate bounds for every join-capable name (used by ctest).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/registry.h"
#include "data/schema.h"
#include "join/join_executor.h"
#include "workload/join_generator.h"

namespace {

using namespace arecel;

size_t FlagValue(int argc, char** argv, const char* name, size_t fallback) {
  const std::string prefix = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0)
      return static_cast<size_t>(
          std::strtoull(argv[i] + prefix.size(), nullptr, 10));
  }
  return fallback;
}

std::vector<std::string> EstimatorFlag(int argc, char** argv) {
  const std::string prefix = "--estimators=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      std::vector<std::string> names;
      std::string rest = argv[i] + prefix.size();
      size_t at = 0;
      while (at <= rest.size()) {
        const size_t comma = rest.find(',', at);
        const size_t end = comma == std::string::npos ? rest.size() : comma;
        if (end > at) names.push_back(rest.substr(at, end - at));
        if (comma == std::string::npos) break;
        at = comma + 1;
      }
      return names;
    }
  }
  return JoinEstimatorNames();
}

struct TrainedEstimator {
  std::string name;
  std::unique_ptr<CardinalityEstimator> estimator;
};

std::vector<TrainedEstimator> TrainAll(const std::vector<std::string>& names,
                                       const Schema& schema,
                                       const Workload& train,
                                       uint64_t seed) {
  std::vector<TrainedEstimator> trained;
  for (const std::string& name : names) {
    auto estimator = MakeEstimator(name);
    if (!estimator->SupportsJoins()) {
      std::fprintf(stderr, "skipping %s: no join support\n", name.c_str());
      continue;
    }
    TrainContext context;
    context.training_workload = &train;
    context.seed = seed;
    estimator->TrainJoin(schema, context);
    trained.push_back({name, std::move(estimator)});
  }
  return trained;
}

int SelfTest() {
  StarSchemaOptions options;
  options.fact_rows = 800;
  options.num_dimensions = 2;
  options.dim_rows = 24;
  const Schema schema = GenerateStarSchema(options, /*seed=*/17);
  std::string detail;
  if (!schema.CheckIntegrity(&detail)) {
    std::fprintf(stderr, "integrity: %s\n", detail.c_str());
    return 1;
  }
  const Workload train = GenerateWorkload(schema, 60, /*seed=*/18);
  const std::vector<Query> probes =
      GenerateJoinQueries(schema, 12, /*seed=*/19);

  const join::JoinExecutor executor(schema);
  for (const Query& query : probes) {
    if (executor.Count(query) != join::ExecuteJoinCountNaive(schema, query)) {
      std::fprintf(stderr, "hash != nested-loop on %s\n",
                   query.ToString().c_str());
      return 1;
    }
  }
  for (const auto& [name, estimator] :
       TrainAll(JoinEstimatorNames(), schema, train, /*seed=*/20)) {
    for (const Query& query : probes) {
      const double sel = estimator->EstimateSelectivity(query);
      if (!std::isfinite(sel) || sel < 0.0 || sel > 1.0) {
        std::fprintf(stderr, "%s out of bounds: %g\n", name.c_str(), sel);
        return 1;
      }
    }
  }
  const scan::ScanStats stats = executor.scan_stats();
  std::printf("scan: scanned=%llu dict_kernel=%llu posting=%llu\n",
              static_cast<unsigned long long>(stats.scanned_blocks),
              static_cast<unsigned long long>(stats.dict_kernel_blocks),
              static_cast<unsigned long long>(stats.posting_queries));
  std::printf("selftest ok\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--selftest") == 0) return SelfTest();

  StarSchemaOptions options;
  options.fact_rows = FlagValue(argc, argv, "--fact-rows", 5000);
  options.num_dimensions =
      static_cast<int>(FlagValue(argc, argv, "--dims", 2));
  options.dim_rows = FlagValue(argc, argv, "--dim-rows", 64);
  const size_t num_queries = FlagValue(argc, argv, "--queries", 10);
  const uint64_t seed = FlagValue(argc, argv, "--seed", 7);

  const Schema schema = GenerateStarSchema(options, seed);
  const Workload train = GenerateWorkload(schema, 400, seed + 1);
  const std::vector<Query> queries =
      GenerateJoinQueries(schema, num_queries, seed + 2);
  const join::JoinExecutor executor(schema);

  const std::vector<TrainedEstimator> trained =
      TrainAll(EstimatorFlag(argc, argv), schema, train, seed + 3);

  std::printf("star: fact=%zu dims=%d x %zu rows (seed %llu)\n\n",
              options.fact_rows, options.num_dimensions, options.dim_rows,
              static_cast<unsigned long long>(seed));
  for (const Query& query : queries) {
    const size_t truth = executor.Count(query);
    const double rows_product =
        join::JoinExecutor::RowsProduct(schema, query);
    std::printf("%s\n  true count %zu (sel %.3e)\n",
                query.ToString().c_str(), truth,
                static_cast<double>(truth) / rows_product);
    for (const auto& [name, estimator] : trained) {
      const double card = estimator->EstimateCardinality(query, rows_product);
      std::printf("  %-16s estimate %.1f\n", name.c_str(), card);
    }
  }
  return 0;
}
