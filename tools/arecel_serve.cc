// Interactive front-end for the in-process serving layer (src/serve/):
// loads the synthetic benchmark datasets, serves estimates through the
// EstimatorServer (model registry + sharded estimate cache + deadline
// guard), and exposes the §5.1 append-update / staleness protocol.
//
//   arecel_serve [--scale S]
//
// REPL commands:
//   load <dataset> <estimator>   train-or-load the model, make it current
//   est <col><op><val> ...       estimate a conjunctive query, e.g.
//                                "est 0=3 2<=10 4>100"
//   update                       append 20% correlated rows, invalidate the
//                                dataset's cache entries, refresh in the
//                                background (stale-while-revalidate)
//   stats                        server/cache/manager counters + latencies
//   help, quit
//
// Environment: ARECEL_SERVE_CACHE_MB, ARECEL_QUERY_DEADLINE (see
// src/serve/server.h).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/registry.h"
#include "data/datasets.h"
#include "serve/server.h"
#include "workload/query.h"

namespace {

using arecel::Predicate;
using arecel::Query;
using arecel::Table;

constexpr uint64_t kDatasetSeed = 7;

arecel::DatasetSpec SpecByName(const std::string& name, bool* ok) {
  *ok = true;
  if (name == "census") return arecel::CensusSpec();
  if (name == "forest") return arecel::ForestSpec();
  if (name == "power") return arecel::PowerSpec();
  if (name == "dmv") return arecel::DmvSpec();
  *ok = false;
  return {};
}

// Parses one "<col><op><val>" token ("0=3", "2<=10", "4>100") into an
// inclusive-interval predicate.
bool ParsePredicate(const std::string& token, Predicate* out,
                    std::string* error) {
  size_t op_pos = token.find_first_of("<>=");
  if (op_pos == std::string::npos || op_pos == 0) {
    *error = "expected <col><op><val>, got \"" + token + "\"";
    return false;
  }
  std::string op;
  size_t value_pos = op_pos + 1;
  op += token[op_pos];
  if (value_pos < token.size() && token[value_pos] == '=' && op != "=") {
    op += '=';
    ++value_pos;
  }
  char* end = nullptr;
  const std::string col_str = token.substr(0, op_pos);
  const long col = std::strtol(col_str.c_str(), &end, 10);
  if (end == col_str.c_str() || *end != '\0' || col < 0) {
    *error = "bad column in \"" + token + "\"";
    return false;
  }
  const std::string val_str = token.substr(value_pos);
  const double value = std::strtod(val_str.c_str(), &end);
  if (end == val_str.c_str() || *end != '\0') {
    *error = "bad value in \"" + token + "\"";
    return false;
  }
  out->column = static_cast<int>(col);
  if (op == "=") {
    out->lo = out->hi = value;
  } else if (op == "<=") {
    out->hi = value;
  } else if (op == "<") {
    out->hi = value - 1;  // columns hold integer codes.
  } else if (op == ">=") {
    out->lo = value;
  } else if (op == ">") {
    out->lo = value + 1;
  } else {
    *error = "unknown operator in \"" + token + "\"";
    return false;
  }
  return true;
}

void PrintStats(const arecel::serve::ServerStats& stats) {
  std::printf("ml:      backend=%s simd=%s cpu=%s packed_models=%llu\n",
              stats.ml_backend.c_str(), stats.ml_simd.c_str(),
              stats.ml_cpu_flags.empty() ? "-" : stats.ml_cpu_flags.c_str(),
              (unsigned long long)stats.manager.packed_models);
  std::printf("server:  requests=%llu batches=%llu deadline=%llu "
              "errors=%llu model_failures=%llu updates=%llu\n",
              (unsigned long long)stats.requests,
              (unsigned long long)stats.batches,
              (unsigned long long)stats.deadline_exceeded,
              (unsigned long long)stats.estimate_errors,
              (unsigned long long)stats.model_failures,
              (unsigned long long)stats.updates);
  std::printf("cache:   hits=%llu misses=%llu rate=%.3f entries=%zu "
              "bytes=%zu evictions=%llu invalidations=%llu\n",
              (unsigned long long)stats.cache.hits,
              (unsigned long long)stats.cache.misses, stats.cache.hit_rate(),
              stats.cache.entries, stats.cache.bytes,
              (unsigned long long)stats.cache.evictions,
              (unsigned long long)stats.cache.invalidations);
  std::printf("manager: cold_trains=%llu loads=%llu "
              "refreshes=%llu refresh_failures=%llu waits=%llu "
              "evictions=%llu\n",
              (unsigned long long)stats.manager.cold_trains,
              (unsigned long long)stats.manager.persisted_loads,
              (unsigned long long)stats.manager.refreshes,
              (unsigned long long)stats.manager.refresh_failures,
              (unsigned long long)stats.manager.single_flight_waits,
              (unsigned long long)stats.manager.evictions);
  if (stats.store_enabled)
    std::printf("store:   puts=%llu commits=%llu commit_failures=%llu "
                "hits=%llu misses=%llu recoveries=%llu quarantined=%llu "
                "torn=%llu checksum=%llu corrupt_loads=%llu "
                "saves_committed=%llu save_retries=%llu "
                "save_failures=%llu\n",
                (unsigned long long)stats.store.puts,
                (unsigned long long)stats.store.commits,
                (unsigned long long)stats.store.commit_failures,
                (unsigned long long)stats.store.hits,
                (unsigned long long)stats.store.misses,
                (unsigned long long)stats.store.recoveries,
                (unsigned long long)stats.store.quarantined_generations,
                (unsigned long long)stats.store.torn_writes_detected,
                (unsigned long long)stats.store.checksum_failures,
                (unsigned long long)stats.manager.corrupt_loads,
                (unsigned long long)stats.manager.saves_committed,
                (unsigned long long)stats.manager.save_retries,
                (unsigned long long)stats.manager.save_failures);
  for (const auto& lat : stats.latencies)
    std::printf("latency: %-24s n=%llu p50=%.3fms p90=%.3fms p99=%.3fms "
                "max=%.3fms\n",
                lat.model.c_str(), (unsigned long long)lat.requests,
                lat.p50_ms, lat.p90_ms, lat.p99_ms, lat.max_ms);
}

void PrintHelp() {
  std::printf(
      "commands:\n"
      "  load <dataset> <estimator>  datasets: census forest power dmv\n"
      "  est <col><op><val> ...      ops: = < <= > >=   e.g. est 0=3 2<=10\n"
      "  update                      append-20%% update + background refresh\n"
      "  stats                       counters and latency percentiles\n"
      "  help | quit\n");
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.05;  // small default: the REPL should train in seconds.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      scale = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("usage: arecel_serve [--scale S]\n");
      PrintHelp();
      return 0;
    }
  }

  arecel::serve::EstimatorServer server(arecel::serve::ServeOptionsFromEnv());
  std::string current_dataset, current_estimator;

  std::printf("arecel_serve — in-process estimator server (scale %.2f)\n",
              scale);
  std::printf("cache %zu MB, %d dispatch threads, deadline %.1fs\n",
              server.options().cache_bytes >> 20,
              server.options().dispatch_threads,
              server.options().robust.query_deadline_seconds);
  PrintHelp();

  std::string line;
  while (std::printf("> "), std::fflush(stdout), std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string command;
    if (!(in >> command)) continue;

    if (command == "quit" || command == "exit") break;
    if (command == "help") {
      PrintHelp();
      continue;
    }

    if (command == "load") {
      std::string dataset, estimator;
      if (!(in >> dataset >> estimator)) {
        std::printf("usage: load <dataset> <estimator>\n");
        continue;
      }
      if (!server.manager().HasDataset(dataset)) {
        bool ok = false;
        arecel::DatasetSpec spec = SpecByName(dataset, &ok);
        if (!ok) {
          std::printf("unknown dataset \"%s\" (census forest power dmv)\n",
                      dataset.c_str());
          continue;
        }
        spec.rows = static_cast<size_t>(spec.rows * scale);
        std::printf("generating %s (%zu rows)...\n", dataset.c_str(),
                    spec.rows);
        server.RegisterDataset(dataset,
                               GenerateDataset(spec, kDatasetSeed));
      }
      std::string error;
      auto model = server.manager().GetModel(dataset, estimator, &error);
      if (model == nullptr) {
        std::printf("load failed: %s\n", error.c_str());
        const auto names = arecel::AllEstimatorNames();
        std::printf("estimators:");
        for (const auto& name : names) std::printf(" %s", name.c_str());
        std::printf("\n");
        continue;
      }
      current_dataset = dataset;
      current_estimator = estimator;
      std::printf("%s/%s ready (%s, %.2fs, %zu rows, version %llu)\n",
                  dataset.c_str(), estimator.c_str(), model->source.c_str(),
                  model->train_seconds, model->trained_rows,
                  (unsigned long long)model->data_version);
      continue;
    }

    if (command == "est") {
      if (current_dataset.empty()) {
        std::printf("no model loaded — run: load <dataset> <estimator>\n");
        continue;
      }
      Query query;
      std::string token, error;
      bool parsed = true;
      while (in >> token) {
        Predicate predicate;
        if (!ParsePredicate(token, &predicate, &error)) {
          std::printf("parse error: %s\n", error.c_str());
          parsed = false;
          break;
        }
        query.predicates.push_back(predicate);
      }
      if (!parsed) continue;
      if (query.predicates.empty()) {
        std::printf("usage: est <col><op><val> ...\n");
        continue;
      }
      auto response =
          server.Estimate(current_dataset, current_estimator, query);
      if (!response.ok) {
        std::printf("FAILED (%s): %s\n",
                    arecel::FailureKindName(response.failure),
                    response.detail.c_str());
        continue;
      }
      std::printf("card ~ %.1f  (sel %.6g, %s, v%llu, %.3f ms)\n",
                  response.cardinality, response.selectivity,
                  response.cache_hit ? "cache hit" : "computed",
                  (unsigned long long)response.data_version,
                  response.latency_ms);
      continue;
    }

    if (command == "update") {
      if (current_dataset.empty()) {
        std::printf("no dataset loaded\n");
        continue;
      }
      const uint64_t version = server.Update(current_dataset);
      std::printf("%s now at data version %llu; cache invalidated, "
                  "background refresh started (stale model serves "
                  "meanwhile)\n",
                  current_dataset.c_str(), (unsigned long long)version);
      continue;
    }

    if (command == "stats") {
      PrintStats(server.Stats());
      continue;
    }

    std::printf("unknown command \"%s\" — try help\n", command.c_str());
  }

  server.WaitForRefreshes();
  return 0;
}
