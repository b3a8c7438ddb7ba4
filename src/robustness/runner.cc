#include "robustness/runner.h"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>

#include "core/registry.h"
#include "estimators/extensions/guarded.h"
#include "robustness/guard.h"
#include "util/env.h"
#include "util/timer.h"

namespace arecel::robust {

namespace {

// Shared handle for a guarded stage's input: an owning copy when the stage
// runs under a watchdog (a timed-out worker is abandoned and keeps reading
// the input, which must therefore not be the caller's loop-scoped object —
// in drivers like bench_table4_accuracy the Workloads die when the sweep
// advances to the next dataset), or a non-owning alias when the deadline is
// disabled (RunGuarded then runs inline and can never abandon, so the copy
// would be pure waste).
template <typename T>
std::shared_ptr<const T> ShareForGuard(const T& value, bool watchdog) {
  if (watchdog) return std::make_shared<T>(value);
  return std::shared_ptr<const T>(std::shared_ptr<const T>(), &value);
}

// Bundle moved into the guard's keep_alive: everything a stage closure
// touches, so an abandoned worker thread never dangles.
struct TrainCell {
  std::shared_ptr<CardinalityEstimator> estimator;
  std::shared_ptr<const Table> table;
  std::shared_ptr<const Workload> train;
  CancellationToken cancel;
};

struct EstimateCell {
  std::shared_ptr<CardinalityEstimator> estimator;
  std::shared_ptr<const Workload> test;
  QErrorScan scan;
  double inference_ms = 0.0;
};

// Trains a fresh instance under the watchdog. Returns the trained estimator
// (null on failure, with the failure recorded in *report).
std::shared_ptr<CardinalityEstimator> TrainGuarded(
    const EstimatorFactory& factory, std::shared_ptr<const Table> table,
    std::shared_ptr<const Workload> train, uint64_t seed, int attempt,
    const RobustOptions& options, EstimatorReport* report) {
  auto cell = std::make_shared<TrainCell>();
  cell->estimator = factory();
  cell->table = std::move(table);
  cell->train = std::move(train);

  Timer timer;
  const GuardResult outcome = RunGuarded(
      [cell, seed] {
        TrainContext context;
        context.training_workload = cell->train.get();
        context.seed = seed;
        context.cancellation = &cell->cancel;
        cell->estimator->Train(*cell->table, context);
      },
      options.train_deadline_seconds,
      {FailureKind::kTrainTimeout, FailureKind::kTrainThrew,
       FailureKind::kTrainCancelled},
      &cell->cancel, cell);
  if (outcome.ok()) {
    report->train_seconds += timer.ElapsedSeconds();
    return cell->estimator;
  }
  report->train_seconds += outcome.elapsed_seconds;
  report->failures.push_back({outcome.kind, "train", attempt,
                              outcome.detail +
                                  ", seed=" + std::to_string(seed)});
  return nullptr;
}

// Runs the whole estimate sweep on a watchdog worker. Returns true and
// fills scan/timing on success; records the failure otherwise. The
// estimator must not be reused after a timeout (the worker may still be
// touching it), which the caller honours by dropping its reference.
bool EstimateGuarded(std::shared_ptr<CardinalityEstimator> estimator,
                     std::shared_ptr<const Workload> test, size_t rows,
                     const RobustOptions& options, EstimatorReport* report) {
  auto cell = std::make_shared<EstimateCell>();
  cell->estimator = std::move(estimator);
  cell->test = std::move(test);

  const GuardResult outcome = RunGuarded(
      [cell, rows] {
        Timer inference_timer;
        cell->scan = ScanQErrors(*cell->estimator, *cell->test, rows);
        cell->inference_ms = inference_timer.ElapsedMillis();
      },
      options.estimate_deadline_seconds,
      {FailureKind::kEstimateTimeout, FailureKind::kEstimateThrew,
       FailureKind::kEstimateThrew},
      nullptr, cell);
  if (!outcome.ok()) {
    report->failures.push_back({outcome.kind, "estimate", 0, outcome.detail});
    return false;
  }
  const size_t queries = cell->test->size();
  report->raw_qerrors = std::move(cell->scan.qerrors);
  report->invalid_estimates = cell->scan.invalid_estimates;
  report->avg_inference_ms =
      queries == 0 ? 0.0
                   : cell->inference_ms / static_cast<double>(queries);
  if (report->invalid_estimates > 0) {
    report->failures.push_back(
        {FailureKind::kNonFiniteEstimate, "estimate", 0,
         std::to_string(report->invalid_estimates) + "/" +
             std::to_string(queries) + " invalid estimates"});
  }
  return true;
}

// Per-query budget variant (ROADMAP item): each query runs under its own
// watchdog, so one pathological query becomes one per-query failure record
// and one kInvalidQError instead of sinking the whole estimate stage. The
// loop itself runs on the caller's thread — it is bounded by
// queries x budget, so no sweep-level watchdog wraps it. After
// options.max_query_timeouts overruns the sweep gives up (a deterministic
// hang would otherwise pay the budget once per remaining query) and the
// caller degrades to the fallback. Every per-query worker shares ownership
// of the estimator and workload, so an abandoned one can never dangle.
bool EstimatePerQueryGuarded(std::shared_ptr<CardinalityEstimator> estimator,
                             std::shared_ptr<const Workload> test,
                             size_t rows, const RobustOptions& options,
                             EstimatorReport* report) {
  struct QueryCell {
    std::shared_ptr<CardinalityEstimator> estimator;
    std::shared_ptr<const Workload> test;
    double sel = 0.0;
  };
  const size_t queries = test->size();
  std::vector<double> qerrors(queries, kInvalidQError);
  size_t invalid = 0;
  int timeouts = 0;
  double inference_ms = 0.0;
  for (size_t i = 0; i < queries; ++i) {
    auto cell = std::make_shared<QueryCell>();
    cell->estimator = estimator;
    cell->test = test;
    const GuardResult outcome = RunGuarded(
        [cell, i] {
          cell->sel = cell->estimator->EstimateSelectivity(
              cell->test->queries[i]);
        },
        options.query_deadline_seconds,
        {FailureKind::kEstimateTimeout, FailureKind::kEstimateThrew,
         FailureKind::kEstimateThrew},
        nullptr, cell);
    if (outcome.ok()) {
      inference_ms += outcome.elapsed_seconds * 1e3;
      bool bad = false;
      qerrors[i] =
          ScoreEstimate(cell->sel, rows, test->Cardinality(i, rows), &bad);
      invalid += bad ? 1 : 0;
      continue;
    }
    report->failures.push_back({outcome.kind, "estimate", 0,
                                outcome.detail + ", query " +
                                    std::to_string(i)});
    if (outcome.kind == FailureKind::kEstimateTimeout &&
        ++timeouts >= std::max(1, options.max_query_timeouts)) {
      report->failures.push_back(
          {FailureKind::kEstimateTimeout, "estimate", 0,
           "gave up after " + std::to_string(timeouts) +
               " per-query budget overruns"});
      return false;
    }
  }
  report->raw_qerrors = std::move(qerrors);
  report->invalid_estimates = invalid;
  report->avg_inference_ms =
      queries == 0 ? 0.0 : inference_ms / static_cast<double>(queries);
  if (invalid > 0) {
    report->failures.push_back(
        {FailureKind::kNonFiniteEstimate, "estimate", 0,
         std::to_string(invalid) + "/" + std::to_string(queries) +
             " invalid estimates"});
  }
  return true;
}

// Dispatches the estimate stage to the per-query budget path when one is
// configured, else to the sweep-level watchdog.
bool RunEstimateStage(std::shared_ptr<CardinalityEstimator> estimator,
                      std::shared_ptr<const Workload> test, size_t rows,
                      const RobustOptions& options,
                      EstimatorReport* report) {
  if (options.query_deadline_seconds > 0) {
    return EstimatePerQueryGuarded(std::move(estimator), std::move(test),
                                   rows, options, report);
  }
  return EstimateGuarded(std::move(estimator), std::move(test), rows,
                         options, report);
}

}  // namespace

RobustOptions RobustOptionsFromEnv() {
  RobustOptions options;
  options.train_deadline_seconds =
      EnvDouble("ARECEL_TRAIN_DEADLINE", options.train_deadline_seconds);
  options.estimate_deadline_seconds = EnvDouble(
      "ARECEL_ESTIMATE_DEADLINE", options.estimate_deadline_seconds);
  options.query_deadline_seconds =
      EnvDouble("ARECEL_QUERY_DEADLINE", options.query_deadline_seconds);
  options.max_train_attempts = static_cast<int>(std::min<size_t>(
      EnvSize("ARECEL_TRAIN_ATTEMPTS",
              static_cast<size_t>(options.max_train_attempts)),
      INT_MAX));
  if (const char* fallback = std::getenv("ARECEL_FALLBACK")) {
    options.fallback = fallback;
    if (options.fallback == "none") options.fallback.clear();
  }
  // Fail fast on a typo'd fallback: MakeEstimator aborts on an unknown
  // name, and deferring that abort until the first cell has exhausted all
  // its training attempts (potentially many minutes in) would crash the
  // figure the harness exists to protect.
  if (!options.fallback.empty()) {
    const std::vector<std::string> registered = AllRegistryNames();
    if (std::find(registered.begin(), registered.end(), options.fallback) ==
        registered.end()) {
      std::fprintf(stderr,
                   "[robustness] ARECEL_FALLBACK \"%s\" is not a registered "
                   "estimator (\"none\" disables the fallback); valid:",
                   options.fallback.c_str());
      for (const std::string& name : registered)
        std::fprintf(stderr, " %s", name.c_str());
      std::fprintf(stderr, "\n");
      std::exit(2);
    }
  }
  return options;
}

EstimatorReport EvaluateOnDatasetRobust(
    const std::string& estimator_name, const EstimatorFactory& factory,
    const Table& table, const Workload& train, const Workload& test,
    const RobustOptions& options, uint64_t seed) {
  EstimatorReport report;
  report.estimator = estimator_name;
  report.dataset = table.name();

  // Guard inputs get shared ownership (owning copies whenever the stage's
  // watchdog is armed): after an uncooperative hang the abandoned worker
  // keeps reading them long after this call — and the caller's loop-scoped
  // table/workloads — would be gone.
  const std::shared_ptr<const Table> shared_table =
      ShareForGuard(table, options.train_deadline_seconds > 0);
  const std::shared_ptr<const Workload> shared_train =
      ShareForGuard(train, options.train_deadline_seconds > 0);
  const std::shared_ptr<const Workload> shared_test =
      ShareForGuard(test, options.estimate_deadline_seconds > 0 ||
                              options.query_deadline_seconds > 0);

  // Pillar 2: bounded seed-bump retries over fresh instances.
  std::shared_ptr<CardinalityEstimator> trained;
  const int attempts = std::max(1, options.max_train_attempts);
  for (int attempt = 0; attempt < attempts && trained == nullptr; ++attempt) {
    trained = TrainGuarded(factory, shared_table, shared_train,
                           seed + static_cast<uint64_t>(attempt) *
                                      options.retry_seed_stride,
                           attempt, options, &report);
  }
  bool served = false;
  if (trained != nullptr) {
    report.model_size_bytes = trained->SizeBytes();
    served = RunEstimateStage(std::move(trained), shared_test,
                              table.num_rows(), options, &report);
    if (served) report.served_by = estimator_name;
  }

  // Degrade to the configured traditional estimator, rule-guarded, instead
  // of vanishing from the table — whether training was exhausted or the
  // estimate stage itself failed.
  if (!served && !options.fallback.empty() &&
      options.fallback != estimator_name) {
    auto fallback_factory = [&options] {
      return std::unique_ptr<CardinalityEstimator>(
          std::make_unique<GuardedEstimator>(
              MakeEstimator(options.fallback)));
    };
    std::shared_ptr<CardinalityEstimator> fallback =
        TrainGuarded(fallback_factory, shared_table, shared_train, seed,
                     /*attempt=*/attempts, options, &report);
    if (fallback != nullptr) {
      report.model_size_bytes = fallback->SizeBytes();
      served = RunEstimateStage(std::move(fallback), shared_test,
                                table.num_rows(), options, &report);
      if (served) report.served_by = "guarded(" + options.fallback + ")";
    }
  }

  if (report.served_by.empty()) {
    // No numbers at all: report the sentinel quantiles so a failed cell is
    // visibly broken in any aggregate that still includes it.
    report.qerror = {kInvalidQError, kInvalidQError, kInvalidQError,
                     kInvalidQError};
  } else {
    report.qerror = Summarize(report.raw_qerrors);
  }
  return report;
}

}  // namespace arecel::robust
