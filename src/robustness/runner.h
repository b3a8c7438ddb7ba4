#ifndef ARECEL_ROBUSTNESS_RUNNER_H_
#define ARECEL_ROBUSTNESS_RUNNER_H_

#include <functional>
#include <memory>
#include <string>

#include "core/evaluator.h"

namespace arecel::robust {

// Knobs for one guarded (estimator, dataset) evaluation cell.
struct RobustOptions {
  // Per-stage wall-clock deadlines; <= 0 disables that watchdog.
  double train_deadline_seconds = 600.0;
  // Deadline for the whole estimate sweep over the test workload (one
  // guarded pool task per stage, not per query). Ignored when a per-query
  // budget is set below.
  double estimate_deadline_seconds = 300.0;

  // Per-query estimate budget; <= 0 disables (the default — the sweep-level
  // deadline above applies instead). When enabled, each query runs under
  // its own watchdog: a pathological query is recorded as a per-query
  // failure (kEstimateTimeout with the query index in the detail) and
  // scores kInvalidQError, and the sweep CONTINUES with the remaining
  // queries instead of timing out the whole estimate stage. The sweep only
  // gives up (and degrades to the fallback) after `max_query_timeouts`
  // budget overruns. This assumes EstimateSelectivity is a pure read — true
  // of every registry estimator — because an abandoned per-query worker may
  // still be inside the estimator (kept alive via shared ownership) while
  // the sweep moves on.
  double query_deadline_seconds = 0.0;
  int max_query_timeouts = 5;

  // Bounded retries for stochastic training divergence: attempt k trains a
  // FRESH instance with seed + k * retry_seed_stride, so a diverging run
  // does not just replay itself. Every failed attempt is logged.
  int max_train_attempts = 2;
  uint64_t retry_seed_stride = 9973;

  // Registry name of the traditional estimator that serves the cell when
  // all training attempts failed ("" disables). Wrapped in GuardedEstimator
  // (§7.2 rule guarding) so the degraded path also behaves logically.
  std::string fallback = "postgres";
};

using EstimatorFactory =
    std::function<std::unique_ptr<CardinalityEstimator>()>;

// Options read from the environment: ARECEL_TRAIN_DEADLINE,
// ARECEL_ESTIMATE_DEADLINE, ARECEL_QUERY_DEADLINE (seconds),
// ARECEL_TRAIN_ATTEMPTS, ARECEL_FALLBACK ("none" disables). The bench binaries use this so a CI
// job can tighten budgets without recompiling. A fallback name that is not
// in the registry terminates the process immediately (exit 2) with the
// valid names on stderr — failing fast at startup instead of aborting
// minutes in when the first failed cell tries to construct it.
RobustOptions RobustOptionsFromEnv();

// Fault-tolerant counterpart of EvaluateOnDataset: trains under the
// watchdog with seed-bump retries, degrades to options.fallback when
// training is exhausted, runs the estimate stage under its own deadline,
// and maps every failure to the taxonomy in the report. Never throws and
// never hangs past the configured deadlines: a report with
// served_by.empty() means the cell produced no numbers (its quantiles are
// kInvalidQError so aggregates surface the hole instead of masking it).
// Whenever a stage watchdog is armed, the guarded closures own private
// copies of table/train/test, so the caller's inputs may be loop-scoped:
// an abandoned worker never reaches back into the caller's frame.
EstimatorReport EvaluateOnDatasetRobust(
    const std::string& estimator_name, const EstimatorFactory& factory,
    const Table& table, const Workload& train, const Workload& test,
    const RobustOptions& options = {}, uint64_t seed = 42);

}  // namespace arecel::robust

#endif  // ARECEL_ROBUSTNESS_RUNNER_H_
