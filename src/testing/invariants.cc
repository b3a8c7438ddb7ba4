#include "testing/invariants.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "core/model_io.h"
#include "core/registry.h"
#include "core/rules.h"
#include "data/datasets.h"
#include "join/join_executor.h"
#include "scan/block_scan.h"
#include "util/check.h"
#include "util/random.h"
#include "util/stats.h"

namespace arecel {

namespace {

void RecordViolation(InvariantResult* result, double excess,
                     const std::string& detail) {
  ++result->violations;
  if (excess > result->worst) result->worst = excess;
  if (result->detail.empty()) result->detail = detail;
}

std::unique_ptr<CardinalityEstimator> TrainFresh(const std::string& name,
                                                 const Table& table,
                                                 const Workload& train,
                                                 uint64_t seed) {
  auto estimator = MakeEstimator(name);
  TrainContext context;
  context.training_workload = &train;
  context.seed = seed;
  estimator->Train(table, context);
  return estimator;
}

std::string QuerySummary(const Query& query) {
  std::string out = "{";
  for (size_t i = 0; i < query.predicates.size(); ++i) {
    const Predicate& p = query.predicates[i];
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%sc%d in [%g, %g]", i > 0 ? ", " : "",
                  p.column, p.lo, p.hi);
    out += buf;
  }
  return out + "}";
}

}  // namespace

InvariantResult CheckSelectivityBounds(const CardinalityEstimator& estimator,
                                       const std::vector<Query>& probes,
                                       size_t rows) {
  InvariantResult result;
  result.invariant = "bounds";
  result.trials = probes.size();
  for (const Query& query : probes) {
    const double sel = estimator.EstimateSelectivity(query);
    const double card = estimator.EstimateCardinality(query, rows);
    if (!std::isfinite(sel) || sel < 0.0 || sel > 1.0 || card < 0.0 ||
        card > static_cast<double>(rows)) {
      const double excess =
          std::isfinite(sel) ? std::max(sel - 1.0, -sel) : 1.0;
      RecordViolation(&result, excess,
                      "selectivity " + std::to_string(sel) + " for " +
                          QuerySummary(query));
    }
  }
  return result;
}

InvariantResult CheckTighteningMonotonicity(
    const CardinalityEstimator& estimator, const Table& table, size_t trials,
    uint64_t seed, const InvariantTolerance& tolerance) {
  InvariantResult result;
  result.invariant = "monotonicity";
  result.trials = trials;
  const std::vector<int> cols = RangeableColumns(table);
  if (cols.empty()) {
    result.skipped = true;
    result.detail = "no range-able column in table";
    return result;
  }
  Rng rng(seed);
  const double shrinks[] = {0.05, 0.25, 0.5};
  for (size_t t = 0; t < trials; ++t) {
    const int col = cols[rng.UniformInt(static_cast<uint64_t>(cols.size()))];
    const Query loose = RandomRangeQuery(table, col, rng);

    Query strict = loose;
    if (t % 2 == 0 || table.num_cols() < 2) {
      // Shrink the interval symmetrically toward its center.
      const double lo = loose.predicates[0].lo;
      const double hi = loose.predicates[0].hi;
      const double shrink = shrinks[(t / 2) % 3];
      strict.predicates[0].lo = lo + shrink * (hi - lo);
      strict.predicates[0].hi = hi - shrink * (hi - lo);
    } else {
      // Append a conjunct on another column spanning half its domain.
      const int extra = static_cast<int>(
          (static_cast<size_t>(col) + 1 +
           rng.UniformInt(static_cast<uint64_t>(table.num_cols() - 1))) %
          table.num_cols());
      const Column& column = table.column(static_cast<size_t>(extra));
      const size_t half =
          std::min(std::max<size_t>(column.domain.size() / 2, 1),
                   column.domain.size() - 1);
      strict.predicates.push_back(
          {extra, column.domain.front(), column.domain[half]});
    }

    const double loose_est = estimator.EstimateSelectivity(loose);
    const double strict_est = estimator.EstimateSelectivity(strict);
    const double excess = strict_est -
                          loose_est * (1.0 + tolerance.relative) -
                          tolerance.absolute;
    if (excess > 0) {
      RecordViolation(&result, excess,
                      "tightened " + QuerySummary(loose) + " -> " +
                          QuerySummary(strict) + " raised estimate " +
                          std::to_string(loose_est) + " -> " +
                          std::to_string(strict_est));
    }
  }
  return result;
}

InvariantResult CheckFullDomainNoOp(const CardinalityEstimator& estimator,
                                    const Table& table, size_t trials,
                                    uint64_t seed,
                                    const InvariantTolerance& tolerance) {
  InvariantResult result;
  result.invariant = "full-domain-noop";
  result.trials = trials;
  const std::vector<int> cols = RangeableColumns(table);
  if (cols.empty()) {
    result.skipped = true;
    result.detail = "no range-able column in table";
    return result;
  }
  if (table.num_cols() < 2) {
    result.skipped = true;
    result.detail = "needs a second column to append a conjunct on";
    return result;
  }
  Rng rng(seed);
  for (size_t t = 0; t < trials; ++t) {
    const int col = cols[rng.UniformInt(static_cast<uint64_t>(cols.size()))];
    const Query base = RandomRangeQuery(table, col, rng);
    // Full-domain conjunct on a column the query does not reference yet
    // (queries carry at most one predicate per column everywhere else in
    // the system, and estimator featurizations assume that).
    const int extra = static_cast<int>(
        (static_cast<size_t>(col) + 1 +
         rng.UniformInt(static_cast<uint64_t>(table.num_cols() - 1))) %
        table.num_cols());
    const Column& column = table.column(static_cast<size_t>(extra));
    Query widened = base;
    widened.predicates.push_back({extra, column.min(), column.max()});

    const double base_est = estimator.EstimateSelectivity(base);
    const double widened_est = estimator.EstimateSelectivity(widened);
    const double diff = std::fabs(widened_est - base_est);
    const double allowed =
        tolerance.absolute + tolerance.relative * std::max(base_est, 1e-12);
    if (diff > allowed) {
      RecordViolation(&result, diff - allowed,
                      "full-domain conjunct on c" + std::to_string(extra) +
                          " moved estimate " + std::to_string(base_est) +
                          " -> " + std::to_string(widened_est) + " for " +
                          QuerySummary(base));
    }
  }
  return result;
}

InvariantResult CheckDeterminism(const std::string& name, const Table& table,
                                 const Workload& train,
                                 const std::vector<Query>& probes,
                                 uint64_t seed) {
  InvariantResult result;
  result.invariant = "determinism";
  result.trials = probes.size();
  auto first = TrainFresh(name, table, train, seed);
  auto second = TrainFresh(name, table, train, seed);
  // One aligned pass per instance: stochastic inference that seeds from a
  // per-instance counter stays comparable this way.
  std::vector<double> first_estimates(probes.size());
  for (size_t i = 0; i < probes.size(); ++i)
    first_estimates[i] = first->EstimateSelectivity(probes[i]);
  for (size_t i = 0; i < probes.size(); ++i) {
    const double replay = second->EstimateSelectivity(probes[i]);
    if (replay != first_estimates[i]) {
      RecordViolation(&result, std::fabs(replay - first_estimates[i]),
                      "probe " + std::to_string(i) + ": " +
                          std::to_string(first_estimates[i]) + " vs " +
                          std::to_string(replay) + " for " +
                          QuerySummary(probes[i]));
    }
  }
  return result;
}

namespace {

std::unique_ptr<CardinalityEstimator> TrainFreshJoin(const std::string& name,
                                                     const Schema& schema,
                                                     const Workload& train,
                                                     uint64_t seed) {
  auto estimator = MakeEstimator(name);
  TrainContext context;
  context.training_workload = &train;
  context.seed = seed;
  estimator->TrainJoin(schema, context);
  return estimator;
}

}  // namespace

InvariantResult CheckJoinSelectivityBounds(
    const std::string& name, const Schema& schema, const Workload& train,
    const std::vector<Query>& probes, uint64_t seed) {
  InvariantResult result;
  result.invariant = "join-bounds";
  result.trials = probes.size();
  if (!MakeEstimator(name)->SupportsJoins()) {
    result.skipped = true;
    result.detail = "estimator does not support joins";
    return result;
  }
  auto estimator = TrainFreshJoin(name, schema, train, seed);
  for (const Query& query : probes) {
    const double sel = estimator->EstimateSelectivity(query);
    const double denom = join::JoinExecutor::RowsProduct(schema, query);
    const double card = estimator->EstimateCardinality(query, denom);
    if (!std::isfinite(sel) || sel < 0.0 || sel > 1.0 || card < 0.0 ||
        card > denom) {
      const double excess =
          std::isfinite(sel) ? std::max(sel - 1.0, -sel) : 1.0;
      RecordViolation(&result, excess,
                      "join selectivity " + std::to_string(sel) + " for " +
                          query.ToString());
    }
  }
  return result;
}

InvariantResult CheckJoinDeterminism(const std::string& name,
                                     const Schema& schema,
                                     const Workload& train,
                                     const std::vector<Query>& probes,
                                     uint64_t seed) {
  InvariantResult result;
  result.invariant = "join-determinism";
  result.trials = probes.size();
  if (!MakeEstimator(name)->SupportsJoins()) {
    result.skipped = true;
    result.detail = "estimator does not support joins";
    return result;
  }
  auto first = TrainFreshJoin(name, schema, train, seed);
  auto second = TrainFreshJoin(name, schema, train, seed);
  std::vector<double> first_estimates(probes.size());
  for (size_t i = 0; i < probes.size(); ++i)
    first_estimates[i] = first->EstimateSelectivity(probes[i]);
  for (size_t i = 0; i < probes.size(); ++i) {
    const double replay = second->EstimateSelectivity(probes[i]);
    if (replay != first_estimates[i]) {
      RecordViolation(&result, std::fabs(replay - first_estimates[i]),
                      "join probe " + std::to_string(i) + ": " +
                          std::to_string(first_estimates[i]) + " vs " +
                          std::to_string(replay) + " for " +
                          probes[i].ToString());
    }
  }
  return result;
}

InvariantResult CheckSaveLoadRoundTrip(const std::string& name,
                                       const Table& table,
                                       const Workload& train,
                                       const std::vector<Query>& probes,
                                       uint64_t seed) {
  InvariantResult result;
  result.invariant = "save-load-round-trip";
  result.trials = probes.size();
  auto trained = TrainFresh(name, table, train, seed);
  if (!SupportsPersistence(*trained)) {
    result.skipped = true;
    result.detail = "estimator does not implement model persistence";
    return result;
  }

  std::string bytes;
  if (!SerializeEstimatorBytes(*trained, &bytes)) {
    RecordViolation(&result, 1.0, "SerializeEstimatorBytes failed for " + name);
    return result;
  }
  auto loaded = MakeEstimator(name);
  const ModelLoadResult load = LoadEstimatorBytes(loaded.get(), bytes);
  if (!load.ok()) {
    RecordViolation(&result, 1.0,
                    "LoadEstimatorBytes failed for " + name + ": " +
                        load.detail);
    return result;
  }

  std::vector<double> trained_estimates(probes.size());
  for (size_t i = 0; i < probes.size(); ++i)
    trained_estimates[i] = trained->EstimateSelectivity(probes[i]);
  for (size_t i = 0; i < probes.size(); ++i) {
    const double replay = loaded->EstimateSelectivity(probes[i]);
    if (replay != trained_estimates[i]) {
      RecordViolation(&result, std::fabs(replay - trained_estimates[i]),
                      "probe " + std::to_string(i) + ": " +
                          std::to_string(trained_estimates[i]) + " vs " +
                          std::to_string(replay) + " after round-trip");
    }
  }
  return result;
}

namespace {

// Null when `name` is not adaptive: the feedback invariants probe this on
// an untrained instance, so non-sink estimators skip without paying a
// training run.
bool IsFeedbackSinkName(const std::string& name) {
  auto estimator = MakeEstimator(name);
  return dynamic_cast<FeedbackSink*>(estimator.get()) != nullptr;
}

double QErrorOn(const CardinalityEstimator& estimator, const Query& query,
                double truth_selectivity, size_t rows) {
  const double est = estimator.EstimateCardinality(query, rows);
  return QError(est, truth_selectivity * static_cast<double>(rows));
}

double MedianQError(const CardinalityEstimator& estimator,
                    const std::vector<Query>& queries,
                    const std::vector<double>& truths, size_t rows) {
  std::vector<double> qerrors;
  qerrors.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i)
    qerrors.push_back(QErrorOn(estimator, queries[i], truths[i], rows));
  return Percentile(qerrors, 50.0);
}

}  // namespace

InvariantResult CheckFeedbackMonotonicity(const std::string& name,
                                          const Table& table,
                                          const Workload& train,
                                          size_t trials, uint64_t seed) {
  InvariantResult result;
  result.invariant = "feedback-monotonicity";
  result.trials = trials;
  if (!IsFeedbackSinkName(name)) {
    result.skipped = true;
    result.detail = "estimator is not a FeedbackSink";
    return result;
  }
  const std::vector<int> cols = RangeableColumns(table);
  if (cols.empty()) {
    result.skipped = true;
    result.detail = "no range-able column in table";
    return result;
  }

  auto estimator = TrainFresh(name, table, train, seed);
  auto* sink = dynamic_cast<FeedbackSink*>(estimator.get());
  ARECEL_CHECK(sink != nullptr);
  const size_t rows = table.num_rows();
  Rng rng(seed);
  // One scanner builds the code-count prefixes once for every trial's truth.
  const scan::BlockScanner truth_scanner(table);
  for (size_t t = 0; t < trials; ++t) {
    const int col = cols[rng.UniformInt(static_cast<uint64_t>(cols.size()))];
    const Query query = RandomRangeQuery(table, col, rng);
    const double truth = truth_scanner.Selectivity(query);
    const double before = QErrorOn(*estimator, query, truth, rows);
    for (int r = 0; r < kFeedbackRepeats; ++r)
      sink->ObserveTruth(query, truth);
    const double after = QErrorOn(*estimator, query, truth, rows);
    const double allowed = std::max(kConvergedQError, before * 1.05);
    if (!(after <= allowed)) {
      RecordViolation(&result, after - allowed,
                      "q-error " + std::to_string(before) + " -> " +
                          std::to_string(after) + " after " +
                          std::to_string(kFeedbackRepeats) + " truths for " +
                          QuerySummary(query));
    }
  }
  return result;
}

InvariantResult CheckFeedbackReplayNotWorse(const std::string& name,
                                            const Table& table,
                                            const Workload& train,
                                            uint64_t seed) {
  InvariantResult result;
  result.invariant = "feedback-replay";
  if (!IsFeedbackSinkName(name)) {
    result.skipped = true;
    result.detail = "estimator is not a FeedbackSink";
    return result;
  }

  const Workload replay = GenerateWorkload(table, 200, seed + 11);
  result.trials = replay.size();
  const size_t rows = table.num_rows();

  auto frozen = TrainFresh(name, table, train, seed);
  const double frozen_median =
      MedianQError(*frozen, replay.queries, replay.selectivities, rows);

  auto adaptive = TrainFresh(name, table, train, seed);
  auto* sink = dynamic_cast<FeedbackSink*>(adaptive.get());
  ARECEL_CHECK(sink != nullptr);
  std::vector<double> qerrors;
  qerrors.reserve(replay.size());
  for (size_t i = 0; i < replay.size(); ++i) {
    qerrors.push_back(QErrorOn(*adaptive, replay.queries[i],
                               replay.selectivities[i], rows));
    sink->ObserveTruth(replay.queries[i], replay.selectivities[i]);
  }
  const double adaptive_median = Percentile(qerrors, 50.0);

  const double allowed = frozen_median * 1.05 + 1e-9;
  if (!(adaptive_median <= allowed)) {
    RecordViolation(&result, adaptive_median - allowed,
                    "prequential median q-error " +
                        std::to_string(adaptive_median) +
                        " vs frozen replay " + std::to_string(frozen_median));
  }
  return result;
}

InvariantResult CheckFeedbackDynamicConvergence(const std::string& name,
                                                const Table& table,
                                                const Workload& train,
                                                uint64_t seed) {
  InvariantResult result;
  result.invariant = "feedback-dynamic";
  if (!IsFeedbackSinkName(name)) {
    result.skipped = true;
    result.detail = "estimator is not a FeedbackSink";
    return result;
  }

  auto estimator = TrainFresh(name, table, train, seed);
  auto* sink = dynamic_cast<FeedbackSink*>(estimator.get());
  ARECEL_CHECK(sink != nullptr);

  // §5.1: append 20% correlated rows but do NOT call Update — the model is
  // deliberately stale, the regime the feedback loop exists to fix.
  const Table updated = AppendCorrelatedUpdate(table, 0.2, seed + 13);
  const Workload probes = GenerateWorkload(updated, 120, seed + 17);
  result.trials = probes.size();
  const size_t rows = updated.num_rows();

  const double stale_median =
      MedianQError(*estimator, probes.queries, probes.selectivities, rows);
  for (size_t i = 0; i < probes.size(); ++i)
    sink->ObserveTruth(probes.queries[i], probes.selectivities[i]);
  const double converged_median =
      MedianQError(*estimator, probes.queries, probes.selectivities, rows);

  const double allowed = stale_median * 1.05 + 1e-9;
  if (!(converged_median <= allowed)) {
    RecordViolation(&result, converged_median - allowed,
                    "median q-error " + std::to_string(stale_median) +
                        " (stale) -> " + std::to_string(converged_median) +
                        " after feeding updated-table truths");
  }
  return result;
}

}  // namespace arecel
