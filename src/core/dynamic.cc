#include "core/dynamic.h"

#include <algorithm>
#include <cmath>

#include "scan/block_scan.h"
#include "util/stats.h"
#include "util/timer.h"
#include "workload/generator.h"

namespace arecel {

DynamicProfile ProfileDynamicUpdate(CardinalityEstimator& estimator,
                                    const Table& updated_table,
                                    size_t old_row_count,
                                    const Workload& test,
                                    const DynamicOptions& options) {
  DynamicProfile profile;
  profile.estimator = estimator.Name();

  // 1. Stale model answers, evaluated against the *updated* ground truth.
  profile.stale_errors =
      EvaluateQErrors(estimator, test, updated_table.num_rows());

  // 2. Refresh training data for query-driven methods: generate an update
  // workload and label it against a uniform sample, timing the labelling.
  double label_seconds = 0.0;
  Workload update_workload;
  if (estimator.IsQueryDriven()) {
    Timer label_timer;
    update_workload.queries = GenerateQueries(
        updated_table, options.update_query_count, options.seed + 1);
    const size_t sample_rows = std::max<size_t>(
        100, static_cast<size_t>(static_cast<double>(
                 updated_table.num_rows()) * options.label_sample_fraction));
    const Table sample = updated_table.SampleRows(
        std::min(sample_rows, updated_table.num_rows()), options.seed + 2);
    // Relabeling happens after every append step, so it rides the
    // shared-scan engine: one pass over the sample for the whole update
    // workload instead of one scan per query.
    update_workload.selectivities =
        scan::BlockScanner(sample).Label(update_workload.queries);
    label_seconds = label_timer.ElapsedSeconds();
  }

  // 3. Model update (wall clock), scaled by the simulated device.
  UpdateContext context;
  context.old_row_count = old_row_count;
  context.update_workload =
      estimator.IsQueryDriven() ? &update_workload : nullptr;
  context.epochs = options.update_epochs;
  context.seed = options.seed + 3;
  Timer update_timer;
  estimator.Update(updated_table, context);
  const double model_seconds =
      update_timer.ElapsedSeconds() /
      SimulatedSpeedup(estimator.Name(), options.device, /*training=*/true);
  profile.update_seconds = model_seconds + label_seconds;

  // 4. Updated model answers.
  profile.updated_errors =
      EvaluateQErrors(estimator, test, updated_table.num_rows());
  return profile;
}

double DynamicP99(const DynamicProfile& profile, double interval_seconds) {
  const size_t n = profile.stale_errors.size();
  if (!FinishedInTime(profile, interval_seconds))
    return Percentile(profile.stale_errors, 99);
  const size_t stale_count = std::min(
      n, static_cast<size_t>(std::floor(static_cast<double>(n) *
                                        profile.update_seconds /
                                        interval_seconds)));
  std::vector<double> mixed;
  mixed.reserve(n);
  mixed.insert(mixed.end(), profile.stale_errors.begin(),
               profile.stale_errors.begin() + static_cast<long>(stale_count));
  mixed.insert(mixed.end(),
               profile.updated_errors.begin() + static_cast<long>(stale_count),
               profile.updated_errors.end());
  return Percentile(mixed, 99);
}

}  // namespace arecel
