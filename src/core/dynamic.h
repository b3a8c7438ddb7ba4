#ifndef ARECEL_CORE_DYNAMIC_H_
#define ARECEL_CORE_DYNAMIC_H_

#include <string>

#include "core/device.h"
#include "core/estimator.h"

namespace arecel {

// The paper's §5.1 dynamic environment. Given an estimator trained on the
// old table and a stream of n test queries uniformly spread over [0, T]:
// the model update starts at time 0 and finishes at t_u, so the first
// n * t_u / T queries are answered by the stale model and the rest by the
// updated model; the metric is the 99th-percentile q-error over all n.
//
// t_u is measured wall-clock: for query-driven methods it includes the time
// to relabel the update workload against a data sample (the paper counts
// this as "a major difference between data-driven and query-driven
// methods"); the simulated-GPU device divides the model-update portion by
// the per-method speedup factor.
struct DynamicOptions {
  int update_epochs = 0;  // 0 = the estimator's own default.
  Device device = Device::kCpu;
  // Query-driven refresh: how many queries to relabel and against how large
  // a uniform sample of the updated table (paper: 8K-16K queries, 5%).
  size_t update_query_count = 2000;
  double label_sample_fraction = 0.05;
  uint64_t seed = 7;
};

// One-update profile that lets callers evaluate many interval lengths T
// without retraining: the stale/updated per-query error vectors plus the
// measured update time. Figure 6 sweeps T = {high, medium, low} update
// frequency from a single profile per estimator.
struct DynamicProfile {
  std::string estimator;
  double update_seconds = 0.0;  // t_u after device scaling, incl. labelling.
  std::vector<double> stale_errors;
  std::vector<double> updated_errors;
};

// `estimator` must already be trained on the old table (the first
// `old_row_count` rows of `updated_table`). `test` is labelled against
// `updated_table`. The estimator is updated in place.
DynamicProfile ProfileDynamicUpdate(CardinalityEstimator& estimator,
                                    const Table& updated_table,
                                    size_t old_row_count,
                                    const Workload& test,
                                    const DynamicOptions& options);

// 99th percentile of the stale/updated error mixture for interval T.
// When the update does not finish within T the whole stream is answered by
// the stale model (the paper marks these cells with an "x").
double DynamicP99(const DynamicProfile& profile, double interval_seconds);

inline bool FinishedInTime(const DynamicProfile& profile,
                           double interval_seconds) {
  return profile.update_seconds < interval_seconds;
}

}  // namespace arecel

#endif  // ARECEL_CORE_DYNAMIC_H_
