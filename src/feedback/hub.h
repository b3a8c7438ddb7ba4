#ifndef ARECEL_FEEDBACK_HUB_H_
#define ARECEL_FEEDBACK_HUB_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "feedback/online_model.h"
#include "feedback/truth_worker.h"

namespace arecel::feedback {

struct FeedbackHubStats {
  TruthWorkerStats worker;
  FeedbackModelStats models;        // aggregated over all residual models.
  uint64_t corrections_applied = 0; // Correct() calls that moved an estimate.
  uint64_t corrections_passthrough = 0;  // no learned subspace; base kept.
  uint64_t cache_hit_jobs = 0;      // truth jobs born from cache hits.
  uint64_t stale_truths = 0;        // dropped: served below the floor.
};

// The serving-side feedback loop: one residual OnlineSubspaceModel per
// (dataset, estimator) pair, fed asynchronously by a TruthWorker. The
// residual target is log(truth / base-estimate) with a half-tuple
// selectivity floor, so Correct() multiplies the base estimate by the
// learned exp(residual) — an estimator that keeps over-estimating a
// subspace gets pulled down toward the executed truth, per-subspace, like
// AQO's learn_sample over fss_hash spaces.
//
// Version discipline: truth jobs carry the data version their estimate was
// served under; InvalidateDataset(dataset, new_version) — called from the
// §5.1 append-update path — drops every entry learned under older versions
// and raises the dataset's invalidation floor, below which LearnTruth drops
// the truths a stale model's answers keep sending until its refresh lands,
// so stale truths never correct fresh models.
class FeedbackHub {
 public:
  explicit FeedbackHub(FeedbackOptions options = {});
  ~FeedbackHub();

  FeedbackHub(const FeedbackHub&) = delete;
  FeedbackHub& operator=(const FeedbackHub&) = delete;

  // Applies the learned residual for the query's subspace to
  // `base_selectivity`. Returns the base unchanged when nothing has been
  // learned for this (dataset, estimator, subspace) yet. `rows` sets the
  // half-tuple floor that keeps the log ratio finite.
  double Correct(const std::string& dataset, const std::string& estimator,
                 const Query& query, double base_selectivity,
                 size_t rows) const;

  // Queues an executed query for asynchronous exact labeling. Best-effort:
  // false means the queue was full and the job was dropped.
  bool EnqueueTruth(TruthJob job);

  // Folds one labeled truth into the residual model — the worker callback,
  // also callable directly for deterministic tests. Jobs with a `deliver`
  // override are handed off instead (see TruthJob); other jobs served below
  // their dataset's invalidation floor are dropped and counted.
  void LearnTruth(const TruthJob& job, double truth);

  // Drops feedback learned under data versions older than `min_version`
  // for every estimator serving `dataset`, and raises the dataset's
  // invalidation floor to `min_version`. Returns entries dropped.
  size_t InvalidateDataset(const std::string& dataset, uint64_t min_version);

  // Blocks until all queued truth jobs have been learned.
  void Drain();

  FeedbackHubStats Stats() const;
  size_t SizeBytes() const;
  const FeedbackOptions& options() const { return options_; }

 private:
  OnlineSubspaceModel* ModelForLocked(const std::string& dataset,
                                      const std::string& estimator,
                                      bool create) const;

  FeedbackOptions options_;

  // Also held across LearnTruth's floor check and learn, and across
  // InvalidateDataset's floor raise and sweep, so no truth lands between.
  mutable std::mutex mutex_;
  // Key: dataset + '\x1f' + estimator. Ordered so InvalidateDataset can walk
  // the dataset's contiguous key range.
  mutable std::map<std::string, std::unique_ptr<OnlineSubspaceModel>> models_;
  std::map<std::string, uint64_t> invalidated_to_;  // dataset -> floor.
  mutable uint64_t corrections_applied_ = 0;
  mutable uint64_t corrections_passthrough_ = 0;
  uint64_t cache_hit_jobs_ = 0;
  uint64_t stale_truths_ = 0;

  std::unique_ptr<TruthWorker> worker_;  // last member: stops before maps die.
};

}  // namespace arecel::feedback

#endif  // ARECEL_FEEDBACK_HUB_H_
