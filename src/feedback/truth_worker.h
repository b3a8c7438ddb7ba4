#ifndef ARECEL_FEEDBACK_TRUTH_WORKER_H_
#define ARECEL_FEEDBACK_TRUTH_WORKER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "data/table.h"
#include "util/thread_pool.h"
#include "workload/query.h"

namespace arecel::feedback {

// One executed query awaiting its exact ground truth. The job carries a
// shared snapshot of the table it ran against plus the data version the
// estimate was served under, so a concurrent append-update cannot make the
// worker label a query against the wrong data: the truth is computed on the
// captured snapshot and tagged with the captured version, and the following
// version-bump invalidation drops it if it raced.
struct TruthJob {
  std::string dataset;
  std::string estimator;
  Query query;
  double base_selectivity = 0.0;  // what the estimator answered.
  std::shared_ptr<const Table> snapshot;
  uint64_t version = 0;
  bool from_cache_hit = false;  // satellite: cached answers still learn.

  // When set, the hub delivers the labeled truth here INSTEAD of learning a
  // residual: the serving layer binds this to FeedbackSink::ObserveTruth for
  // estimators that adapt in-model (feedback-knn, feedback-corrected), so a
  // self-correcting model is never double-corrected by the hub.
  std::function<void(const TruthJob&, double truth)> deliver;
};

struct TruthWorkerStats {
  uint64_t enqueued = 0;
  uint64_t completed = 0;
  uint64_t dropped = 0;  // queue-full rejections (feedback is best-effort).
  uint64_t pending = 0;  // queued but not yet executed.
};

// Asynchronous ground-truth labeler: jobs run one at a time on the shared
// worker pool (a SerialQueue, util/thread_pool.h), each computing the exact
// selectivity via the block-scan engine (ExecuteSelectivity) and
// handing (job, truth) to the callback — which is where the hub folds the
// observation into its online models. One at a time by design: truth scans
// are cheap but not free, and feedback is a best-effort side channel that
// must hold at most one pool worker, never contending with serving
// dispatch. The queue is bounded; when full, new jobs are dropped and
// counted.
class TruthWorker {
 public:
  using Callback = std::function<void(const TruthJob&, double truth)>;

  explicit TruthWorker(Callback callback, size_t queue_capacity = 1024);
  ~TruthWorker();  // Stop().

  TruthWorker(const TruthWorker&) = delete;
  TruthWorker& operator=(const TruthWorker&) = delete;

  // False when the queue is full or the worker is stopped (job dropped).
  bool Enqueue(TruthJob job);

  // Blocks until every job enqueued so far has been executed and its
  // callback returned. Tests and benches use this to make the asynchronous
  // loop deterministic: enqueue, Drain(), assert.
  void Drain();

  // Waits for the job being labelled; queued jobs and further Enqueues are
  // dropped.
  void Stop();

  TruthWorkerStats Stats() const;

 private:
  void Label(const TruthJob& job);

  Callback callback_;
  const size_t queue_capacity_;

  mutable std::mutex mutex_;
  size_t queued_ = 0;  // enqueued, not yet started.
  bool in_flight_ = false;
  bool stopping_ = false;
  TruthWorkerStats stats_;

  SerialQueue jobs_;  // last member: drained before the state its jobs use.
};

}  // namespace arecel::feedback

#endif  // ARECEL_FEEDBACK_TRUTH_WORKER_H_
