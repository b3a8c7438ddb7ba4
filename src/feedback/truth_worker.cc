#include "feedback/truth_worker.h"

#include <memory>
#include <utility>

#include "workload/query.h"

namespace arecel::feedback {

TruthWorker::TruthWorker(Callback callback, size_t queue_capacity)
    : callback_(std::move(callback)),
      queue_capacity_(queue_capacity == 0 ? 1 : queue_capacity) {}

TruthWorker::~TruthWorker() { Stop(); }

bool TruthWorker::Enqueue(TruthJob job) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_ || queued_ >= queue_capacity_) {
    ++stats_.dropped;
    return false;
  }
  ++queued_;
  ++stats_.enqueued;
  // Posted under mutex_, so no job is posted after Stop() drained.
  jobs_.Post([this, job = std::move(job)] { Label(job); });
  return true;
}

void TruthWorker::Drain() { jobs_.Drain(); }

void TruthWorker::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  jobs_.Drain();
}

TruthWorkerStats TruthWorker::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  TruthWorkerStats stats = stats_;
  stats.pending = queued_ + (in_flight_ ? 1 : 0);
  return stats;
}

void TruthWorker::Label(const TruthJob& job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --queued_;
    if (stopping_) return;
    in_flight_ = true;
  }
  // A fresh scanner per job: building one costs O(domain).
  const double truth = job.snapshot == nullptr
                           ? 0.0
                           : ExecuteSelectivity(*job.snapshot, job.query);
  if (callback_) callback_(job, truth);
  std::lock_guard<std::mutex> lock(mutex_);
  in_flight_ = false;
  ++stats_.completed;
}

}  // namespace arecel::feedback
