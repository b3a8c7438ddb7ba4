#include "feedback/truth_worker.h"

#include <memory>
#include <utility>

#include "workload/query.h"

namespace arecel::feedback {

TruthWorker::TruthWorker(Callback callback, size_t queue_capacity)
    : callback_(std::move(callback)),
      queue_capacity_(queue_capacity == 0 ? 1 : queue_capacity) {
  thread_ = std::thread([this] { Loop(); });
}

TruthWorker::~TruthWorker() { Stop(); }

bool TruthWorker::Enqueue(TruthJob job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ || queue_.size() >= queue_capacity_) {
      ++stats_.dropped;
      return false;
    }
    queue_.push_back(std::move(job));
    ++stats_.enqueued;
  }
  work_cv_.notify_one();
  return true;
}

void TruthWorker::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] {
    return (queue_.empty() && !in_flight_) || stopping_;
  });
}

void TruthWorker::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      // Already stopped; the thread may even be joined.
    }
    stopping_ = true;
  }
  work_cv_.notify_all();
  idle_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

TruthWorkerStats TruthWorker::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  TruthWorkerStats stats = stats_;
  stats.pending = queue_.size() + (in_flight_ ? 1 : 0);
  return stats;
}

void TruthWorker::Loop() {
  for (;;) {
    TruthJob job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;
      job = std::move(queue_.front());
      queue_.pop_front();
      in_flight_ = true;
    }
    // A fresh scanner per job: building one costs O(domain).
    const double truth = job.snapshot == nullptr
                             ? 0.0
                             : ExecuteSelectivity(*job.snapshot, job.query);
    if (callback_) callback_(job, truth);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      in_flight_ = false;
      ++stats_.completed;
    }
    idle_cv_.notify_all();
  }
}

}  // namespace arecel::feedback
