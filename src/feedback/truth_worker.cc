#include "feedback/truth_worker.h"

#include <memory>
#include <utility>

#include "scan/block_scan.h"

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
  // Consecutive jobs usually label queries against the same table snapshot
  // (a version bump swaps in a new shared_ptr), so the worker keeps one
  // scanner alive per snapshot and builds the snapshot's code-count
  // prefixes once for the whole run of jobs. Holding `cached_snapshot`
  // keeps the table the scanner points into alive.
  std::shared_ptr<const Table> cached_snapshot;
  std::unique_ptr<scan::BlockScanner> scanner;
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
    double truth = 0.0;
    if (job.snapshot != nullptr) {
      if (job.snapshot != cached_snapshot) {
        cached_snapshot = job.snapshot;
        scanner = std::make_unique<scan::BlockScanner>(*cached_snapshot);
      }
      truth = scanner->Selectivity(job.query);
    }
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
