#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace arecel {

namespace {

class WorkerPool {
 public:
  explicit WorkerPool(int workers) {
    std::lock_guard<std::mutex> lock(mu_);
    for (int i = 0; i < workers; ++i) StartWorkerLocked(nullptr);
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Queues `task` for up to `copies` workers that are idle and not already
  // spoken for. Work nobody is free to take stays with the caller instead
  // of piling up behind busy workers.
  void Offer(size_t copies, const std::function<void()>& task) {
    size_t queued = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const size_t spoken_for = urgent_.size() + helpers_.size();
      queued = std::min(copies, idle_ > spoken_for ? idle_ - spoken_for : 0);
      for (size_t i = 0; i < queued; ++i) helpers_.push_back(task);
    }
    for (size_t i = 0; i < queued; ++i) cv_.notify_one();
  }

  void Start(std::function<void()> task) {
    std::unique_lock<std::mutex> lock(mu_);
    // Each queued urgent task has an idle worker of its own: idle workers
    // take urgent tasks before helpers, and only a worker that took one
    // stops counting as idle.
    if (urgent_.size() < idle_) {
      urgent_.push_back(std::move(task));
      lock.unlock();
      cv_.notify_one();
      return;
    }
    StartWorkerLocked(std::move(task));
  }

 private:
  void StartWorkerLocked(std::function<void()> first) {
    workers_.emplace_back([this, first = std::move(first)]() mutable {
      if (first) {
        first();
        first = nullptr;
      }
      Loop();
    });
  }

  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      ++idle_;
      cv_.wait(lock, [this] { return !urgent_.empty() || !helpers_.empty(); });
      --idle_;
      std::deque<std::function<void()>>& from =
          urgent_.empty() ? helpers_ : urgent_;
      std::function<void()> task = std::move(from.front());
      from.pop_front();
      // A notify can land on a worker that then took a different entry;
      // pass the wake-up on so no queued entry is left with nobody awake.
      const bool more = !urgent_.empty() || !helpers_.empty();
      lock.unlock();
      if (more) cv_.notify_one();
      task();
      task = nullptr;  // release captured state before going idle.
      lock.lock();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> urgent_;   // StartOnWorker tasks.
  std::deque<std::function<void()>> helpers_;  // ParallelFor slice takers.
  size_t idle_ = 0;  // workers waiting on cv_.
  // Never joined: the pool lives until the process ends.
  std::vector<std::thread> workers_;
};

WorkerPool& Pool() {
  static WorkerPool* const pool = new WorkerPool(ParallelWorkerCount());
  return *pool;
}

// One ParallelForChunked call, shared by its caller and the helpers it
// queued. A helper that runs after the caller returned finds no slice left
// and touches nothing but this object, which its own shared_ptr keeps
// alive; `fn` (on the caller's stack) is only called for a claimed slice,
// and the caller waits for every claimed slice to finish.
struct SliceJob {
  const std::function<void(size_t, size_t)>* fn = nullptr;
  size_t begin = 0;
  size_t end = 0;
  size_t slice = 0;
  size_t slices = 0;
  std::atomic<size_t> next{0};

  std::mutex mu;
  std::condition_variable cv;
  size_t finished = 0;       // guarded by mu.
  std::exception_ptr error;  // first slice exception; guarded by mu.

  void RunSlices() {
    for (;;) {
      const size_t s = next.fetch_add(1, std::memory_order_relaxed);
      if (s >= slices) return;
      const size_t lo = begin + s * slice;
      std::exception_ptr thrown;
      try {
        (*fn)(lo, std::min(end, lo + slice));
      } catch (...) {
        thrown = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mu);
      if (thrown && !error) error = thrown;
      if (++finished == slices) cv.notify_all();
    }
  }
};

}  // namespace

int ParallelWorkerCount() {
  static const int count = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 16u));
  return count;
}

void ParallelForChunked(size_t begin, size_t end,
                        const std::function<void(size_t, size_t)>& fn) {
  if (begin >= end) return;
  const size_t n = end - begin;
  const size_t workers = static_cast<size_t>(ParallelWorkerCount());
  if (workers == 1 || n < 2) {
    fn(begin, end);
    return;
  }
  auto job = std::make_shared<SliceJob>();
  job->fn = &fn;
  job->begin = begin;
  job->end = end;
  job->slice = (n + workers - 1) / workers;
  job->slices = (n + job->slice - 1) / job->slice;
  Pool().Offer(job->slices - 1, [job] { job->RunSlices(); });
  job->RunSlices();
  std::unique_lock<std::mutex> lock(job->mu);
  job->cv.wait(lock, [&job] { return job->finished == job->slices; });
  if (job->error) std::rethrow_exception(job->error);
}

void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t)>& fn) {
  ParallelForChunked(begin, end, [&fn](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) fn(i);
  });
}

void StartOnWorker(std::function<void()> task) {
  Pool().Start(std::move(task));
}

void SerialQueue::Post(std::function<void()> task) {
  std::unique_lock<std::mutex> lock(mu_);
  tasks_.push_back(std::move(task));
  if (running_) return;
  running_ = true;
  lock.unlock();
  StartOnWorker([this] { RunAll(); });
}

void SerialQueue::RunAll() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!tasks_.empty()) {
    std::function<void()> task = std::move(tasks_.front());
    tasks_.pop_front();
    lock.unlock();
    task();
    task = nullptr;  // release captured state outside the lock.
    lock.lock();
  }
  running_ = false;
  // Under mu_, so a Drain that sees the queue idle cannot return, and its
  // caller destroy the queue, while this task still touches it.
  idle_cv_.notify_all();
}

void SerialQueue::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return !running_; });
}

}  // namespace arecel
