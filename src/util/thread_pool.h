#ifndef ARECEL_UTIL_THREAD_POOL_H_
#define ARECEL_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>

namespace arecel {

// The process-wide worker pool: ParallelWorkerCount() persistent workers,
// started on first use and never destroyed, so no exit path ever joins a
// worker that may still be running abandoned work (robustness/guard.h).
// Every thread the library runs comes from here: ParallelFor slices, the
// deadline guard, background refreshes, and the SerialQueue drains behind
// store write-back and feedback truth labelling.

// ParallelFor(begin, end, fn) runs fn(i) for i in [begin, end) and blocks
// until every index has been processed. fn must be safe to call
// concurrently for distinct i. Used by the ground-truth executor, the ML
// kernels, join labelling and batched serving.
void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t)>& fn);

// Chunked variant: fn(chunk_begin, chunk_end) per contiguous slice, the
// range split into ParallelWorkerCount() equal slices (the last one
// shorter). The calling thread runs slices itself while idle workers take
// the rest, so a call finishes even when every worker is busy: nested calls
// and concurrent callers cannot deadlock. If slices throw, the others still
// run, and the first exception is rethrown here once all have finished.
void ParallelForChunked(size_t begin, size_t end,
                        const std::function<void(size_t, size_t)>& fn);

// Number of slices ParallelForChunked cuts a range into, and the pool's
// persistent worker count.
int ParallelWorkerCount();

// Runs `task` on a pool worker at once and returns without waiting for it.
// An idle worker takes it ahead of any queued ParallelFor slices; when none
// is idle the pool starts one more worker, which stays for reuse. A task
// therefore never waits behind other work, which is what lets a
// ParallelFor body block on it. A task that never returns keeps its worker.
// `task` must not throw. Used by the deadline guard, background model
// refreshes and SerialQueue.
void StartOnWorker(std::function<void()> task);

// Runs posted tasks one at a time, in post order, on a pool worker: a Post
// to an idle queue starts one drain task (StartOnWorker), which runs tasks
// until the queue is empty, so a queue holds at most one worker at a time.
// Tasks must not throw. The destructor drains, so a queue declared after
// the members its tasks use never outlives them.
class SerialQueue {
 public:
  SerialQueue() = default;
  ~SerialQueue() { Drain(); }

  SerialQueue(const SerialQueue&) = delete;
  SerialQueue& operator=(const SerialQueue&) = delete;

  void Post(std::function<void()> task);

  // Blocks until the queue is empty and its drain task is done with it.
  void Drain();

 private:
  void RunAll();

  std::mutex mu_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> tasks_;  // guarded by mu_.
  bool running_ = false;  // a drain task owns the queue; guarded by mu_.
};

}  // namespace arecel

#endif  // ARECEL_UTIL_THREAD_POOL_H_
