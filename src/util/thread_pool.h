#ifndef ARECEL_UTIL_THREAD_POOL_H_
#define ARECEL_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <functional>

namespace arecel {

// The process-wide worker pool: ParallelWorkerCount() persistent workers,
// started on first use and never destroyed, so no exit path ever joins a
// worker that may still be running abandoned work (robustness/guard.h).
// Every thread the library runs on behalf of a call comes from here; only
// the truth and maintenance workers keep dedicated loop threads.

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
// `task` must not throw. Used by the deadline guard and background model
// refreshes.
void StartOnWorker(std::function<void()> task);

}  // namespace arecel

#endif  // ARECEL_UTIL_THREAD_POOL_H_
