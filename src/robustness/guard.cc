#include "robustness/guard.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/thread_pool.h"
#include "util/timer.h"

namespace arecel::robust {

namespace {

// Abandoned-and-still-running worker count; see AbandonedWorkerCount().
std::atomic<int> g_abandoned_workers{0};

// State shared between the caller and the (possibly abandoned) worker.
// Owned by shared_ptr from both sides so an abandoned worker can finish —
// or sleep forever — without dangling; the work closure and keep_alive
// bundle are released by whichever side drops the last reference.
struct SharedState {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool abandoned = false;  // set by the guard when the deadline gives up.
  bool threw = false;
  bool cancelled = false;
  std::string error;
  std::function<void()> work;
  std::shared_ptr<void> keep_alive;
};

GuardResult RunInline(const std::function<void()>& work,
                      const GuardKinds& kinds) {
  GuardResult result;
  Timer timer;
  try {
    work();
  } catch (const CancelledError& e) {
    result.kind = kinds.on_cancel;
    result.detail = e.what();
  } catch (const std::exception& e) {
    result.kind = kinds.on_throw;
    result.detail = e.what();
  } catch (...) {
    result.kind = kinds.on_throw;
    result.detail = "non-standard exception";
  }
  result.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace

GuardResult RunGuarded(std::function<void()> work, double deadline_seconds,
                       const GuardKinds& kinds, CancellationToken* cancel,
                       std::shared_ptr<void> keep_alive,
                       double cancel_grace_seconds) {
  if (deadline_seconds <= 0.0) return RunInline(work, kinds);

  auto state = std::make_shared<SharedState>();
  state->work = std::move(work);
  state->keep_alive = std::move(keep_alive);

  StartOnWorker([state] {
    bool threw = false;
    bool cancelled = false;
    std::string error;
    try {
      state->work();
    } catch (const CancelledError& e) {
      cancelled = true;
      error = e.what();
    } catch (const std::exception& e) {
      threw = true;
      error = e.what();
    } catch (...) {
      threw = true;
      error = "non-standard exception";
    }
    bool was_abandoned = false;
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->done = true;
      state->threw = threw;
      state->cancelled = cancelled;
      state->error = std::move(error);
      was_abandoned = state->abandoned;
    }
    if (was_abandoned)
      g_abandoned_workers.fetch_sub(1, std::memory_order_relaxed);
    state->cv.notify_all();
  });

  Timer timer;
  GuardResult result;
  std::unique_lock<std::mutex> lock(state->mu);
  const auto deadline = std::chrono::duration<double>(deadline_seconds);
  if (!state->cv.wait_for(lock, deadline, [&] { return state->done; })) {
    // Deadline passed: ask cooperative work to stop and give it a grace
    // window before abandoning the worker for good.
    if (cancel != nullptr) {
      cancel->Cancel();
      state->cv.wait_for(lock,
                         std::chrono::duration<double>(cancel_grace_seconds),
                         [&] { return state->done; });
    }
    if (!state->done) {
      // Abandoned: the pool worker still holds a shared_ptr to `state`, so
      // everything the closure references stays alive until it returns.
      // Register it so shutdown paths know teardown is unsafe.
      state->abandoned = true;
      g_abandoned_workers.fetch_add(1, std::memory_order_relaxed);
      result.kind = kinds.on_timeout;
      result.detail =
          "deadline " + std::to_string(deadline_seconds) + "s exceeded";
      result.elapsed_seconds = timer.ElapsedSeconds();
      return result;
    }
    // Finished inside the grace window — it honoured the cancel, so the
    // stage is still a deadline failure (the work is incomplete), but a
    // cooperative one.
    result.kind = state->cancelled ? kinds.on_cancel : kinds.on_timeout;
    result.detail = "cancelled after deadline " +
                    std::to_string(deadline_seconds) + "s";
    result.elapsed_seconds = timer.ElapsedSeconds();
    return result;
  }

  result.elapsed_seconds = timer.ElapsedSeconds();
  if (state->cancelled) {
    result.kind = kinds.on_cancel;
    result.detail = state->error;
  } else if (state->threw) {
    result.kind = kinds.on_throw;
    result.detail = state->error;
  }
  return result;
}

int AbandonedWorkerCount() {
  return g_abandoned_workers.load(std::memory_order_relaxed);
}

}  // namespace arecel::robust
