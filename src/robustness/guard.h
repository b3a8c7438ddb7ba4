#ifndef ARECEL_ROBUSTNESS_GUARD_H_
#define ARECEL_ROBUSTNESS_GUARD_H_

#include <functional>
#include <memory>
#include <string>

#include "robustness/failure.h"
#include "util/cancellation.h"

namespace arecel::robust {

// Outcome of one guarded stage (a Train() call, a whole estimate sweep, or
// a generic bench cell body).
struct GuardResult {
  FailureKind kind = FailureKind::kNone;  // kNone on success.
  std::string detail;
  double elapsed_seconds = 0.0;

  bool ok() const { return kind == FailureKind::kNone; }
};

// What to report when the stage times out / throws, respectively — lets one
// runner serve train, estimate, and generic cells.
struct GuardKinds {
  FailureKind on_timeout = FailureKind::kCellTimeout;
  FailureKind on_throw = FailureKind::kCellThrew;
  FailureKind on_cancel = FailureKind::kTrainCancelled;
};

// Runs `work` on a pool worker (StartOnWorker, util/thread_pool.h: it
// starts at once, never queued behind other work) and waits at most
// `deadline_seconds` (<= 0 disables the deadline and runs inline, so the
// zero-risk configuration costs no hand-off). Exceptions never escape: a
// CancelledError maps to kinds.on_cancel, anything else to kinds.on_throw.
//
// On deadline expiry the guard signals `cancel` (when provided) so
// cooperative work can exit, waits a short grace period for it, and then
// ABANDONS the worker: it keeps running against the state captured in
// `work` and `keep_alive` until it eventually returns, at which point that
// state is released and the worker rejoins the pool. Callers must
// therefore:
//  (a) give the closure shared ownership of everything it touches — capture
//      by value or by shared_ptr (or bundle it into `keep_alive`). The only
//      permissible by-reference captures are objects guaranteed to stay
//      alive until the process ends, e.g. main-scope data in a bench driver
//      whose exit path goes through SweepContext/CellGuard::Finish (which
//      ends the process without teardown while workers are abandoned —
//      see AbandonedWorkerCount). Loop-scoped locals and call-site
//      temporaries must NEVER be captured by reference.
//  (b) never reuse an object whose stage timed out — the robust runner
//      discards the estimator and builds a fresh one instead.
// This is the standard leak-on-hang contract of watchdog harnesses: a hung
// cell costs one worker and its model, not the whole figure binary. The
// pool is never destroyed, so nothing ever joins a hung worker.
GuardResult RunGuarded(std::function<void()> work, double deadline_seconds,
                       const GuardKinds& kinds,
                       CancellationToken* cancel = nullptr,
                       std::shared_ptr<void> keep_alive = nullptr,
                       double cancel_grace_seconds = 0.25);

// Number of abandoned workers that are still running guarded work in this
// process (incremented when a deadline abandons a worker, decremented when
// that worker eventually finishes). While this is nonzero, process teardown
// (destructors of globals or of main's locals) would run under live
// workers; shutdown paths that observed failures should end the process
// without teardown instead (std::_Exit) — SweepContext/CellGuard::Finish
// do exactly that.
int AbandonedWorkerCount();

}  // namespace arecel::robust

#endif  // ARECEL_ROBUSTNESS_GUARD_H_
