#ifndef ARECEL_ROBUSTNESS_FAILURE_H_
#define ARECEL_ROBUSTNESS_FAILURE_H_

#include <string>
#include <vector>

namespace arecel {

// Structured failure taxonomy for the fault-tolerant benchmark harness.
// Every way an estimator can take down a sweep cell — hang, throw, emit
// garbage, refuse to persist — maps to exactly one kind, so failure
// accounting in EstimatorReport and the sweep journal is comparable across
// estimators and across runs (the framing of Han et al.'s benchmark and
// CardBench: a failed model is a *result*, not a crashed figure).
enum class FailureKind {
  kNone = 0,
  kTrainTimeout,       // Train() exceeded its wall-clock deadline.
  kTrainThrew,         // Train() raised an exception.
  kTrainCancelled,     // Train() was cancelled mid-flight (CancelledError).
  kEstimateTimeout,    // the estimate stage exceeded its deadline.
  kEstimateThrew,      // EstimateSelectivity() raised an exception.
  kNonFiniteEstimate,  // NaN/Inf or negative selectivity at the boundary.
  kPersistenceFailure, // model or journal save/load failed.
  kCorruptModel,       // persisted model bytes failed validation (truncated
                       // stream, checksum mismatch, impossible topology);
                       // the estimator instance that saw them is poisoned
                       // and must be discarded, never served or retried.
  kCellTimeout,        // a generic bench cell exceeded its deadline.
  kCellThrew,          // a generic bench cell raised an exception.
  kInvalidQuery,       // the server refused a query its model cannot
                       // answer (a join query, or a predicate column
                       // outside the model's table).
};

// Stable string form used in reports, bench FAILED rows, and journal
// records, e.g. "kTrainTimeout".
const char* FailureKindName(FailureKind kind);

// One accounted failure. A cell can accumulate several (each retry attempt
// logs its own record before the fallback takes over).
struct FailureRecord {
  FailureKind kind = FailureKind::kNone;
  std::string stage;     // "train", "estimate", "cell", "journal".
  int attempt = 0;       // 0-based training attempt that failed.
  std::string detail;    // exception message, deadline, invalid count, ...

  std::string ToString() const;
};

// Exception type for cooperative mid-train cancellation: the watchdog (or a
// FaultInjector schedule) asks training to stop, and a cooperative trainer
// surfaces it as this type so the harness can tell kTrainCancelled from an
// ordinary kTrainThrew.
class CancelledError : public std::exception {
 public:
  explicit CancelledError(std::string message) : message_(std::move(message)) {}
  const char* what() const noexcept override { return message_.c_str(); }

 private:
  std::string message_;
};

}  // namespace arecel

#endif  // ARECEL_ROBUSTNESS_FAILURE_H_
