#ifndef ARECEL_ROBUSTNESS_FAULT_PLAN_H_
#define ARECEL_ROBUSTNESS_FAULT_PLAN_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <string>
#include <vector>

namespace arecel::robust {

// The fault-plan grammar of ARECEL_FAULT_INJECT, shared by every fault
// site: estimator calls (FaultInjector, robustness/fault_injector.h) and
// model-store filesystem operations (ModelStore, store/model_store.h).
// Specs are separated by `;` or `,` and come in two forms:
//
//   <estimator>:<stage>:<action>[:key=value...]
//       stage  train | estimate | serialize
//       action throw | cancel | hang | delay | nan | inf | negative | refuse
//       keys   after=N, times=N (default -1: forever), delay=SECONDS,
//              cap=SECONDS (kHang safety cap)
//       e.g. "naru:train:hang;lw-nn:train:throw:times=2"
//
//   store-<fault>[:key=value...]
//       store-torn-write   a gen-file write stops partway (header + a
//                          payload prefix land on disk, no footer) and
//                          still reports success: the crash-mid-write shape.
//       store-enospc       a write reports failure partway through (partial
//                          temp file left behind), as ENOSPC does.
//       store-rename-fail  the atomic rename step fails; the temp file
//                          stays, the committed state is unchanged.
//       store-bitflip      the write completes and commits, then one payload
//                          byte is flipped on disk: the bit-rot shape,
//                          caught by CRC on the next open.
//       keys   after=N, times=N (default 1: fire once)
//       e.g. "store-torn-write:after=1:times=1"
//
// Anything neither form knows is a parse error, so a typo'd injection never
// runs clean. One plan may mix both forms; each site fires only the specs
// of its own stages.

// Where a fault fires. The first three are estimator calls; the rest are
// the model store's filesystem operations (a store write is a gen record
// or a manifest, a rename publishes either, a commit is a finished Put).
enum class FaultStage {
  kTrain,
  kEstimate,
  kSerialize,
  kStoreWrite,
  kStoreRename,
  kStoreCommit,
};
inline constexpr size_t kFaultStageCount = 6;

// True for the stages a ModelStore fires.
inline bool IsStoreStage(FaultStage stage) {
  return stage >= FaultStage::kStoreWrite;
}

// What the fault does when it fires.
enum class FaultAction {
  kThrow,       // raise std::runtime_error.
  kCancel,      // raise CancelledError (mid-train cancellation).
  kHang,        // spin-sleep until cancelled (or a safety cap expires).
  kDelay,       // sleep delay_seconds, then proceed normally.
  kNan,         // estimate returns NaN.
  kInf,         // estimate returns +infinity.
  kNegative,    // estimate returns -0.5.
  kRefuse,      // SerializeModel reports failure.
  kTornWrite,   // store-torn-write (kStoreWrite).
  kEnospc,      // store-enospc (kStoreWrite).
  kRenameFail,  // store-rename-fail (kStoreRename).
  kBitflip,     // store-bitflip (kStoreCommit).
};

// One scheduled fault. It fires on calls at `stage` with index >=
// after_calls, at most `times` times (-1 = forever). Deterministic by
// construction — the schedule is the seed.
struct FaultSpec {
  std::string estimator;  // registry name ("" = all; always "" for store).
  FaultStage stage = FaultStage::kTrain;
  FaultAction action = FaultAction::kThrow;
  int after_calls = 0;
  int times = -1;
  double delay_seconds = 0.05;     // kDelay duration.
  double hang_cap_seconds = 60.0;  // kHang safety cap when never cancelled.
};

// Parses a plan in the grammar above. Returns false and sets `error` on a
// malformed spec. An empty string parses to an empty plan.
bool ParseFaultPlan(const std::string& text, std::vector<FaultSpec>* plan,
                    std::string* error);

// The plan from the ARECEL_FAULT_INJECT environment variable (empty when
// unset). Aborts with the parse error on a malformed value.
std::vector<FaultSpec> FaultPlanFromEnv();

// The armed form of a plan: per-stage call counters plus per-spec fire
// budgets. Thread-safe (all counters are atomics), so concurrent callers of
// one site share one schedule.
class FaultSchedule {
 public:
  explicit FaultSchedule(std::vector<FaultSpec> plan);

  // Counts one call at `stage` and returns the spec that fires on it: the
  // first one in plan order whose window admits this call's index and whose
  // budget is not spent (charging that budget). At most one spec fires per
  // call; nullptr when none does.
  const FaultSpec* Fire(FaultStage stage);

  // Calls counted at `stage` so far.
  int calls(FaultStage stage) const {
    return calls_[static_cast<size_t>(stage)].load();
  }

 private:
  std::vector<FaultSpec> plan_;
  // Sized once in the constructor, never resized (atomics are not movable).
  std::vector<std::atomic<int>> fired_;
  std::array<std::atomic<int>, kFaultStageCount> calls_{};
};

}  // namespace arecel::robust

#endif  // ARECEL_ROBUSTNESS_FAULT_PLAN_H_
