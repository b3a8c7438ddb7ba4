#ifndef ARECEL_TESTING_INVARIANTS_H_
#define ARECEL_TESTING_INVARIANTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "data/schema.h"
#include "data/table.h"
#include "workload/generator.h"

namespace arecel {

// Metamorphic invariant checkers — the behavioral contract every estimator
// in the registry must satisfy (within a per-estimator tolerance; the
// paper's §6.3 shows learned models fluctuate, so exactness is a profile,
// not a universal). Each checker runs a batch of trials against a trained
// estimator and reports violation counts, mirroring core/rules.h but with
// the conformance suite's pass/fail framing: rules.cc *measures* violation
// rates as a research result, these checkers *gate* merges.

// Slack applied before a trial counts as a violation. `relative` scales the
// reference estimate; `absolute` is in selectivity units.
struct InvariantTolerance {
  double relative = 1e-9;
  double absolute = 1e-9;
};

struct InvariantResult {
  std::string invariant;
  size_t trials = 0;
  size_t violations = 0;
  double worst = 0.0;    // largest observed excess, selectivity units.
  std::string detail;    // description of the first violation.
  bool skipped = false;  // invariant does not apply (e.g. no persistence).

  bool passed() const { return skipped || violations == 0; }
};

// Estimates for every probe are finite selectivities in [0, 1], and the
// derived cardinalities lie in [0, rows].
InvariantResult CheckSelectivityBounds(const CardinalityEstimator& estimator,
                                       const std::vector<Query>& probes,
                                       size_t rows);

// Tightening a query — shrinking one predicate's interval or appending a
// new conjunct — must not increase the estimate beyond tolerance.
InvariantResult CheckTighteningMonotonicity(
    const CardinalityEstimator& estimator, const Table& table, size_t trials,
    uint64_t seed, const InvariantTolerance& tolerance);

// Appending a predicate spanning a column's full domain must not move the
// estimate beyond tolerance.
InvariantResult CheckFullDomainNoOp(const CardinalityEstimator& estimator,
                                    const Table& table, size_t trials,
                                    uint64_t seed,
                                    const InvariantTolerance& tolerance);

// Training two fresh instances of `name` with the same seed and issuing the
// identical probe sequence must produce bit-identical estimates. (Stochastic
// inference like Naru's progressive sampling draws its seed from a
// per-instance counter, so aligned call sequences are deterministic.)
InvariantResult CheckDeterminism(const std::string& name, const Table& table,
                                 const Workload& train,
                                 const std::vector<Query>& probes,
                                 uint64_t seed);

// SerializeEstimatorBytes -> LoadEstimatorBytes into a fresh instance (the
// model store's codec, which ModelManager runs both ways)
// preserves the probe estimates bit-for-bit. Skipped (passed) for
// estimators without persistence support.
InvariantResult CheckSaveLoadRoundTrip(const std::string& name,
                                       const Table& table,
                                       const Workload& train,
                                       const std::vector<Query>& probes,
                                       uint64_t seed);

// ---- Join invariants (DESIGN.md §13) ----
//
// The two checkers below apply only to estimators whose SupportsJoins() is
// true (postgres-join, sampling-join, mscn-join); every other registry name
// reports skipped=true, which counts as passed — join capability is a
// capability, not an obligation, mirroring the feedback invariants.

// Join bounds: after TrainJoin over the star fixture, every join probe's
// selectivity is a finite value in [0, 1] and the derived cardinality lies
// in [0, product of participating table row counts].
InvariantResult CheckJoinSelectivityBounds(const std::string& name,
                                           const Schema& schema,
                                           const Workload& train,
                                           const std::vector<Query>& probes,
                                           uint64_t seed);

// Join determinism: two fresh instances trained via TrainJoin with the same
// seed must answer an identical join probe sequence bit-identically.
InvariantResult CheckJoinDeterminism(const std::string& name,
                                     const Schema& schema,
                                     const Workload& train,
                                     const std::vector<Query>& probes,
                                     uint64_t seed);

// ---- Feedback invariants (DESIGN.md §11) ----
//
// The three checkers below apply only to estimators implementing
// FeedbackSink (feedback-knn, feedback-corrected); every other registry
// name reports skipped=true, which counts as passed — adaptive behavior is
// a capability, not an obligation.

// Feedback monotonicity: repeatedly observing the exact truth for a query
// must drive that query's q-error toward 1. After kFeedbackRepeats truths
// the q-error must be <= max(kConvergedQError, its pre-feedback value).
inline constexpr int kFeedbackRepeats = 12;
inline constexpr double kConvergedQError = 1.5;
InvariantResult CheckFeedbackMonotonicity(const std::string& name,
                                          const Table& table,
                                          const Workload& train,
                                          size_t trials, uint64_t seed);

// Correction-never-worse: a prequential replay (estimate, then learn the
// truth, query by query) must not leave the median q-error more than 5%
// above the same estimator replaying without feedback.
InvariantResult CheckFeedbackReplayNotWorse(const std::string& name,
                                            const Table& table,
                                            const Workload& train,
                                            uint64_t seed);

// Convergence under the §5 dynamic protocol: after a 20% correlated append
// leaves the model stale (no Update call), feeding executed truths over the
// updated table must bring the median q-error on those queries back down —
// at worst 5% above the stale median, in practice far below it.
InvariantResult CheckFeedbackDynamicConvergence(const std::string& name,
                                                const Table& table,
                                                const Workload& train,
                                                uint64_t seed);

}  // namespace arecel

#endif  // ARECEL_TESTING_INVARIANTS_H_
