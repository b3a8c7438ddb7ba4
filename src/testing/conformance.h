#ifndef ARECEL_TESTING_CONFORMANCE_H_
#define ARECEL_TESTING_CONFORMANCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/schema.h"
#include "data/table.h"
#include "testing/invariants.h"
#include "workload/generator.h"

namespace arecel {

// The estimator conformance suite: every name in AllRegistryNames() is run
// against the same pinned fixture and the full set of metamorphic
// invariants (bounds, tightening monotonicity, full-domain no-op,
// fixed-seed determinism, save/load round-trip, the three feedback
// invariants — monotonicity under repeated truths, prequential
// replay-not-worse, dynamic convergence — which apply to FeedbackSink
// estimators and report skipped for the rest, plus the two join invariants
// — join-bounds and join-determinism — which apply to SupportsJoins()
// estimators the same way). This is the behavioral contract future perf
// PRs — batching, caching, sharding — must preserve;
// tests/conformance_test.cc turns each report into a tier-1 gate.

struct ConformanceOptions {
  uint64_t seed = 101;
  size_t rows = 4000;
  int num_cols = 4;
  int num_categorical = 2;
  size_t train_queries = 400;
  size_t probe_queries = 80;
  size_t metamorphic_trials = 40;
  // Star fixture for the join invariants (kept small: the fixture is built
  // once but the join-capable estimators train on it per invariant).
  size_t star_fact_rows = 2000;
  size_t star_dim_rows = 64;
  size_t join_train_queries = 120;
  size_t join_probe_queries = 30;
};

// The pinned inputs every estimator faces. Built once and shared so the
// comparison across estimators is apples-to-apples.
struct ConformanceFixture {
  Table table;
  Workload train;
  std::vector<Query> probes;
  // Pinned star-schema fixture for the join invariants.
  Schema star;
  Workload join_train;
  std::vector<Query> join_probes;
};

ConformanceFixture BuildConformanceFixture(const ConformanceOptions& options);

// Per-estimator tolerance profile for the metamorphic invariants. Exact
// statistics-based methods obey monotonicity to float precision; sampled
// and learned models fluctuate by design (the paper's §6.3 measures exactly
// this), so they get a frozen slack that conformance prevents from silently
// widening. Tightening this map over time is an explicit goal.
InvariantTolerance MonotonicityToleranceFor(const std::string& estimator);
InvariantTolerance NoOpToleranceFor(const std::string& estimator);

struct ConformanceReport {
  std::string estimator;
  std::vector<InvariantResult> results;

  bool passed() const;
  // Multi-line human-readable report: one line per invariant.
  std::string Summary() const;
};

ConformanceReport RunConformance(const std::string& estimator_name,
                                 const ConformanceFixture& fixture,
                                 const ConformanceOptions& options = {});

}  // namespace arecel

#endif  // ARECEL_TESTING_CONFORMANCE_H_
