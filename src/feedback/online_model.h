#ifndef ARECEL_FEEDBACK_ONLINE_MODEL_H_
#define ARECEL_FEEDBACK_ONLINE_MODEL_H_

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/table.h"
#include "util/archive.h"
#include "workload/query.h"

namespace arecel::feedback {

// AQO-style online feedback store (DESIGN.md §11).
//
// Executed queries feed their exact selectivities back into per-subspace
// online models, mirroring PostgreSQL AQO's `fss_hash -> online kNN`
// machinery: a query's *feature subspace* is the canonical set of
// (column, predicate-kind) pairs it touches, and within one subspace the
// store keeps a bounded ring of (feature vector, target) observations plus
// an exponential moving average of the targets. Prediction is a
// distance-weighted k-nearest-neighbour average blended with the EMA, so a
// subspace that keeps seeing the same truth converges to it while old
// observations decay away.
//
// Targets are caller-defined log-space values: the standalone feedback-knn
// estimator stores log(truth selectivity); the correction decorator stores
// the residual log(truth / base estimate). The store itself is agnostic.
//
// Determinism: the store draws no randomness. Ties in neighbour distance
// break by insertion sequence, so two instances fed the identical
// observation/prediction call sequence return bit-identical values — the
// conformance determinism invariant holds by construction.
//
// Memory bound: at most `max_subspaces` live subspaces (least recently
// *observed* evicted first) x `max_entries_per_subspace` ring slots each;
// SizeBytes() reports the resident footprint against the serving budget.
//
// Thread safety: every public method locks the one internal mutex, so
// concurrent Learn (Observe) and Estimate (Predict) calls from the serving
// threads and the truth worker are safe.

struct FeedbackOptions {
  // Neighbours consulted per prediction (AQO's aqo_k).
  size_t neighbors = 3;

  // Ring capacity per subspace (AQO's aqo_K): the newest observation
  // overwrites the oldest once full.
  size_t max_entries_per_subspace = 32;

  // Cap on distinct live subspaces; least-recently-observed is dropped.
  size_t max_subspaces = 4096;

  // EMA smoothing for the per-subspace moving residual:
  //   ema' = decay * target + (1 - decay) * ema.
  double decay = 0.3;

  // Prediction blend ceiling: (1 - b) * knn + b * ema with
  // b = ema_blend * min(1, nearest_distance / trust_radius), so an exact
  // repeat answers from its own remembered truth and the subspace-wide EMA
  // (which lets evicted-but-recent history keep influencing predictions)
  // only asserts itself toward the trust-radius edge.
  double ema_blend = 0.25;

  // Targets are clamped to [-max_abs_target, +max_abs_target] (log units)
  // so one pathological observation cannot blow up later corrections.
  double max_abs_target = 12.0;

  // Predict() answers only when the nearest remembered observation lies
  // within this L2 feature distance (features are normalized to [0, 1] per
  // bound). Beyond it the store reports "never observed" and the caller
  // falls back — which is what makes the correction decorator safe: a
  // residual learned far away in the subspace is not applied.
  double trust_radius = 0.3;
};

// Per-column normalization metadata captured from a table snapshot (schema
// is append-stable, so one bind per dataset version suffices).
struct ColumnSpan {
  double lo = 0.0;
  double hi = 1.0;
  bool categorical = false;
};

struct FeedbackModelStats {
  size_t subspaces = 0;
  size_t entries = 0;
  uint64_t observed = 0;
  uint64_t predictions = 0;        // Predict calls that found a subspace.
  uint64_t misses = 0;             // Predict calls with no learned subspace.
  uint64_t evicted_entries = 0;    // ring overwrites.
  uint64_t evicted_subspaces = 0;  // LRU subspace drops.
  uint64_t invalidated = 0;        // entries dropped by version bumps.
};

class OnlineSubspaceModel {
 public:
  explicit OnlineSubspaceModel(FeedbackOptions options = {});

  // Captures per-column spans for feature normalization. Must be called
  // before Observe/Predict; re-binding after an append-update refreshes the
  // spans (existing entries were recorded under the old spans, which is why
  // version invalidation drops them first).
  void BindSchema(const Table& table);
  bool bound() const;

  // Canonical feature-subspace fingerprint of a query: predicates sorted by
  // column with an eq/range kind tag; predicates spanning a column's whole
  // bound domain are vacuous and excluded, so appending a full-domain
  // conjunct never moves a learned prediction. Exposed for tests.
  std::string SubspaceFingerprint(const Query& query) const;

  // Learns one executed-query truth. `target` is the caller's log-space
  // value; `version` tags the entry for append-update invalidation.
  void Observe(const Query& query, double target, uint64_t version);

  // Distance-weighted kNN + EMA blend for the query's subspace. Returns
  // false (and leaves *target untouched) when the subspace has never been
  // observed or every remembered observation lies beyond trust_radius.
  bool Predict(const Query& query, double* target) const;

  // Drops every entry recorded under a version < `min_version` (the §5.1
  // append-update bump): stale truths must not correct fresh models. A
  // subspace losing all entries is removed; a subspace losing some has its
  // EMA rebuilt from the survivors. Returns entries dropped.
  size_t InvalidateOlderThan(uint64_t min_version);

  void Clear();

  FeedbackModelStats Stats() const;
  size_t SizeBytes() const;
  const FeedbackOptions& options() const { return options_; }

  // Persistence (spans + subspace rings + EMAs), bit-exact round-trip.
  bool Serialize(ByteWriter* writer) const;
  bool Deserialize(ByteReader* reader);

 private:
  struct Entry {
    std::vector<double> features;
    double target = 0.0;
    uint64_t version = 0;
    uint64_t seq = 0;  // global insertion order; deterministic tie-break.
  };

  struct Subspace {
    std::vector<Entry> ring;  // bounded by max_entries_per_subspace.
    size_t next = 0;          // ring cursor.
    double ema = 0.0;
    bool ema_valid = false;
    uint64_t last_touch = 0;  // for LRU eviction across subspaces.
  };

  std::string FingerprintLocked(const Query& query) const;
  std::vector<double> Features(const Query& query) const;
  bool VacuousPredicate(const Predicate& p) const;
  void EvictSubspacesLocked();

  FeedbackOptions options_;

  mutable std::mutex mutex_;
  std::vector<ColumnSpan> spans_;
  // Ordered map: Serialize walks it in key order, so persisted bytes are
  // independent of hashing.
  std::map<std::string, Subspace> subspaces_;
  uint64_t seq_ = 0;
  mutable FeedbackModelStats stats_;
};

// Floor used when mapping selectivities into log space (and on both sides
// of a residual ratio): half a tuple, so a truth of zero stays finite.
double SelectivityFloor(size_t rows);

}  // namespace arecel::feedback

#endif  // ARECEL_FEEDBACK_ONLINE_MODEL_H_
