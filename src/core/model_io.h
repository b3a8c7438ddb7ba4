#ifndef ARECEL_CORE_MODEL_IO_H_
#define ARECEL_CORE_MODEL_IO_H_

#include <string>

#include "core/estimator.h"
#include "robustness/failure.h"

namespace arecel {

// Model persistence: serialize a trained estimator's fitted state to bytes
// and load them back into a freshly constructed estimator of the same kind
// — train once, serve the stored model elsewhere (the deployment path the
// paper's cost analysis presumes for the "production-plausible" methods).
// These bytes are the model store's payload (src/store/), the one place a
// model is written to or read from disk: ModelManager loads a stored
// generation through LoadEstimatorBytes and commits
// SerializeEstimatorBytes' output.
//
// Supported estimators implement SerializeModel/DeserializeModel:
// postgres / mysql / dbms-a (per-column statistics), sampling (the
// materialized sample), mhist (the bucket directory), lw-xgb (featurizer
// statistics + boosted trees), lw-nn (featurizer statistics + dense-layer
// weights), mscn (column ranges + materialized sample + the three module
// MLPs), naru (column binnings + the autoregressive backbone, both ResMADE
// and Transformer), feedback-knn / feedback-corrected (the online feedback
// store, plus the wrapped base model for the latter).

// True when `estimator` implements model persistence (probes SerializeModel
// with a counting writer — state is walked but nothing is buffered, so the
// check is cheap enough for per-request use in the serving layer). Call on
// a trained instance. The conformance suite uses this to decide whether the
// round-trip invariant applies or is reported as skipped.
bool SupportsPersistence(const CardinalityEstimator& estimator);

// Serializes `estimator` into its framed form (magic + version + name +
// payload). Returns false, leaving `bytes` untouched, when the estimator
// does not support persistence.
bool SerializeEstimatorBytes(const CardinalityEstimator& estimator,
                             std::string* bytes);

// Outcome of a typed load. kCorruptModel means the bytes failed validation
// — truncated stream, bad magic, impossible topology — and the estimator
// instance may hold PARTIALLY deserialized state: callers must discard the
// instance (build a fresh one) rather than serve or retrain it.
// kPersistenceFailure covers non-corruption refusals (estimator-kind
// mismatch).
struct ModelLoadResult {
  FailureKind kind = FailureKind::kNone;
  std::string detail;

  bool ok() const { return kind == FailureKind::kNone; }
};

// Loads SerializeEstimatorBytes' output into `estimator`, which must be a
// default-constructed instance of the same kind (same Name()).
ModelLoadResult LoadEstimatorBytes(CardinalityEstimator* estimator,
                                   const std::string& bytes);

}  // namespace arecel

#endif  // ARECEL_CORE_MODEL_IO_H_
