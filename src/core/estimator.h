#ifndef ARECEL_CORE_ESTIMATOR_H_
#define ARECEL_CORE_ESTIMATOR_H_

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "data/schema.h"
#include "data/table.h"
#include "util/archive.h"
#include "util/cancellation.h"
#include "workload/generator.h"
#include "workload/query.h"

namespace arecel {

// What an estimator may consume at training time. Data-driven methods (Naru,
// DeepDB, histograms, sampling, Bayes) read only `table` (or the schema, for
// TrainJoin); query-driven methods (MSCN, LW-NN/XGB, QuickSel, KDE-FB)
// additionally read the labelled `training_workload`, exactly as in the
// paper's setup (§3).
struct TrainContext {
  // Labelled queries for query-driven methods; may be empty for data-driven
  // ones. Selectivities are ground truth over the training table, or the
  // Cartesian-product ground truth over the schema for TrainJoin.
  const Workload* training_workload = nullptr;

  // Size budget as a fraction of the raw data size (the paper uses 1.5%).
  double size_budget_fraction = 0.015;

  // Seed forwarded to any stochastic training component.
  uint64_t seed = 42;

  // Cooperative cancellation, set by the robustness watchdog when the
  // training deadline passes (src/robustness/guard.h). Iterative trainers
  // should poll it between epochs and exit early; the partially trained
  // model is discarded by the harness either way. May be null.
  const CancellationToken* cancellation = nullptr;
};

// Context for a §5 dynamic-environment model update after data was appended
// to the table.
struct UpdateContext {
  // Number of rows the estimator was previously trained on; rows at index
  // >= old_row_count are new.
  size_t old_row_count = 0;

  // Refreshed labelled queries for query-driven methods (labels recomputed
  // over the updated table, possibly approximately via a sample — the
  // harness accounts for that labelling time separately).
  const Workload* update_workload = nullptr;

  // Number of passes for iteratively trained models (the paper updates Naru
  // with 1 epoch by default; Figure 7 sweeps this).
  int epochs = 1;

  uint64_t seed = 43;
};

// Common interface of all thirteen estimators in the study.
//
// Estimates are *selectivities* in [0, 1]; callers convert to cardinalities.
// Train() must be called before EstimateSelectivity(). Update() retrains or
// incrementally refreshes the model over the updated table.
class CardinalityEstimator {
 public:
  virtual ~CardinalityEstimator() = default;

  virtual std::string Name() const = 0;

  virtual void Train(const Table& table, const TrainContext& context) = 0;

  // Selectivity of `query` in [0, 1]. Every estimator answers queries that
  // name no tables; join queries reach only estimators whose
  // SupportsJoins() is true.
  virtual double EstimateSelectivity(const Query& query) const = 0;

  // Default update: full retrain with the update workload as training data.
  virtual void Update(const Table& table, const UpdateContext& context);

  // Approximate model size in bytes (reported against the 1.5% budget).
  virtual size_t SizeBytes() const = 0;

  // True for methods that require a labelled workload to train.
  virtual bool IsQueryDriven() const { return false; }

  // True when EstimateSelectivity on a trained model is a pure read, safe
  // to call concurrently from many threads. Estimators whose inference
  // draws fresh randomness from a mutable per-instance counter (naru,
  // bayes, dqm-d) or memoizes internally (guarded) override this to false;
  // the serving layer (src/serve/) serializes their dispatch instead of
  // fanning it out.
  virtual bool ThreadSafeEstimates() const { return true; }

  // Builds the int8 inference-weight form (ml/packed.h) the quant backend
  // serves from, for estimators with a neural backbone; a no-op for
  // everything else.
  // Called by the serving layer (ModelManager) after a cold load or refresh,
  // before the model is published — never during training, so training
  // numerics and goldens are unaffected. Must not run concurrently with
  // EstimateSelectivity; Train/Update/DeserializeModel drop the packs.
  virtual void PackForServing() {}

  // Optional model persistence (core/model_io.h): estimators that support
  // it can be trained once and served from the model store (src/store/) by
  // another process. Defaults report "unsupported".
  virtual bool SerializeModel(ByteWriter* writer) const {
    (void)writer;
    return false;
  }
  virtual bool DeserializeModel(ByteReader* reader) {
    (void)reader;
    return false;
  }

  // ---- Join capability (DESIGN.md §13) ---------------------------------
  //
  // Join-capable estimators (postgres-join, sampling-join, mscn-join)
  // override both members below and answer join queries through
  // EstimateSelectivity; everything else keeps the defaults and is skipped
  // by join sweeps via the SupportsJoins() probe, mirroring how
  // SupportsPersistence gates the model-store sweeps.

  // True when TrainJoin is implemented and EstimateSelectivity answers
  // join queries.
  virtual bool SupportsJoins() const { return false; }

  // Trains over a multi-table schema; the training workload holds join
  // queries. Only valid when SupportsJoins().
  virtual void TrainJoin(const Schema& schema, const TrainContext& context);

  // Estimated cardinality against `rows` rows — the table's row count, or
  // the Cartesian-product denominator (join::JoinExecutor::RowsProduct) of
  // a join query — clamped to [0, rows].
  double EstimateCardinality(const Query& query, double rows) const;
};

// Optional capability: estimators that learn from executed-query feedback
// (the src/feedback/ loop) additionally implement this interface. The truth
// worker dynamic_casts a served estimator to FeedbackSink and, when present,
// feeds it the exact selectivity of each answered query. Implementations
// must tolerate concurrent ObserveTruth / EstimateSelectivity calls.
class FeedbackSink {
 public:
  virtual ~FeedbackSink() = default;

  // One executed-query ground truth: `truth_selectivity` is the exact
  // selectivity of `query` over the data version the estimator currently
  // serves.
  virtual void ObserveTruth(const Query& query, double truth_selectivity) = 0;
};

// Sentinel q-error for undefined inputs (NaN or infinite cardinalities):
// the worst representable error, so aggregates surface the breakage instead
// of masking it.
inline constexpr double kInvalidQError =
    std::numeric_limits<double>::infinity();

// q-error of an estimate: max(est, act) / min(est, act) with both sides
// clamped to at least one tuple, as in the paper's released benchmark code.
// Negative inputs clamp to one tuple like zero does; a NaN or infinite input
// on either side returns kInvalidQError.
double QError(double estimated_cardinality, double actual_cardinality);

// q-errors of an estimator across a labelled workload, on a table with
// `rows` rows.
std::vector<double> EvaluateQErrors(const CardinalityEstimator& estimator,
                                    const Workload& workload, size_t rows);

}  // namespace arecel

#endif  // ARECEL_CORE_ESTIMATOR_H_
