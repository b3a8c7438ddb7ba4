#include "estimators/join/mscn_join.h"

#include <algorithm>
#include <cmath>

#include "estimators/join/join_support.h"
#include "ml/loss.h"
#include "ml/set_pool.h"
#include "util/check.h"
#include "util/random.h"

namespace arecel {

namespace {
// Same exponent clip as the single-table MSCN: q-error in log space
// explodes exponentially, so a badly initialized model must not produce
// inf gradients.
constexpr double kMaxLogDiff = 8.0;
}  // namespace

int MscnJoinEstimator::EdgeIndexOf(const JoinEdge& edge) const {
  for (size_t i = 0; i < edges_.size(); ++i) {
    const ForeignKey& fk = edges_[i];
    const bool forward = fk.table == edge.left_table &&
                         fk.column == edge.left_column &&
                         fk.ref_table == edge.right_table &&
                         fk.ref_column == edge.right_column;
    const bool reverse = fk.table == edge.right_table &&
                         fk.column == edge.right_column &&
                         fk.ref_table == edge.left_table &&
                         fk.ref_column == edge.left_column;
    if (forward || reverse) return static_cast<int>(i);
  }
  return -1;
}

Matrix MscnJoinEstimator::TableFeatures(
    const Query& query, const std::vector<const TableInfo*>& tables) const {
  // Row layout: [table one-hot | per-table sample bitmap].
  const size_t dim = tables_.size() + options_.sample_size;
  Matrix features(tables.size(), dim);
  for (size_t t = 0; t < tables.size(); ++t) {
    const TableInfo& info = *tables[t];
    float* row = features.Row(t);
    row[&info - tables_.data()] = 1.0f;
    for (size_t r = 0; r < info.sample_rows && r < options_.sample_size;
         ++r) {
      bool match = true;
      for (const Predicate& p : query.predicates) {
        if (static_cast<size_t>(p.table) != t) continue;
        const double v = info.sample[static_cast<size_t>(p.column)][r];
        if (v < p.lo || v > p.hi) {
          match = false;
          break;
        }
      }
      row[tables_.size() + r] = match ? 1.0f : 0.0f;
    }
  }
  return features;
}

Matrix MscnJoinEstimator::JoinFeatures(const Query& query) const {
  const size_t dim = std::max<size_t>(1, edges_.size());
  if (query.joins.empty()) {
    // Single-table query: one zero row keeps the pooling well-defined.
    return Matrix(1, dim);
  }
  Matrix features(query.joins.size(), dim);
  for (size_t j = 0; j < query.joins.size(); ++j) {
    const int e = EdgeIndexOf(query.joins[j]);
    ARECEL_CHECK_MSG(e >= 0, "join edge not in the trained schema");
    features.Row(j)[e] = 1.0f;
  }
  return features;
}

Matrix MscnJoinEstimator::PredicateFeatures(
    const Query& query, const std::vector<const TableInfo*>& tables) const {
  // Row layout per atom:
  // [(table, column) one-hot | is_eq, is_ge, is_le | normalized literal].
  struct Atom {
    size_t slot, op;
    float value;
  };
  std::vector<Atom> atoms;
  for (const Predicate& p : query.predicates) {
    const TableInfo* info = tables[static_cast<size_t>(p.table)];
    const size_t c = static_cast<size_t>(p.column);
    ARECEL_CHECK(c < info->col_min.size());
    const size_t slot = info->col_offset + c;
    const double span = std::max(info->col_max[c] - info->col_min[c], 1e-12);
    auto normalize = [&](double v) {
      return static_cast<float>(
          std::clamp((v - info->col_min[c]) / span, 0.0, 1.0));
    };
    if (p.is_equality()) {
      atoms.push_back({slot, 0, normalize(p.lo)});
      continue;
    }
    // Bounds at or beyond the column's trained domain are vacuous —
    // dropping their atoms makes a full-domain conjunct featurize
    // identically to its absence, so the full-domain-noop invariant
    // holds by construction (the sample bitmap is likewise unmoved).
    if (!std::isinf(p.lo) && p.lo > info->col_min[c])
      atoms.push_back({slot, 1, normalize(p.lo)});  // >= lo.
    if (!std::isinf(p.hi) && p.hi < info->col_max[c])
      atoms.push_back({slot, 2, normalize(p.hi)});  // <= hi.
  }
  // No atom: a single zero row keeps the pooling well-defined.
  Matrix features(std::max<size_t>(atoms.size(), 1), total_cols_ + 4);
  for (size_t i = 0; i < atoms.size(); ++i) {
    float* row = features.Row(i);
    row[atoms[i].slot] = 1.0f;
    row[total_cols_ + atoms[i].op] = 1.0f;
    row[total_cols_ + 3] = atoms[i].value;
  }
  return features;
}

float MscnJoinEstimator::Forward(const Matrix& table_rows,
                                 const Matrix& join_rows,
                                 const Matrix& pred_rows) const {
  const size_t h = options_.hidden_units;
  const Mlp* modules[] = {table_mlp_.get(), join_mlp_.get(), pred_mlp_.get()};
  const Matrix* inputs[] = {&table_rows, &join_rows, &pred_rows};
  Matrix concat(1, 3 * h), embed, out;
  for (size_t m = 0; m < 3; ++m) {
    modules[m]->Forward(*inputs[m], &embed);
    const size_t offsets[] = {0, embed.rows()};
    MeanPoolSets(embed, offsets, m * h, &concat);
  }
  out_mlp_->Forward(concat, &out);
  return out.At(0, 0);
}

void MscnJoinEstimator::TrainStep(const std::vector<Matrix> (&sets)[3],
                                  const std::vector<double>& labels,
                                  const size_t* batch, size_t count, float lr,
                                  double* loss_sum) {
  const size_t h = options_.hidden_units;
  Mlp* modules[] = {table_mlp_.get(), join_mlp_.get(), pred_mlp_.get()};
  SetBatch stacked[3];
  Matrix concat(count, 3 * h), embed, out;
  for (size_t m = 0; m < 3; ++m) {
    StackSets(sets[m], batch, count, &stacked[m]);
    modules[m]->ForwardTrain(stacked[m].rows, &embed);
    MeanPoolSets(embed, stacked[m].offsets, m * h, &concat);
  }
  out_mlp_->ForwardTrain(concat, &out);

  Matrix out_grad(count, 1);
  for (size_t b = 0; b < count; ++b) {
    const LossValueGrad loss =
        QErrorLoss(out.At(b, 0), labels[batch[b]], kMaxLogDiff);
    *loss_sum += loss.loss;
    out_grad.At(b, 0) =
        static_cast<float>(loss.dloss_dz / static_cast<double>(count));
  }
  // Fan the three concat segments back through their average pools.
  Matrix concat_grad, rows_grad;
  out_mlp_->Backward(out_grad, &concat_grad);
  for (size_t m = 0; m < 3; ++m) {
    MeanUnpoolSets(concat_grad, m * h, h, stacked[m].offsets, &rows_grad);
    modules[m]->Backward(rows_grad);
  }
  for (Mlp* module : modules) module->AdamStep(lr);
  out_mlp_->AdamStep(lr);
}

void MscnJoinEstimator::TrainJoin(const Schema& schema,
                                  const TrainContext& context) {
  ARECEL_CHECK_MSG(context.training_workload != nullptr &&
                       context.training_workload->size() > 0,
                   "mscn-join is query-driven and needs a labelled workload");
  // Freeze per-table metadata and materialized samples.
  tables_.clear();
  edges_ = schema.foreign_keys();
  total_cols_ = 0;
  for (const Table& table : schema.tables()) {
    TableInfo info;
    info.name = table.name();
    info.rows = table.num_rows();
    info.col_offset = total_cols_;
    info.col_min.resize(table.num_cols());
    info.col_max.resize(table.num_cols());
    for (size_t c = 0; c < table.num_cols(); ++c) {
      info.col_min[c] = table.num_rows() > 0 ? table.column(c).min() : 0.0;
      info.col_max[c] = table.num_rows() > 0 ? table.column(c).max() : 0.0;
    }
    info.sample_rows =
        std::min(table.num_rows(), options_.sample_size);
    const Table sample =
        table.num_rows() > 0
            ? table.SampleRows(info.sample_rows, context.seed + 99)
            : Table();
    info.sample.assign(table.num_cols(),
                       std::vector<double>(info.sample_rows));
    for (size_t c = 0; c < sample.num_cols(); ++c) {
      for (size_t r = 0; r < info.sample_rows; ++r) {
        info.sample[c][r] = sample.column(c).values[r];
      }
    }
    total_cols_ += table.num_cols();
    tables_.push_back(std::move(info));
  }
  FitWorkload(*context.training_workload, options_.epochs, context.seed,
              /*reuse_model=*/false);
}

void MscnJoinEstimator::FitWorkload(const Workload& workload, int epochs,
                                    uint64_t seed, bool reuse_model) {
  const size_t h = options_.hidden_units;
  const size_t table_dim = tables_.size() + options_.sample_size;
  const size_t join_dim = std::max<size_t>(1, edges_.size());
  const size_t pred_dim = total_cols_ + 4;
  if (!reuse_model || out_mlp_ == nullptr) {
    Rng init(seed);
    table_mlp_ = std::make_unique<Mlp>(std::vector<size_t>{table_dim, h, h},
                                       init);
    join_mlp_ =
        std::make_unique<Mlp>(std::vector<size_t>{join_dim, h, h}, init);
    pred_mlp_ =
        std::make_unique<Mlp>(std::vector<size_t>{pred_dim, h, h}, init);
    out_mlp_ =
        std::make_unique<Mlp>(std::vector<size_t>{3 * h, h, 1}, init);
  }

  const size_t n = workload.size();
  // Zero-result queries need a finite log label. Half a Cartesian-product
  // tuple (0.5 / prod rows) is the principled floor but sits 20+ log units
  // below every realistic selectivity on a star schema, so each zero query
  // would saturate the kMaxLogDiff clip and drag the whole model down.
  // Winsorize instead: floor at half the smallest *positive* training
  // selectivity, which keeps zero labels "just below everything observed"
  // while bounding the label range the optimizer must span.
  double min_positive = 1.0;
  bool any_positive = false;
  for (const double sel : workload.selectivities) {
    if (sel > 0.0) {
      min_positive = std::min(min_positive, sel);
      any_positive = true;
    }
  }
  std::vector<Matrix> sets[3];  // table, join and predicate sets.
  for (std::vector<Matrix>& module_sets : sets) module_sets.resize(n);
  std::vector<double> labels(n);
  for (size_t i = 0; i < n; ++i) {
    const Query& q = workload.queries[i];
    const std::vector<const TableInfo*> tables = ResolveQueryTables(q, tables_);
    sets[0][i] = TableFeatures(q, tables);
    sets[1][i] = JoinFeatures(q);
    sets[2][i] = PredicateFeatures(q, tables);
    double denom = 1.0;
    for (const TableInfo* info : tables)
      denom *= static_cast<double>(std::max<size_t>(1, info->rows));
    const double floor =
        std::max(0.5 / denom, any_positive ? 0.5 * min_positive : 0.0);
    labels[i] = std::log(std::max(workload.selectivities[i], floor));
  }

  Rng rng(seed + 1);
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;

  for (int epoch = 0; epoch < epochs; ++epoch) {
    // Stepped decay: full rate for the first half, then 1/2 and 1/4 — the
    // coarse-to-fine schedule that lets the long tail of epochs sharpen
    // the fit instead of bouncing around the minimum.
    const float lr = options_.learning_rate *
                     (epoch >= 3 * epochs / 4 ? 0.25f
                      : epoch >= epochs / 2  ? 0.5f
                                             : 1.0f);
    rng.Shuffle(order);
    double epoch_loss = 0.0;
    for (size_t start = 0; start < n; start += options_.batch_size) {
      const size_t count = std::min(n - start, options_.batch_size);
      TrainStep(sets, labels, &order[start], count, lr, &epoch_loss);
    }
    final_loss_ = epoch_loss / static_cast<double>(n);
  }
}

void MscnJoinEstimator::Train(const Table& table, const TrainContext& context) {
  TrainJoin(WrapSingleTable(table), context);
}

double MscnJoinEstimator::EstimateSelectivity(const Query& query) const {
  ARECEL_CHECK_MSG(out_mlp_ != nullptr, "Train() must run first");
  const std::vector<const TableInfo*> tables =
      ResolveQueryTables(query, tables_);
  const float z = Forward(TableFeatures(query, tables), JoinFeatures(query),
                          PredicateFeatures(query, tables));
  return std::clamp(std::exp(static_cast<double>(z)), 0.0, 1.0);
}

void MscnJoinEstimator::PackForServing() {
  for (Mlp* mlp :
       {table_mlp_.get(), join_mlp_.get(), pred_mlp_.get(), out_mlp_.get()}) {
    if (mlp != nullptr) mlp->PackForInference();
  }
}

void MscnJoinEstimator::SerializeWeights(ByteWriter* writer) const {
  ARECEL_CHECK_MSG(out_mlp_ != nullptr, "Train() must run first");
  for (const Mlp* mlp :
       {table_mlp_.get(), join_mlp_.get(), pred_mlp_.get(), out_mlp_.get()})
    SerializeMlp(*mlp, writer);
}

size_t MscnJoinEstimator::SizeBytes() const {
  size_t params = 0;
  if (out_mlp_ != nullptr) {
    params = table_mlp_->ParamCount() + join_mlp_->ParamCount() +
             pred_mlp_->ParamCount() + out_mlp_->ParamCount();
  }
  size_t samples = 0;
  for (const TableInfo& info : tables_) {
    samples += info.sample.size() * info.sample_rows * sizeof(double);
  }
  return params * sizeof(float) + samples;
}

std::unique_ptr<CardinalityEstimator> MakeMscnJoinEstimator() {
  return std::make_unique<MscnJoinEstimator>();
}

}  // namespace arecel
