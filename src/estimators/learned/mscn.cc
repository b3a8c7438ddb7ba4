#include "estimators/learned/mscn.h"

#include <algorithm>
#include <cmath>

#include "data/io.h"
#include "ml/loss.h"
#include "ml/set_pool.h"
#include "util/check.h"
#include "util/random.h"

namespace arecel {

namespace {
// Q-error in log space explodes exponentially; clip the exponent so a badly
// initialized model cannot produce inf gradients.
constexpr double kMaxLogDiff = 8.0;
}  // namespace

Matrix MscnEstimator::PredicateFeatures(const Query& query) const {
  // Feature layout per atom: [column one-hot | is_eq, is_ge, is_le | value].
  size_t atoms = 0;
  for (const Predicate& p : query.predicates) {
    atoms += p.is_equality() ? 1
                             : static_cast<size_t>(!std::isinf(p.lo)) +
                                   static_cast<size_t>(!std::isinf(p.hi));
  }
  // No finite atom (e.g. a fully unbounded probe): a single zero row keeps
  // the pooling well-defined.
  Matrix features(std::max<size_t>(atoms, 1), num_cols_ + 4);
  size_t row = 0;
  auto add_atom = [&](size_t c, size_t op, double v) {
    const double span = std::max(col_max_[c] - col_min_[c], 1e-12);
    float* atom = features.Row(row++);
    atom[c] = 1.0f;
    atom[num_cols_ + op] = 1.0f;
    atom[num_cols_ + 3] =
        static_cast<float>(std::clamp((v - col_min_[c]) / span, 0.0, 1.0));
  };
  for (const Predicate& p : query.predicates) {
    const size_t c = static_cast<size_t>(p.column);
    if (p.is_equality()) {
      add_atom(c, 0, p.lo);
      continue;
    }
    if (!std::isinf(p.lo)) add_atom(c, 1, p.lo);  // >= lo.
    if (!std::isinf(p.hi)) add_atom(c, 2, p.hi);  // <= hi.
  }
  return features;
}

Matrix MscnEstimator::SampleBitmap(const Query& query) const {
  Matrix bitmap(1, options_.sample_size);
  if (!options_.use_sample_bitmap) return bitmap;
  const size_t rows = sample_.num_rows();
  for (size_t r = 0; r < rows && r < options_.sample_size; ++r) {
    bool match = true;
    for (const Predicate& p : query.predicates) {
      const double v = sample_.column(static_cast<size_t>(p.column)).values[r];
      if (v < p.lo || v > p.hi) {
        match = false;
        break;
      }
    }
    bitmap.At(0, r) = match ? 1.0f : 0.0f;
  }
  return bitmap;
}

float MscnEstimator::Forward(const Matrix& pred_features,
                             const Matrix& bitmap) const {
  const size_t h = options_.hidden_units;
  Matrix pred_embed, sample_embed, out;
  pred_mlp_->Forward(pred_features, &pred_embed);
  sample_mlp_->Forward(bitmap, &sample_embed);
  // Output module over [pooled predicate embedding | sample embedding].
  Matrix concat(1, 2 * h);
  const size_t offsets[] = {0, pred_embed.rows()};
  MeanPoolSets(pred_embed, offsets, 0, &concat);
  std::copy(sample_embed.Row(0), sample_embed.Row(0) + h, concat.Row(0) + h);
  out_mlp_->Forward(concat, &out);
  return out.At(0, 0);
}

void MscnEstimator::TrainStep(const std::vector<Matrix>& pred_sets,
                              const std::vector<Matrix>& bitmaps,
                              const std::vector<double>& labels,
                              const size_t* batch, size_t count,
                              double* loss_sum) {
  const size_t h = options_.hidden_units;
  SetBatch preds, samples;
  StackSets(pred_sets, batch, count, &preds);
  StackSets(bitmaps, batch, count, &samples);
  Matrix pred_embed, sample_embed, out;
  pred_mlp_->ForwardTrain(preds.rows, &pred_embed);
  sample_mlp_->ForwardTrain(samples.rows, &sample_embed);
  Matrix concat(count, 2 * h);
  MeanPoolSets(pred_embed, preds.offsets, 0, &concat);
  for (size_t b = 0; b < count; ++b)
    std::copy(sample_embed.Row(b), sample_embed.Row(b) + h,
              concat.Row(b) + h);
  out_mlp_->ForwardTrain(concat, &out);

  // Mean q-error loss (ml/loss.h): L = exp(|z - t|), clipped, averaged
  // over the batch.
  Matrix out_grad(count, 1);
  for (size_t b = 0; b < count; ++b) {
    const LossValueGrad loss =
        QErrorLoss(out.At(b, 0), labels[batch[b]], kMaxLogDiff);
    *loss_sum += loss.loss;
    out_grad.At(b, 0) =
        static_cast<float>(loss.dloss_dz / static_cast<double>(count));
  }

  // Backward: the first h concat columns go back through the pooling to
  // the predicate module, the last h to the sample module.
  Matrix concat_grad, sample_grad(count, h), pred_grad;
  out_mlp_->Backward(out_grad, &concat_grad);
  for (size_t b = 0; b < count; ++b)
    std::copy(concat_grad.Row(b) + h, concat_grad.Row(b) + 2 * h,
              sample_grad.Row(b));
  sample_mlp_->Backward(sample_grad);
  MeanUnpoolSets(concat_grad, 0, h, preds.offsets, &pred_grad);
  pred_mlp_->Backward(pred_grad);

  pred_mlp_->AdamStep(options_.learning_rate);
  sample_mlp_->AdamStep(options_.learning_rate);
  out_mlp_->AdamStep(options_.learning_rate);
}

void MscnEstimator::FitWorkload(const Table& table, const Workload& workload,
                                int epochs, uint64_t seed, bool reuse_model) {
  const size_t h = options_.hidden_units;
  num_cols_ = table.num_cols();
  col_min_.resize(num_cols_);
  col_max_.resize(num_cols_);
  for (size_t c = 0; c < num_cols_; ++c) {
    col_min_[c] = table.column(c).min();
    col_max_[c] = table.column(c).max();
  }
  // Refresh the materialized sample over the (possibly updated) table.
  sample_ = table.SampleRows(std::min(options_.sample_size, table.num_rows()),
                             seed + 99);
  trained_rows_ = table.num_rows();

  if (!reuse_model || pred_mlp_ == nullptr) {
    Rng init(seed);
    pred_mlp_ = std::make_unique<Mlp>(
        std::vector<size_t>{num_cols_ + 4, h, h}, init);
    sample_mlp_ = std::make_unique<Mlp>(
        std::vector<size_t>{options_.sample_size, h, h}, init);
    out_mlp_ = std::make_unique<Mlp>(std::vector<size_t>{2 * h, h, 1}, init);
  }

  const size_t n = workload.size();
  std::vector<Matrix> pred_sets(n), bitmaps(n);
  std::vector<double> labels(n);
  for (size_t i = 0; i < n; ++i) {
    pred_sets[i] = PredicateFeatures(workload.queries[i]);
    bitmaps[i] = SampleBitmap(workload.queries[i]);
    const double floor_sel = 0.5 / static_cast<double>(trained_rows_);
    labels[i] = std::log(std::max(workload.selectivities[i], floor_sel));
  }

  Rng rng(seed + 1);
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;

  for (int epoch = 0; epoch < epochs; ++epoch) {
    rng.Shuffle(order);
    double epoch_loss = 0.0;
    for (size_t start = 0; start < n; start += options_.batch_size) {
      const size_t count = std::min(n - start, options_.batch_size);
      TrainStep(pred_sets, bitmaps, labels, &order[start], count,
                &epoch_loss);
    }
    final_loss_ = epoch_loss / static_cast<double>(n);
  }
}

void MscnEstimator::Train(const Table& table, const TrainContext& context) {
  ARECEL_CHECK_MSG(context.training_workload != nullptr &&
                       context.training_workload->size() > 0,
                   "MSCN is query-driven and needs a labelled workload");
  FitWorkload(table, *context.training_workload, options_.epochs,
              context.seed, /*reuse_model=*/false);
}

void MscnEstimator::Update(const Table& table, const UpdateContext& context) {
  ARECEL_CHECK(context.update_workload != nullptr);
  const int epochs =
      context.epochs > 0 ? context.epochs : options_.update_epochs;
  FitWorkload(table, *context.update_workload, epochs, context.seed,
              /*reuse_model=*/true);
}

void MscnEstimator::PackForServing() {
  if (pred_mlp_ != nullptr) pred_mlp_->PackForInference();
  if (sample_mlp_ != nullptr) sample_mlp_->PackForInference();
  if (out_mlp_ != nullptr) out_mlp_->PackForInference();
}

double MscnEstimator::EstimateSelectivity(const Query& query) const {
  ARECEL_CHECK_MSG(out_mlp_ != nullptr, "Train() must run first");
  const float z = Forward(PredicateFeatures(query), SampleBitmap(query));
  return std::clamp(std::exp(static_cast<double>(z)), 0.0, 1.0);
}

bool MscnEstimator::SerializeModel(ByteWriter* writer) const {
  if (out_mlp_ == nullptr) return false;
  writer->U64(num_cols_);
  writer->Doubles(col_min_);
  writer->Doubles(col_max_);
  writer->U64(options_.hidden_units);
  writer->U64(options_.sample_size);
  writer->U32(options_.use_sample_bitmap ? 1u : 0u);
  writer->U64(trained_rows_);
  WriteTable(sample_, writer);
  SerializeMlp(*pred_mlp_, writer);
  SerializeMlp(*sample_mlp_, writer);
  SerializeMlp(*out_mlp_, writer);
  return true;
}

bool MscnEstimator::DeserializeModel(ByteReader* reader) {
  uint64_t cols = 0, hidden = 0, sample_size = 0, rows = 0;
  uint32_t use_bitmap = 0;
  std::vector<double> col_min, col_max;
  if (!reader->U64(&cols) || cols == 0 || cols > (1u << 16) ||
      !reader->Doubles(&col_min) || !reader->Doubles(&col_max) ||
      col_min.size() != cols || col_max.size() != cols ||
      !reader->U64(&hidden) || hidden == 0 || hidden > (1u << 20) ||
      !reader->U64(&sample_size) || sample_size == 0 ||
      sample_size > (1u << 24) || !reader->U32(&use_bitmap) ||
      !reader->U64(&rows)) {
    return false;
  }
  // Non-finite or inverted ranges would turn the normalized literals into
  // NaN (or clamp them all to one end).
  for (uint64_t c = 0; c < cols; ++c) {
    if (!std::isfinite(col_min[c]) || !std::isfinite(col_max[c]) ||
        col_min[c] > col_max[c]) {
      return false;
    }
  }

  Table sample;
  if (!ReadTable(reader, &sample) || sample.num_cols() != cols) return false;

  std::unique_ptr<Mlp> pred_mlp, sample_mlp, out_mlp;
  if (!DeserializeMlp(reader, &pred_mlp) ||
      !DeserializeMlp(reader, &sample_mlp) ||
      !DeserializeMlp(reader, &out_mlp)) {
    return false;
  }
  // Topology must agree with the recorded feature shapes, or Forward would
  // read out of bounds.
  if (pred_mlp->layers().front().in_features() != cols + 4 ||
      pred_mlp->layers().back().out_features() != hidden ||
      sample_mlp->layers().front().in_features() != sample_size ||
      sample_mlp->layers().back().out_features() != hidden ||
      out_mlp->layers().front().in_features() != 2 * hidden ||
      out_mlp->layers().back().out_features() != 1) {
    return false;
  }

  num_cols_ = cols;
  col_min_ = std::move(col_min);
  col_max_ = std::move(col_max);
  options_.hidden_units = hidden;
  options_.sample_size = sample_size;
  options_.use_sample_bitmap = use_bitmap != 0;
  trained_rows_ = rows;
  sample_ = std::move(sample);
  pred_mlp_ = std::move(pred_mlp);
  sample_mlp_ = std::move(sample_mlp);
  out_mlp_ = std::move(out_mlp);
  final_loss_ = 0.0;
  return true;
}

size_t MscnEstimator::SizeBytes() const {
  size_t params = 0;
  if (pred_mlp_) {
    params = pred_mlp_->ParamCount() + sample_mlp_->ParamCount() +
             out_mlp_->ParamCount();
  }
  return params * sizeof(float) + sample_.DataSizeBytes();
}

}  // namespace arecel
