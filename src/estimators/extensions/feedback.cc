#include "estimators/extensions/feedback.h"

#include <algorithm>
#include <cmath>

#include "estimators/traditional/dbms.h"

namespace arecel {

namespace {

constexpr uint32_t kKnnMagic = 0xFEEDE571;
constexpr uint32_t kCorrectedMagic = 0xFEEDC0DE;

double LogTarget(double selectivity, size_t rows) {
  return std::log(std::max(selectivity, feedback::SelectivityFloor(rows)));
}

}  // namespace

// ---------------------------------------------------------------------------
// FeedbackKnnEstimator

FeedbackKnnEstimator::FeedbackKnnEstimator(feedback::FeedbackOptions options)
    : model_(options) {}

void FeedbackKnnEstimator::Train(const Table& table,
                                 const TrainContext& context) {
  model_.Clear();
  version_ = 0;
  BindTable(table);
  if (context.training_workload != nullptr)
    SeedFromWorkload(*context.training_workload);
}

void FeedbackKnnEstimator::Update(const Table& table,
                                  const UpdateContext& context) {
  // §5.1 append-update: bump the version first so every truth learned over
  // the pre-update data is dropped, then re-bind spans (appends can widen
  // domains) and re-seed from the refreshed workload.
  ++version_;
  model_.InvalidateOlderThan(version_);
  BindTable(table);
  if (context.update_workload != nullptr)
    SeedFromWorkload(*context.update_workload);
}

void FeedbackKnnEstimator::BindTable(const Table& table) {
  model_.BindSchema(table);
  rows_ = table.num_rows();
  priors_.clear();
  priors_.reserve(table.num_cols());
  for (size_t c = 0; c < table.num_cols(); ++c) {
    const Column& column = table.column(c);
    ColumnPrior prior;
    if (!column.domain.empty()) {
      prior.lo = column.min();
      prior.hi = column.max();
      prior.domain_size = column.domain_size();
    }
    priors_.push_back(prior);
  }
}

void FeedbackKnnEstimator::SeedFromWorkload(const Workload& workload) {
  const size_t n = std::min(workload.queries.size(),
                            workload.selectivities.size());
  for (size_t i = 0; i < n; ++i)
    model_.Observe(workload.queries[i],
                   LogTarget(workload.selectivities[i], rows_), version_);
}

double FeedbackKnnEstimator::FallbackSelectivity(const Query& query) const {
  // Uniform-independence prior over the bound column spans: the coldest
  // possible answer, but total, deterministic, and exact on full-domain
  // conjuncts — learned subspaces take over as truths arrive.
  double selectivity = 1.0;
  for (const Predicate& p : query.predicates) {
    if (p.column < 0 || static_cast<size_t>(p.column) >= priors_.size())
      continue;
    const ColumnPrior& prior = priors_[static_cast<size_t>(p.column)];
    double fraction;
    if (p.is_equality()) {
      fraction = 1.0 / static_cast<double>(std::max<size_t>(1,
                                                            prior.domain_size));
      if (p.lo < prior.lo || p.lo > prior.hi) fraction = 0.0;
    } else {
      const double width = prior.hi - prior.lo;
      if (width <= 0) {
        fraction = p.Matches(prior.lo) ? 1.0 : 0.0;
      } else {
        const double overlap =
            std::min(p.hi, prior.hi) - std::max(p.lo, prior.lo);
        fraction = std::clamp(overlap / width, 0.0, 1.0);
      }
    }
    selectivity *= fraction;
  }
  return std::clamp(selectivity, 0.0, 1.0);
}

double FeedbackKnnEstimator::EstimateSelectivity(const Query& query) const {
  double target = 0.0;
  if (model_.Predict(query, &target))
    return std::clamp(std::exp(target), 0.0, 1.0);
  return FallbackSelectivity(query);
}

void FeedbackKnnEstimator::ObserveTruth(const Query& query,
                                        double truth_selectivity) {
  model_.Observe(query, LogTarget(truth_selectivity, rows_), version_);
}

size_t FeedbackKnnEstimator::SizeBytes() const {
  return model_.SizeBytes() + priors_.size() * sizeof(ColumnPrior);
}

bool FeedbackKnnEstimator::SerializeModel(ByteWriter* writer) const {
  writer->U32(kKnnMagic);
  writer->U64(rows_);
  writer->U64(version_);
  writer->U64(priors_.size());
  for (const ColumnPrior& prior : priors_) {
    writer->F64(prior.lo);
    writer->F64(prior.hi);
    writer->U64(prior.domain_size);
  }
  return model_.Serialize(writer);
}

bool FeedbackKnnEstimator::DeserializeModel(ByteReader* reader) {
  uint32_t magic = 0;
  if (!reader->U32(&magic) || magic != kKnnMagic) return false;
  uint64_t rows = 0, version = 0, prior_count = 0;
  if (!reader->U64(&rows) || !reader->U64(&version) ||
      !reader->U64(&prior_count))
    return false;
  std::vector<ColumnPrior> priors(static_cast<size_t>(prior_count));
  for (ColumnPrior& prior : priors) {
    uint64_t domain_size = 0;
    if (!reader->F64(&prior.lo) || !reader->F64(&prior.hi) ||
        !reader->U64(&domain_size))
      return false;
    prior.domain_size = static_cast<size_t>(domain_size);
  }
  if (!model_.Deserialize(reader)) return false;
  rows_ = static_cast<size_t>(rows);
  version_ = version;
  priors_ = std::move(priors);
  return true;
}

// ---------------------------------------------------------------------------
// FeedbackCorrectedEstimator

FeedbackCorrectedEstimator::FeedbackCorrectedEstimator(
    std::unique_ptr<CardinalityEstimator> base,
    feedback::FeedbackOptions options)
    : base_(std::move(base)), model_(options) {}

void FeedbackCorrectedEstimator::Train(const Table& table,
                                       const TrainContext& context) {
  base_->Train(table, context);
  model_.Clear();
  model_.BindSchema(table);
  rows_ = table.num_rows();
  version_ = 0;
  // Warm start: every labelled training query is an executed truth.
  if (context.training_workload != nullptr) {
    const Workload& w = *context.training_workload;
    const size_t n = std::min(w.queries.size(), w.selectivities.size());
    for (size_t i = 0; i < n; ++i) ObserveTruth(w.queries[i],
                                                w.selectivities[i]);
  }
}

void FeedbackCorrectedEstimator::Update(const Table& table,
                                        const UpdateContext& context) {
  base_->Update(table, context);
  ++version_;
  model_.InvalidateOlderThan(version_);
  model_.BindSchema(table);
  rows_ = table.num_rows();
  if (context.update_workload != nullptr) {
    const Workload& w = *context.update_workload;
    const size_t n = std::min(w.queries.size(), w.selectivities.size());
    for (size_t i = 0; i < n; ++i) ObserveTruth(w.queries[i],
                                                w.selectivities[i]);
  }
}

double FeedbackCorrectedEstimator::EstimateSelectivity(
    const Query& query) const {
  const double base = base_->EstimateSelectivity(query);
  double residual = 0.0;
  if (!model_.Predict(query, &residual)) return base;
  const double floor = feedback::SelectivityFloor(rows_);
  return std::clamp(std::max(base, floor) * std::exp(residual), 0.0, 1.0);
}

void FeedbackCorrectedEstimator::ObserveTruth(const Query& query,
                                              double truth_selectivity) {
  const double base = base_->EstimateSelectivity(query);
  const double floor = feedback::SelectivityFloor(rows_);
  const double residual = std::log(std::max(truth_selectivity, floor) /
                                   std::max(base, floor));
  model_.Observe(query, residual, version_);
}

size_t FeedbackCorrectedEstimator::SizeBytes() const {
  return base_->SizeBytes() + model_.SizeBytes();
}

bool FeedbackCorrectedEstimator::SerializeModel(ByteWriter* writer) const {
  ByteWriter probe = ByteWriter::Counting();
  if (!base_->SerializeModel(&probe)) return false;
  writer->U32(kCorrectedMagic);
  writer->U64(rows_);
  writer->U64(version_);
  if (!base_->SerializeModel(writer)) return false;
  return model_.Serialize(writer);
}

bool FeedbackCorrectedEstimator::DeserializeModel(ByteReader* reader) {
  uint32_t magic = 0;
  if (!reader->U32(&magic) || magic != kCorrectedMagic) return false;
  uint64_t rows = 0, version = 0;
  if (!reader->U64(&rows) || !reader->U64(&version)) return false;
  if (!base_->DeserializeModel(reader)) return false;
  if (!model_.Deserialize(reader)) return false;
  rows_ = static_cast<size_t>(rows);
  version_ = version;
  return true;
}

std::unique_ptr<CardinalityEstimator> MakeFeedbackCorrectedEstimator() {
  return std::make_unique<FeedbackCorrectedEstimator>(MakePostgresEstimator());
}

}  // namespace arecel
