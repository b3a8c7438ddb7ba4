#include "estimators/traditional/sampling.h"

#include <algorithm>

#include "data/io.h"
#include "scan/block_scan.h"

namespace arecel {

SamplingEstimator::SamplingEstimator(size_t max_sample_rows)
    : max_sample_rows_(max_sample_rows) {}

SamplingEstimator::~SamplingEstimator() = default;

void SamplingEstimator::RebuildScanner() {
  scanner_ = sample_.num_rows() > 0
                 ? std::make_unique<scan::BlockScanner>(sample_)
                 : nullptr;
}

void SamplingEstimator::Train(const Table& table,
                              const TrainContext& context) {
  size_t rows = static_cast<size_t>(static_cast<double>(table.num_rows()) *
                                    context.size_budget_fraction);
  rows = std::clamp<size_t>(rows, std::min<size_t>(table.num_rows(), 100),
                            std::min(max_sample_rows_, table.num_rows()));
  sample_ = table.SampleRows(rows, context.seed);
  RebuildScanner();
}

double SamplingEstimator::EstimateSelectivity(const Query& query) const {
  if (scanner_ == nullptr) return ExecuteSelectivity(sample_, query);
  return scanner_->Selectivity(query);
}

bool SamplingEstimator::SerializeModel(ByteWriter* writer) const {
  WriteTable(sample_, writer);
  return true;
}

bool SamplingEstimator::DeserializeModel(ByteReader* reader) {
  // The payload is the sample alone; bytes left over mean a corrupt column
  // count, which would let a query name a column the sample lacks.
  if (!ReadTable(reader, &sample_) || !reader->AtEnd()) return false;
  RebuildScanner();
  return true;
}

}  // namespace arecel
