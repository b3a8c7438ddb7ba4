#ifndef ARECEL_ESTIMATORS_TRADITIONAL_SAMPLING_H_
#define ARECEL_ESTIMATORS_TRADITIONAL_SAMPLING_H_

#include <memory>
#include <string>

#include "core/estimator.h"

namespace arecel {

namespace scan {
class BlockScanner;
}  // namespace scan

// Uniform-random-sample estimator (§4.1): keeps a 1.5%-of-data sample
// (matching the learned models' size budget) and answers a query with the
// fraction of sample rows that satisfy it. The sample scan runs on the
// vectorized block-scan engine: a scanner (code-count prefixes + selection
// vectors) is built once per (re)trained sample and reused by every
// estimate.
class SamplingEstimator : public CardinalityEstimator {
 public:
  // `max_sample_rows` caps the sample like the paper's 150K cap for KDE.
  // Constructor/destructor live in the .cc so this header can hold the
  // scanner behind a forward declaration.
  explicit SamplingEstimator(size_t max_sample_rows = 150000);
  ~SamplingEstimator() override;

  std::string Name() const override { return "sampling"; }
  void Train(const Table& table, const TrainContext& context) override;
  double EstimateSelectivity(const Query& query) const override;
  size_t SizeBytes() const override { return sample_.DataSizeBytes(); }
  bool SerializeModel(ByteWriter* writer) const override;
  bool DeserializeModel(ByteReader* reader) override;

 private:
  // Rebuilds the scanner over the current sample_ (call after every
  // assignment to sample_; the scanner holds a pointer to it).
  void RebuildScanner();

  size_t max_sample_rows_;
  Table sample_;
  std::unique_ptr<scan::BlockScanner> scanner_;
};

}  // namespace arecel

#endif  // ARECEL_ESTIMATORS_TRADITIONAL_SAMPLING_H_
