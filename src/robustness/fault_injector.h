#ifndef ARECEL_ROBUSTNESS_FAULT_INJECTOR_H_
#define ARECEL_ROBUSTNESS_FAULT_INJECTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "robustness/fault_plan.h"

namespace arecel::robust {

// Seeded fault-injecting wrapper: the test substrate proving the watchdog,
// retry, and fallback machinery actually work. Transparent when no spec
// matches — Name() forwards to the base so reports and journals keep the
// real estimator name, and injected hangs poll the TrainContext's
// cancellation token so an abandoning watchdog releases them quickly.
class FaultInjector : public CardinalityEstimator {
 public:
  FaultInjector(std::unique_ptr<CardinalityEstimator> base,
                std::vector<FaultSpec> plan);

  std::string Name() const override { return base_->Name(); }
  bool IsQueryDriven() const override { return base_->IsQueryDriven(); }
  // Call counters below are atomics, so the wrapper adds no races of its
  // own; thread safety is whatever the base reports.
  bool ThreadSafeEstimates() const override {
    return base_->ThreadSafeEstimates();
  }
  size_t SizeBytes() const override { return base_->SizeBytes(); }

  void Train(const Table& table, const TrainContext& context) override;
  void Update(const Table& table, const UpdateContext& context) override;
  double EstimateSelectivity(const Query& query) const override;
  bool SerializeModel(ByteWriter* writer) const override;
  bool DeserializeModel(ByteReader* reader) override;

  // TrainJoin shares the train fault stage and counter, so one plan drives
  // bench_join's fault cells too.
  bool SupportsJoins() const override { return base_->SupportsJoins(); }
  void TrainJoin(const Schema& schema, const TrainContext& context) override;

  int train_calls() const { return schedule_.calls(FaultStage::kTrain); }
  int estimate_calls() const {
    return schedule_.calls(FaultStage::kEstimate);
  }

 private:
  void ApplyTrainFault(const FaultSpec& fault,
                       const CancellationToken* cancel) const;

  std::unique_ptr<CardinalityEstimator> base_;
  // Train, Update and TrainJoin count as train calls.
  mutable FaultSchedule schedule_;
};

// Wraps `base` with any matching faults from `plan` (estimator-stage specs
// whose estimator field is empty or equals base->Name(); store specs never
// match). Returns `base` unchanged when nothing matches, so the zero-fault
// path costs nothing.
std::unique_ptr<CardinalityEstimator> WrapWithFaults(
    std::unique_ptr<CardinalityEstimator> base,
    const std::vector<FaultSpec>& plan);

}  // namespace arecel::robust

#endif  // ARECEL_ROBUSTNESS_FAULT_INJECTOR_H_
