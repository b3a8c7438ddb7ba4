#include "robustness/fault_injector.h"

#include <chrono>
#include <limits>
#include <stdexcept>
#include <thread>
#include <utility>

#include "robustness/failure.h"
#include "util/timer.h"

namespace arecel::robust {

namespace {

// Sleeps in short slices so an injected hang released by cancellation (or
// its safety cap) wakes promptly instead of holding the abandoned worker
// thread for the full duration.
void SlicedSleep(double seconds, const CancellationToken* cancel) {
  Timer timer;
  while (timer.ElapsedSeconds() < seconds) {
    if (cancel != nullptr && cancel->cancelled()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace

FaultInjector::FaultInjector(std::unique_ptr<CardinalityEstimator> base,
                             std::vector<FaultSpec> plan)
    : base_(std::move(base)), schedule_(std::move(plan)) {}

void FaultInjector::ApplyTrainFault(const FaultSpec& fault,
                                    const CancellationToken* cancel) const {
  switch (fault.action) {
    case FaultAction::kThrow:
      throw std::runtime_error("injected train fault");
    case FaultAction::kCancel:
      SlicedSleep(fault.delay_seconds, cancel);
      throw CancelledError("injected mid-train cancellation");
    case FaultAction::kHang:
      SlicedSleep(fault.hang_cap_seconds, cancel);
      if (cancel != nullptr && cancel->cancelled())
        throw CancelledError("injected hang released by cancellation");
      throw std::runtime_error("injected hang hit its safety cap");
    case FaultAction::kDelay:
      SlicedSleep(fault.delay_seconds, cancel);
      return;  // then train normally.
    default:
      throw std::runtime_error("fault action not applicable to train stage");
  }
}

void FaultInjector::Train(const Table& table, const TrainContext& context) {
  if (const FaultSpec* fault = schedule_.Fire(FaultStage::kTrain))
    ApplyTrainFault(*fault, context.cancellation);
  base_->Train(table, context);
}

void FaultInjector::Update(const Table& table, const UpdateContext& context) {
  // Updates count as training calls: a scheduled train fault fires here too.
  if (const FaultSpec* fault = schedule_.Fire(FaultStage::kTrain))
    ApplyTrainFault(*fault, nullptr);
  base_->Update(table, context);
}

double FaultInjector::EstimateSelectivity(const Query& query) const {
  const FaultSpec* fault = schedule_.Fire(FaultStage::kEstimate);
  if (fault == nullptr) return base_->EstimateSelectivity(query);
  switch (fault->action) {
    case FaultAction::kThrow:
      throw std::runtime_error("injected estimate fault");
    case FaultAction::kHang:
      SlicedSleep(fault->hang_cap_seconds, nullptr);
      throw std::runtime_error("injected estimate hang hit its cap");
    case FaultAction::kDelay:
      SlicedSleep(fault->delay_seconds, nullptr);
      return base_->EstimateSelectivity(query);  // then answer normally.
    case FaultAction::kNan:
      return std::numeric_limits<double>::quiet_NaN();
    case FaultAction::kInf:
      return std::numeric_limits<double>::infinity();
    case FaultAction::kNegative:
      return -0.5;
    default:
      throw std::runtime_error("fault action not applicable to estimate stage");
  }
}

void FaultInjector::TrainJoin(const Schema& schema,
                              const TrainContext& context) {
  if (const FaultSpec* fault = schedule_.Fire(FaultStage::kTrain))
    ApplyTrainFault(*fault, context.cancellation);
  base_->TrainJoin(schema, context);
}

bool FaultInjector::SerializeModel(ByteWriter* writer) const {
  if (const FaultSpec* fault = schedule_.Fire(FaultStage::kSerialize)) {
    if (fault->action == FaultAction::kRefuse) return false;
    throw std::runtime_error("injected serialize fault");
  }
  return base_->SerializeModel(writer);
}

bool FaultInjector::DeserializeModel(ByteReader* reader) {
  return base_->DeserializeModel(reader);
}

std::unique_ptr<CardinalityEstimator> WrapWithFaults(
    std::unique_ptr<CardinalityEstimator> base,
    const std::vector<FaultSpec>& plan) {
  std::vector<FaultSpec> matching;
  for (const FaultSpec& spec : plan) {
    if (IsStoreStage(spec.stage)) continue;
    if (spec.estimator.empty() || spec.estimator == base->Name())
      matching.push_back(spec);
  }
  if (matching.empty()) return base;
  return std::make_unique<FaultInjector>(std::move(base),
                                         std::move(matching));
}

}  // namespace arecel::robust
