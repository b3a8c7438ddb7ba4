#include "robustness/failure.h"

namespace arecel {

const char* FailureKindName(FailureKind kind) {
  switch (kind) {
    case FailureKind::kNone:
      return "kNone";
    case FailureKind::kTrainTimeout:
      return "kTrainTimeout";
    case FailureKind::kTrainThrew:
      return "kTrainThrew";
    case FailureKind::kTrainCancelled:
      return "kTrainCancelled";
    case FailureKind::kEstimateTimeout:
      return "kEstimateTimeout";
    case FailureKind::kEstimateThrew:
      return "kEstimateThrew";
    case FailureKind::kNonFiniteEstimate:
      return "kNonFiniteEstimate";
    case FailureKind::kPersistenceFailure:
      return "kPersistenceFailure";
    case FailureKind::kCorruptModel:
      return "kCorruptModel";
    case FailureKind::kCellTimeout:
      return "kCellTimeout";
    case FailureKind::kCellThrew:
      return "kCellThrew";
    case FailureKind::kInvalidQuery:
      return "kInvalidQuery";
  }
  return "kUnknown";
}

std::string FailureRecord::ToString() const {
  std::string out = FailureKindName(kind);
  out += "(stage=" + stage + ", attempt=" + std::to_string(attempt);
  if (!detail.empty()) out += ", " + detail;
  out += ")";
  return out;
}

}  // namespace arecel
