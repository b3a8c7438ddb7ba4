#include "core/model_io.h"

#include <string>

namespace arecel {

namespace {
constexpr uint32_t kModelMagic = 0x41434d31;  // "ACM1".
constexpr uint32_t kVersion = 1;
}  // namespace

bool SupportsPersistence(const CardinalityEstimator& estimator) {
  // Counting probe: serializers walk their state but nothing is buffered,
  // so per-request capability checks (serve/model_manager.cc) don't pay a
  // full serialization's allocation and copy.
  ByteWriter probe = ByteWriter::Counting();
  return estimator.SerializeModel(&probe);
}

bool SerializeEstimatorBytes(const CardinalityEstimator& estimator,
                             std::string* bytes) {
  ByteWriter payload;
  if (!estimator.SerializeModel(&payload)) return false;

  ByteWriter file;
  file.U32(kModelMagic);
  file.U32(kVersion);
  file.Str(estimator.Name());
  file.Str(payload.buffer());
  *bytes = file.buffer();
  return true;
}

ModelLoadResult LoadEstimatorBytes(CardinalityEstimator* estimator,
                                   const std::string& bytes) {
  ModelLoadResult result;
  ByteReader file(bytes);
  uint32_t magic = 0, version = 0;
  std::string name, payload;
  if (!file.U32(&magic) || magic != kModelMagic) {
    result.kind = FailureKind::kCorruptModel;
    result.detail = "bad model magic";
    return result;
  }
  if (!file.U32(&version) || version != kVersion) {
    result.kind = FailureKind::kCorruptModel;
    result.detail = "unsupported model version " + std::to_string(version);
    return result;
  }
  if (!file.Str(&name) || !file.Str(&payload)) {
    result.kind = FailureKind::kCorruptModel;
    result.detail = "truncated model frame at byte " +
                    std::to_string(file.failure_position());
    return result;
  }
  if (name != estimator->Name()) {
    // A well-formed file for a different estimator: a wiring error, not
    // corruption — the instance was not touched.
    result.kind = FailureKind::kPersistenceFailure;
    result.detail = "estimator kind mismatch: file holds \"" + name +
                    "\", loading into \"" + estimator->Name() + "\"";
    return result;
  }

  ByteReader reader(payload);
  if (!estimator->DeserializeModel(&reader)) {
    // The instance may be partially deserialized — poisoned either way.
    result.kind = FailureKind::kCorruptModel;
    result.detail =
        reader.failed()
            ? "truncated model payload at byte " +
                  std::to_string(reader.failure_position()) + " of " +
                  std::to_string(payload.size())
            : "model payload failed validation";
    return result;
  }
  return result;
}

}  // namespace arecel
