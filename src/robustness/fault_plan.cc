#include "robustness/fault_plan.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace arecel::robust {

namespace {

bool ParseStage(const std::string& token, FaultStage* stage) {
  if (token == "train") *stage = FaultStage::kTrain;
  else if (token == "estimate") *stage = FaultStage::kEstimate;
  else if (token == "serialize") *stage = FaultStage::kSerialize;
  else return false;
  return true;
}

bool ParseAction(const std::string& token, FaultAction* action) {
  if (token == "throw") *action = FaultAction::kThrow;
  else if (token == "cancel") *action = FaultAction::kCancel;
  else if (token == "hang") *action = FaultAction::kHang;
  else if (token == "delay") *action = FaultAction::kDelay;
  else if (token == "nan") *action = FaultAction::kNan;
  else if (token == "inf") *action = FaultAction::kInf;
  else if (token == "negative") *action = FaultAction::kNegative;
  else if (token == "refuse") *action = FaultAction::kRefuse;
  else return false;
  return true;
}

// A store-* token names both the site and what happens there.
bool ParseStoreToken(const std::string& token, FaultSpec* spec) {
  if (token == "store-torn-write") {
    spec->stage = FaultStage::kStoreWrite;
    spec->action = FaultAction::kTornWrite;
  } else if (token == "store-enospc") {
    spec->stage = FaultStage::kStoreWrite;
    spec->action = FaultAction::kEnospc;
  } else if (token == "store-rename-fail") {
    spec->stage = FaultStage::kStoreRename;
    spec->action = FaultAction::kRenameFail;
  } else if (token == "store-bitflip") {
    spec->stage = FaultStage::kStoreCommit;
    spec->action = FaultAction::kBitflip;
  } else {
    return false;
  }
  return true;
}

std::vector<std::string> Split(const std::string& text, char a, char b) {
  std::vector<std::string> parts;
  std::string current;
  for (char c : text) {
    if (c == a || c == b) {
      parts.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  parts.push_back(current);
  return parts;
}

}  // namespace

bool ParseFaultPlan(const std::string& text, std::vector<FaultSpec>* plan,
                    std::string* error) {
  plan->clear();
  for (const std::string& item : Split(text, ';', ',')) {
    if (item.empty()) continue;
    const std::vector<std::string> fields = Split(item, ':', ':');
    FaultSpec spec;
    size_t first_option = 3;
    const bool store = ParseStoreToken(fields[0], &spec);
    if (store) {
      spec.times = 1;
      first_option = 1;
    } else if (fields[0].rfind("store-", 0) == 0) {
      *error = "unknown store fault '" + fields[0] + "'";
      return false;
    } else if (fields.size() < 3) {
      *error = "fault spec needs estimator:stage:action or a store-* token, "
               "got '" + item + "'";
      return false;
    } else {
      spec.estimator = fields[0];
      if (!ParseStage(fields[1], &spec.stage)) {
        *error = "unknown fault stage '" + fields[1] + "'";
        return false;
      }
      if (!ParseAction(fields[2], &spec.action)) {
        *error = "unknown fault action '" + fields[2] + "'";
        return false;
      }
    }
    for (size_t f = first_option; f < fields.size(); ++f) {
      const std::string& field = fields[f];
      const size_t eq = field.find('=');
      if (eq == std::string::npos) {
        *error = "expected key=value, got '" + field + "'";
        return false;
      }
      const std::string key = field.substr(0, eq);
      const double value = std::atof(field.c_str() + eq + 1);
      if (key == "after") spec.after_calls = static_cast<int>(value);
      else if (key == "times") spec.times = static_cast<int>(value);
      else if (key == "delay" && !store) spec.delay_seconds = value;
      else if (key == "cap" && !store) spec.hang_cap_seconds = value;
      else {
        *error = "unknown fault field '" + key + "' in '" + item + "'";
        return false;
      }
    }
    plan->push_back(spec);
  }
  return true;
}

std::vector<FaultSpec> FaultPlanFromEnv() {
  const char* env = std::getenv("ARECEL_FAULT_INJECT");
  if (env == nullptr || env[0] == '\0') return {};
  std::vector<FaultSpec> plan;
  std::string error;
  if (!ParseFaultPlan(env, &plan, &error)) {
    std::fprintf(stderr, "ARECEL_FAULT_INJECT: %s\n", error.c_str());
    std::abort();
  }
  return plan;
}

FaultSchedule::FaultSchedule(std::vector<FaultSpec> plan)
    : plan_(std::move(plan)), fired_(plan_.size()) {
  for (auto& f : fired_) f.store(0);
}

const FaultSpec* FaultSchedule::Fire(FaultStage stage) {
  const int call = calls_[static_cast<size_t>(stage)].fetch_add(1);
  for (size_t i = 0; i < plan_.size(); ++i) {
    const FaultSpec& spec = plan_[i];
    if (spec.stage != stage || call < spec.after_calls) continue;
    if (spec.times >= 0 && fired_[i].fetch_add(1) >= spec.times) {
      continue;  // budget spent; this spec is disarmed.
    }
    return &spec;
  }
  return nullptr;
}

}  // namespace arecel::robust
