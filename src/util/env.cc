#include "util/env.h"

#include <cmath>
#include <cstdlib>

namespace arecel {

double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  if (end == value || *end != '\0' || !std::isfinite(parsed)) return fallback;
  return parsed;
}

size_t EnvSize(const char* name, size_t fallback) {
  const double value = EnvDouble(name, -1.0);
  if (value < 0.0 || value >= 0x1p63) return fallback;
  return static_cast<size_t>(value);
}

}  // namespace arecel
