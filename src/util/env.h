#ifndef ARECEL_UTIL_ENV_H_
#define ARECEL_UTIL_ENV_H_

#include <cstddef>

namespace arecel {

// The one reader of environment knobs. Each returns `fallback` when the
// variable is unset or empty, and the numeric readers also when the whole
// value is not a finite number ("12abc", "nan" and "1e999" all fall back).
// Range rules beyond that belong to the caller.
double EnvDouble(const char* name, double fallback);

// EnvDouble truncated to a count; a negative value, or one past 2^63,
// returns `fallback`. Zero is returned as zero.
size_t EnvSize(const char* name, size_t fallback);

}  // namespace arecel

#endif  // ARECEL_UTIL_ENV_H_
