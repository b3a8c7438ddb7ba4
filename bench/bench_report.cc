#include "bench_report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "ml/kernels.h"
#include "util/thread_pool.h"

namespace arecel::bench {

namespace {

std::string Quote(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

BenchArgs ParseBenchArgs(int argc, char** argv, const std::string& name) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      args.out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out <path>]\n", argv[0]);
      std::exit(2);
    }
  }
  if (args.out.empty()) {
    args.out = args.smoke ? "BENCH_" + name + "_smoke.json"
                          : ARECEL_REPO_ROOT "/BENCH_" + name + ".json";
  }
  return args;
}

std::string JsonValue(double value) {
  if (!std::isfinite(value)) return "null";
  // %g would switch to an exponent past six integer digits; rounding to the
  // nearest integer decides how many there are.
  const double digits = std::floor(std::log10(std::abs(value) + 0.5)) + 1;
  const int precision = static_cast<int>(std::clamp(digits, 6.0, 17.0));
  char text[32];
  std::snprintf(text, sizeof(text), "%.*g", precision, value);
  return text;
}

std::string JsonValue(bool value) { return value ? "true" : "false"; }

std::string JsonValue(const char* value) { return Quote(value); }

std::string JsonValue(const std::string& value) { return Quote(value); }

JsonRow& JsonRow::AddJson(std::string_view key, const std::string& json) {
  if (!body_.empty()) body_ += ", ";
  body_ += Quote(key) + ": " + json;
  return *this;
}

BenchReport::BenchReport(const std::string& bench_name) {
  Add("bench", bench_name);
  Add("backend", MlKernelBackendName(ActiveMlKernelBackend()));
  Add("simd", MlKernelSimdName());
  Add("cpu", MlCpuFeatureFlags());
  Add("workers", ParallelWorkerCount());
}

std::string BenchReport::Indent(size_t extra) const {
  return std::string(2 * (has_members_.size() + extra), ' ');
}

BenchReport& BenchReport::AddJson(std::string_view key,
                                  const std::string& json) {
  text_ += has_members_.back() ? ",\n" : "\n";
  has_members_.back() = true;
  text_ += Indent() + Quote(key) + ": " + json;
  return *this;
}

BenchReport& BenchReport::Add(std::string_view key, const JsonRow& row) {
  return AddJson(key, row.str());
}

BenchReport& BenchReport::Add(std::string_view key,
                              const std::vector<JsonRow>& rows) {
  if (rows.empty()) return AddJson(key, "[]");
  std::string json = "[";
  for (size_t i = 0; i < rows.size(); ++i)
    json += (i == 0 ? "\n" : ",\n") + Indent(1) + rows[i].str();
  return AddJson(key, json + "\n" + Indent() + "]");
}

BenchReport& BenchReport::BeginObject(std::string_view key) {
  AddJson(key, "{");
  has_members_.push_back(false);
  return *this;
}

BenchReport& BenchReport::EndObject() {
  const bool has_members = has_members_.back();
  has_members_.pop_back();
  text_ += has_members ? "\n" + Indent() + "}" : "}";
  return *this;
}

std::string BenchReport::str() const { return text_ + "\n}\n"; }

bool BenchReport::WriteTo(const std::string& path) const {
  const std::string text = str();
  std::FILE* out = std::fopen(path.c_str(), "w");
  bool ok = out != nullptr &&
            std::fwrite(text.data(), 1, text.size(), out) == text.size();
  if (out != nullptr) ok = std::fclose(out) == 0 && ok;
  if (!ok) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace arecel::bench
