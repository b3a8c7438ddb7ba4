#ifndef ARECEL_BENCH_BENCH_REPORT_H_
#define ARECEL_BENCH_BENCH_REPORT_H_

#include <concepts>
#include <string>
#include <string_view>
#include <vector>

namespace arecel::bench {

// The command line of every bench that writes a BENCH_<name>.json report:
//   --smoke        run the bench's small configuration (the CTest smoke run)
//   --out <path>   write the report there
// The report goes to <repo>/BENCH_<name>.json by default, or to
// BENCH_<name>_smoke.json in the working directory under --smoke. Any other
// argument prints the usage line and exits with status 2.
struct BenchArgs {
  bool smoke = false;
  std::string out;
};
BenchArgs ParseBenchArgs(int argc, char** argv, const std::string& name);

// The JSON text of one value. Every double takes one rule: six significant
// digits, or all of its integer digits when it has more, and null when it is
// NaN or infinite. Integers are written exactly; strings are escaped.
std::string JsonValue(double value);
std::string JsonValue(bool value);
std::string JsonValue(const char* value);
std::string JsonValue(const std::string& value);
template <std::integral T>
std::string JsonValue(T value) {
  return std::to_string(value);
}

// A JSON object written on one line: a table row or a small record.
class JsonRow {
 public:
  template <typename T>
  JsonRow& Add(std::string_view key, const T& value) {
    return AddJson(key, JsonValue(value));
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  JsonRow& AddJson(std::string_view key, const std::string& json);

  std::string body_;
};

// A bench's JSON report. It opens with the machine header every BENCH file
// carries (bench name, ML backend, SIMD tier, CPU flags, pool workers) and
// then holds, in the order they are added, named values, one-line objects,
// arrays of one-line objects (one per line) and nested multi-line objects.
class BenchReport {
 public:
  explicit BenchReport(const std::string& bench_name);

  template <typename T>
  BenchReport& Add(std::string_view key, const T& value) {
    return AddJson(key, JsonValue(value));
  }
  BenchReport& Add(std::string_view key, const JsonRow& row);
  BenchReport& Add(std::string_view key, const std::vector<JsonRow>& rows);

  // Members added between the two calls go in a nested object under `key`.
  BenchReport& BeginObject(std::string_view key);
  BenchReport& EndObject();

  // The finished document.
  std::string str() const;

  // Writes str() to `path` and says so on stdout; returns false, with a
  // message on stderr, when the file cannot be written.
  bool WriteTo(const std::string& path) const;

 private:
  BenchReport& AddJson(std::string_view key, const std::string& json);
  std::string Indent(size_t extra = 0) const;

  std::string text_ = "{";
  // One entry per open object: whether it has a member yet.
  std::vector<bool> has_members_ = {false};
};

}  // namespace arecel::bench

#endif  // ARECEL_BENCH_BENCH_REPORT_H_
