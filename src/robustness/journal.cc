#include "robustness/journal.h"

#include <cmath>
#include <cstdio>
#include <fstream>

namespace arecel::robust {

namespace {

// The journal controls both sides of the format, so the JSON here is a
// deliberately tiny dialect: flat objects, string and finite-number values,
// keys without escapes. Strings escape backslash and quote only (estimator
// and dataset names never contain control characters).
std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string NumberJson(double v) {
  // Journaled metrics must stay valid JSON: clamp infinities (legitimately
  // huge q-errors) to the representable edge. NaN never reaches this point —
  // Append refuses NaN records outright rather than laundering corruption
  // into a plausible-looking resumed result.
  if (std::isinf(v)) v = v > 0 ? 1e308 : -1e308;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Extracts the string value of `"key":"..."` from a flat JSON line.
bool ExtractString(const std::string& line, const std::string& key,
                   std::string* value) {
  const std::string needle = "\"" + key + "\":\"";
  const size_t start = line.find(needle);
  if (start == std::string::npos) return false;
  value->clear();
  for (size_t i = start + needle.size(); i < line.size(); ++i) {
    if (line[i] == '\\' && i + 1 < line.size()) {
      value->push_back(line[++i]);
    } else if (line[i] == '"') {
      return true;
    } else {
      value->push_back(line[i]);
    }
  }
  return false;  // unterminated string: corrupt line.
}

// Parses the {"name":number,...} object following `"metrics":`.
bool ExtractMetrics(const std::string& line,
                    std::vector<std::pair<std::string, double>>* metrics) {
  metrics->clear();
  const std::string needle = "\"metrics\":{";
  size_t i = line.find(needle);
  if (i == std::string::npos) return false;
  i += needle.size();
  while (i < line.size() && line[i] != '}') {
    if (line[i] == ',' || line[i] == ' ') {
      ++i;
      continue;
    }
    if (line[i] != '"') return false;
    const size_t name_end = line.find('"', i + 1);
    if (name_end == std::string::npos) return false;
    const std::string name = line.substr(i + 1, name_end - i - 1);
    if (name_end + 1 >= line.size() || line[name_end + 1] != ':')
      return false;
    char* end = nullptr;
    const double value = std::strtod(line.c_str() + name_end + 2, &end);
    if (end == line.c_str() + name_end + 2) return false;
    metrics->push_back({name, value});
    i = static_cast<size_t>(end - line.c_str());
  }
  return i < line.size();  // saw the closing brace.
}

}  // namespace

double JournalRecord::Metric(const std::string& name, double fallback) const {
  for (const auto& [key, value] : metrics)
    if (key == name) return value;
  return fallback;
}

// FNV-1a, not util/hash.h's HashBytes: the fingerprint is persisted in
// journals and must keep its value across builds and machines, which
// HashBytes (native word order, free to change) does not promise.
std::string FingerprintConfig(const std::vector<std::string>& parts) {
  uint64_t hash = 1469598103934665603ull;  // FNV-1a 64-bit offset basis.
  for (const std::string& part : parts) {
    for (char c : part) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ull;
    }
    hash ^= 0xff;  // part separator, so {"ab","c"} != {"a","bc"}.
    hash *= 1099511628211ull;
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

SweepJournal::SweepJournal(std::string path, std::string fingerprint)
    : path_(std::move(path)), fingerprint_(std::move(fingerprint)) {
  if (path_.empty()) return;
  std::ifstream in(path_);
  if (!in.good()) return;

  std::string line;
  bool header_ok = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (!header_ok) {
      std::string file_fingerprint;
      if (!ExtractString(line, "fingerprint", &file_fingerprint) ||
          file_fingerprint != fingerprint_) {
        // Stale or foreign journal: its cells are not comparable. Start
        // fresh; the file is overwritten on the first append.
        return;
      }
      header_ok = true;
      continue;
    }
    JournalRecord record;
    if (!ExtractString(line, "estimator", &record.estimator) ||
        !ExtractString(line, "cell", &record.cell) ||
        !ExtractMetrics(line, &record.metrics)) {
      continue;  // torn final line from a killed run: skip, re-run the cell.
    }
    records_[record.estimator + "\n" + record.cell] = record;
  }
  // Matching fingerprint: future appends extend the existing file.
  header_written_ = header_ok;
}

const JournalRecord* SweepJournal::Find(const std::string& estimator,
                                        const std::string& cell) const {
  const auto it = records_.find(estimator + "\n" + cell);
  return it == records_.end() ? nullptr : &it->second;
}

bool SweepJournal::Append(const JournalRecord& record) {
  if (!enabled()) return true;  // no-op: Find must keep missing.
  // Refuse NaN metrics before indexing: a NaN is corruption, not a result,
  // and persisting any substitute would make a resumed run silently adopt
  // it. Leaving the cell out of the journal forces a re-run instead.
  for (const auto& [name, value] : record.metrics) {
    (void)name;
    if (std::isnan(value)) return false;
  }
  records_[record.estimator + "\n" + record.cell] = record;

  std::ofstream out(path_, header_written_
                               ? (std::ios::app | std::ios::out)
                               : (std::ios::trunc | std::ios::out));
  if (!out.good()) return false;
  if (!header_written_) {
    out << "{\"fingerprint\":\"" << EscapeJson(fingerprint_) << "\"}\n";
    header_written_ = true;
  }
  out << "{\"estimator\":\"" << EscapeJson(record.estimator)
      << "\",\"cell\":\"" << EscapeJson(record.cell) << "\",\"metrics\":{";
  for (size_t i = 0; i < record.metrics.size(); ++i) {
    if (i > 0) out << ",";
    out << "\"" << EscapeJson(record.metrics[i].first)
        << "\":" << NumberJson(record.metrics[i].second);
  }
  out << "}}\n";
  out.flush();
  return out.good();
}

void SweepJournal::RemoveFile() {
  if (!path_.empty()) std::remove(path_.c_str());
  header_written_ = false;
}

}  // namespace arecel::robust
