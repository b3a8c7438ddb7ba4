#include "store/model_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "util/crc32c.h"
#include "util/env.h"

namespace arecel::store {

namespace fs = std::filesystem;

namespace {

constexpr uint32_t kRecordMagic = 0x31534d41u;   // "AMS1" in file order.
constexpr uint32_t kFooterMagic = 0x31444e45u;   // "END1".
constexpr uint32_t kManifestMagic = 0x31464d41u; // "AMF1".
constexpr uint32_t kFormatVersion = 1;
constexpr size_t kHeaderBytes = 4 + 4 + 8 + 8 + 4;
constexpr size_t kFooterBytes = 4;
constexpr size_t kManifestBytes = 4 + 4 + 8 + 4;

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

uint32_t GetU32(const std::string& in, size_t at) {
  uint32_t v;
  std::memcpy(&v, in.data() + at, 4);
  return v;
}

uint64_t GetU64(const std::string& in, size_t at) {
  uint64_t v;
  std::memcpy(&v, in.data() + at, 8);
  return v;
}

std::string EncodeRecord(uint64_t generation, const std::string& payload) {
  std::string out;
  out.reserve(kHeaderBytes + payload.size() + kFooterBytes);
  PutU32(&out, kRecordMagic);
  PutU32(&out, kFormatVersion);
  PutU64(&out, generation);
  PutU64(&out, payload.size());
  PutU32(&out, MaskCrc32c(Crc32c(payload)));
  out.append(payload);
  PutU32(&out, kFooterMagic);
  return out;
}

// Decodes one record; `expected_gen` cross-checks the frame against the
// filename so a record renamed over the wrong slot cannot masquerade as it.
// Returns "ok" or the GenerationInfo::status string for the defect.
std::string DecodeRecord(const std::string& bytes, uint64_t expected_gen,
                         std::string* payload, uint64_t* payload_bytes) {
  if (payload_bytes != nullptr) *payload_bytes = 0;
  if (bytes.size() < kHeaderBytes + kFooterBytes) return "truncated";
  if (GetU32(bytes, 0) != kRecordMagic) return "bad-magic";
  if (GetU32(bytes, 4) != kFormatVersion) return "bad-version";
  const uint64_t generation = GetU64(bytes, 8);
  const uint64_t size = GetU64(bytes, 16);
  const uint32_t masked_crc = GetU32(bytes, 24);
  if (generation != expected_gen) return "gen-mismatch";
  if (bytes.size() != kHeaderBytes + size + kFooterBytes) return "truncated";
  if (GetU32(bytes, kHeaderBytes + size) != kFooterMagic) return "truncated";
  const uint32_t crc =
      Crc32c(bytes.data() + kHeaderBytes, static_cast<size_t>(size));
  if (crc != UnmaskCrc32c(masked_crc)) return "checksum-mismatch";
  if (payload != nullptr) payload->assign(bytes, kHeaderBytes, size);
  if (payload_bytes != nullptr) *payload_bytes = size;
  return "ok";
}

std::string EncodeManifest(uint64_t generation) {
  std::string out;
  out.reserve(kManifestBytes);
  PutU32(&out, kManifestMagic);
  PutU32(&out, kFormatVersion);
  PutU64(&out, generation);
  PutU32(&out, MaskCrc32c(Crc32c(out)));
  return out;
}

bool DecodeManifest(const std::string& bytes, uint64_t* generation) {
  if (bytes.size() != kManifestBytes) return false;
  if (GetU32(bytes, 0) != kManifestMagic) return false;
  if (GetU32(bytes, 4) != kFormatVersion) return false;
  if (Crc32c(bytes.data(), kManifestBytes - 4) !=
      UnmaskCrc32c(GetU32(bytes, kManifestBytes - 4))) {
    return false;
  }
  *generation = GetU64(bytes, 8);
  return true;
}

bool ReadFileBytes(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return false;
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return !in.bad();
}

std::string GenFileName(uint64_t generation) {
  return "gen-" + std::to_string(generation) + ".model";
}

// Parses "gen-<N>.model"; returns false for anything else.
bool ParseGenFileName(const std::string& name, uint64_t* generation) {
  constexpr char kPrefix[] = "gen-";
  constexpr char kSuffix[] = ".model";
  if (name.size() <= 4 + 6) return false;
  if (name.compare(0, 4, kPrefix) != 0) return false;
  if (name.compare(name.size() - 6, 6, kSuffix) != 0) return false;
  const std::string digits = name.substr(4, name.size() - 10);
  if (digits.empty()) return false;
  for (char c : digits)
    if (c < '0' || c > '9') return false;
  *generation = std::strtoull(digits.c_str(), nullptr, 10);
  return true;
}

// Live (non-quarantined) generation numbers of an entry, descending.
std::vector<uint64_t> ListGenFiles(const std::string& entry_dir) {
  std::vector<uint64_t> gens;
  std::error_code ec;
  for (const auto& it : fs::directory_iterator(entry_dir, ec)) {
    uint64_t gen = 0;
    if (it.is_regular_file(ec) &&
        ParseGenFileName(it.path().filename().string(), &gen)) {
      gens.push_back(gen);
    }
  }
  std::sort(gens.rbegin(), gens.rend());
  return gens;
}

// Best-effort durability for the rename: fsync the containing directory so
// the directory entry itself is on disk.
void SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

bool ReadManifest(const std::string& entry_dir, uint64_t* generation) {
  std::string bytes;
  if (!ReadFileBytes(entry_dir + "/MANIFEST", &bytes)) return false;
  return DecodeManifest(bytes, generation);
}

}  // namespace

StoreOptions StoreOptions::FromEnv() {
  StoreOptions options;
  const char* dir = std::getenv("ARECEL_STORE_DIR");
  options.root_dir = dir != nullptr ? dir : "";
  options.max_generations = EnvSize("ARECEL_STORE_MAX_GENERATIONS", 4);
  if (options.max_generations == 0) options.max_generations = 4;
  options.fault_plan = robust::FaultPlanFromEnv();
  return options;
}

ModelStore::ModelStore(StoreOptions options)
    : options_(std::move(options)), faults_(options_.fault_plan) {
  if (options_.max_generations < 1) options_.max_generations = 1;
  std::error_code ec;
  fs::create_directories(options_.root_dir, ec);
}

std::string ModelStore::EntryDir(const std::string& dataset,
                                 const std::string& estimator) const {
  std::string name = dataset + "." + estimator;
  for (char& c : name)
    if (c == '/' || c == '\\') c = '_';
  return options_.root_dir + "/" + name;
}

bool ModelStore::WriteFileOp(const std::string& path,
                             const std::string& data) {
  const robust::FaultSpec* fault =
      faults_.Fire(robust::FaultStage::kStoreWrite);
  const bool torn =
      fault != nullptr && fault->action == robust::FaultAction::kTornWrite;
  const bool enospc =
      fault != nullptr && fault->action == robust::FaultAction::kEnospc;

  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  size_t to_write = data.size();
  if (torn || enospc) to_write /= 2;  // a prefix lands, the rest never does.

  size_t written = 0;
  bool io_ok = true;
  while (written < to_write) {
    const ssize_t n = ::write(fd, data.data() + written, to_write - written);
    if (n <= 0) {
      io_ok = false;
      break;
    }
    written += static_cast<size_t>(n);
  }
  if (io_ok) ::fsync(fd);
  ::close(fd);
  if (enospc || !io_ok) return false;
  // A torn write REPORTS success — the write appeared durable but only a
  // prefix reached the platter. Recovery-on-open must catch it.
  return true;
}

bool ModelStore::RenameOp(const std::string& from, const std::string& to) {
  if (faults_.Fire(robust::FaultStage::kStoreRename) != nullptr) return false;
  if (::rename(from.c_str(), to.c_str()) != 0) return false;
  SyncDir(fs::path(to).parent_path().string());
  return true;
}

void ModelStore::MaybeBitflip(const std::string& path) {
  if (faults_.Fire(robust::FaultStage::kStoreCommit) == nullptr) return;
  std::string bytes;
  if (!ReadFileBytes(path, &bytes) ||
      bytes.size() <= kHeaderBytes + kFooterBytes) {
    return;
  }
  // Flip one bit mid-payload: the CRC must catch it on the next open.
  const size_t at = kHeaderBytes + (bytes.size() - kHeaderBytes - kFooterBytes) / 2;
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) return;
  const char flipped = static_cast<char>(bytes[at] ^ 0x40);
  ::pwrite(fd, &flipped, 1, static_cast<off_t>(at));
  ::fsync(fd);
  ::close(fd);
}

void ModelStore::QuarantineFile(const std::string& entry_dir,
                                const std::string& name) {
  std::error_code ec;
  fs::create_directories(entry_dir + "/quarantine", ec);
  if (::rename((entry_dir + "/" + name).c_str(),
               (entry_dir + "/quarantine/" + name).c_str()) == 0) {
    ++stats_.quarantined_generations;
  }
}

bool ModelStore::CommitManifest(const std::string& entry_dir,
                                uint64_t generation) {
  const std::string tmp = entry_dir + "/MANIFEST.tmp";
  if (!WriteFileOp(tmp, EncodeManifest(generation))) {
    ::unlink(tmp.c_str());
    return false;
  }
  if (!RenameOp(tmp, entry_dir + "/MANIFEST")) {
    ::unlink(tmp.c_str());
    return false;
  }
  return true;
}

bool ModelStore::Put(const std::string& dataset, const std::string& estimator,
                     const std::string& payload, uint64_t* generation) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.puts;

  const std::string entry_dir = EntryDir(dataset, estimator);
  std::error_code ec;
  fs::create_directories(entry_dir, ec);
  if (ec) {
    ++stats_.commit_failures;
    return false;
  }

  // Next generation: past both the committed generation and any orphan gen
  // file on disk, so a failed commit's leftovers are never overwritten.
  uint64_t next = 0;
  uint64_t manifest_gen = 0;
  if (ReadManifest(entry_dir, &manifest_gen)) next = manifest_gen;
  const std::vector<uint64_t> existing = ListGenFiles(entry_dir);
  if (!existing.empty()) next = std::max(next, existing.front());
  ++next;

  const std::string final_path = entry_dir + "/" + GenFileName(next);
  const std::string tmp_path = final_path + ".tmp";
  if (!WriteFileOp(tmp_path, EncodeRecord(next, payload))) {
    ::unlink(tmp_path.c_str());
    ++stats_.commit_failures;
    return false;
  }
  if (!RenameOp(tmp_path, final_path)) {
    ::unlink(tmp_path.c_str());
    ++stats_.commit_failures;
    return false;
  }
  // The record is durable but UNCOMMITTED until the manifest rename lands.
  // On failure it is left behind deliberately — the same shape a crash
  // between the two renames produces — and recovery quarantines it.
  if (!CommitManifest(entry_dir, next)) {
    ++stats_.commit_failures;
    return false;
  }
  ++stats_.commits;
  if (generation != nullptr) *generation = next;

  // Post-commit corruption hook (bit-rot shape) — after this point only
  // recovery-on-open protects readers, which is the property under test.
  MaybeBitflip(final_path);

  // GC: keep the newest max_generations committed records.
  const std::vector<uint64_t> after = ListGenFiles(entry_dir);
  size_t kept = 0;
  for (uint64_t gen : after) {
    if (gen > next) continue;  // orphan; recovery owns it.
    if (++kept <= options_.max_generations) continue;
    if (::unlink((entry_dir + "/" + GenFileName(gen)).c_str()) == 0)
      ++stats_.gc_removed;
  }
  return true;
}

bool ModelStore::Get(const std::string& dataset, const std::string& estimator,
                     std::string* payload, uint64_t* generation) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.gets;

  const std::string entry_dir = EntryDir(dataset, estimator);
  std::error_code ec;
  if (!fs::is_directory(entry_dir, ec)) {
    ++stats_.misses;
    return false;
  }

  // 1. Stray temp files are dead weight from interrupted commits.
  for (const auto& it : fs::directory_iterator(entry_dir, ec)) {
    if (it.path().extension() == ".tmp" && it.is_regular_file(ec)) {
      if (::unlink(it.path().c_str()) == 0) ++stats_.tmp_cleaned;
    }
  }

  uint64_t manifest_gen = 0;
  const bool manifest_ok = ReadManifest(entry_dir, &manifest_gen);
  std::vector<uint64_t> gens = ListGenFiles(entry_dir);

  // 2. Orphans (newer than the committed generation) are quarantined even
  // when intact: serving one would publish a commit that never happened.
  if (manifest_ok) {
    for (uint64_t gen : gens)
      if (gen > manifest_gen) QuarantineFile(entry_dir, GenFileName(gen));
    gens.erase(std::remove_if(gens.begin(), gens.end(),
                              [&](uint64_t g) { return g > manifest_gen; }),
               gens.end());
  }

  // 3./4. Newest-first: verify, serve the first intact record, quarantine
  // every corrupt one encountered on the way down.
  for (uint64_t gen : gens) {
    std::string bytes;
    std::string status = "unreadable";
    if (ReadFileBytes(entry_dir + "/" + GenFileName(gen), &bytes))
      status = DecodeRecord(bytes, gen, payload, nullptr);
    if (status == "ok") {
      if (!manifest_ok || gen != manifest_gen) {
        // Fallback or adoption: republish the manifest to what recovery
        // actually found so the next open is clean.
        ++stats_.recoveries;
        CommitManifest(entry_dir, gen);
      }
      if (generation != nullptr) *generation = gen;
      ++stats_.hits;
      return true;
    }
    if (status == "truncated")
      ++stats_.torn_writes_detected;
    else
      ++stats_.checksum_failures;
    QuarantineFile(entry_dir, GenFileName(gen));
  }

  // 5. Nothing intact. Drop a manifest pointing at quarantined wreckage so
  // the entry reads as empty (cold-train territory) next time too.
  ::unlink((entry_dir + "/MANIFEST").c_str());
  ++stats_.misses;
  return false;
}

std::vector<std::string> ModelStore::ListEntries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> entries;
  std::error_code ec;
  for (const auto& it : fs::directory_iterator(options_.root_dir, ec))
    if (it.is_directory(ec)) entries.push_back(it.path().filename().string());
  std::sort(entries.begin(), entries.end());
  return entries;
}

std::vector<GenerationInfo> ModelStore::ListGenerations(
    const std::string& dataset, const std::string& estimator) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string entry_dir = EntryDir(dataset, estimator);
  uint64_t manifest_gen = 0;
  const bool manifest_ok = ReadManifest(entry_dir, &manifest_gen);

  std::vector<GenerationInfo> infos;
  auto scan = [&](const std::string& dir, bool quarantined) {
    std::error_code ec;
    for (const auto& it : fs::directory_iterator(dir, ec)) {
      uint64_t gen = 0;
      if (!it.is_regular_file(ec) ||
          !ParseGenFileName(it.path().filename().string(), &gen)) {
        continue;
      }
      GenerationInfo info;
      info.generation = gen;
      info.quarantined = quarantined;
      info.committed = manifest_ok && gen <= manifest_gen;
      std::string bytes;
      if (ReadFileBytes(it.path().string(), &bytes))
        info.status = DecodeRecord(bytes, gen, nullptr, &info.payload_bytes);
      else
        info.status = "unreadable";
      infos.push_back(std::move(info));
    }
  };
  scan(entry_dir, /*quarantined=*/false);
  scan(entry_dir + "/quarantine", /*quarantined=*/true);
  std::sort(infos.begin(), infos.end(),
            [](const GenerationInfo& a, const GenerationInfo& b) {
              if (a.generation != b.generation)
                return a.generation > b.generation;
              return a.quarantined < b.quarantined;
            });
  return infos;
}

size_t ModelStore::VerifyAll(std::vector<std::string>* problems) const {
  size_t corrupt = 0;
  for (const std::string& entry : ListEntries()) {
    const size_t dot = entry.rfind('.');
    if (dot == std::string::npos) continue;
    const std::string dataset = entry.substr(0, dot);
    const std::string estimator = entry.substr(dot + 1);
    for (const GenerationInfo& info : ListGenerations(dataset, estimator)) {
      if (info.intact() || info.quarantined) continue;
      ++corrupt;
      if (problems != nullptr) {
        problems->push_back(entry + "/gen-" +
                            std::to_string(info.generation) + ".model: " +
                            info.status);
      }
    }
  }
  return corrupt;
}

bool ModelStore::QuarantineGeneration(const std::string& dataset,
                                      const std::string& estimator,
                                      uint64_t generation) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string entry_dir = EntryDir(dataset, estimator);
  const std::string name = GenFileName(generation);
  std::error_code ec;
  if (!fs::is_regular_file(entry_dir + "/" + name, ec)) return false;
  QuarantineFile(entry_dir, name);
  return true;
}

bool ModelStore::RestoreQuarantined(const std::string& dataset,
                                    const std::string& estimator,
                                    uint64_t generation) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string entry_dir = EntryDir(dataset, estimator);
  const std::string name = GenFileName(generation);
  const std::string from = entry_dir + "/quarantine/" + name;

  std::string bytes;
  if (!ReadFileBytes(from, &bytes)) return false;
  if (DecodeRecord(bytes, generation, nullptr, nullptr) != "ok")
    return false;  // never restore wreckage into the serving path.
  if (::rename(from.c_str(), (entry_dir + "/" + name).c_str()) != 0)
    return false;
  uint64_t manifest_gen = 0;
  if (!ReadManifest(entry_dir, &manifest_gen) || generation > manifest_gen)
    CommitManifest(entry_dir, generation);
  return true;
}

StoreStats ModelStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace arecel::store
