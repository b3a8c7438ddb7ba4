#ifndef ARECEL_STORE_MODEL_STORE_H_
#define ARECEL_STORE_MODEL_STORE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "robustness/fault_plan.h"

namespace arecel::store {

// Versioned, checksummed, crash-safe on-disk store for serialized estimator
// payloads (the framed bytes produced by SerializeEstimatorBytes,
// core/model_io.h). One directory per (dataset, estimator):
//
//   <root>/<dataset>.<estimator>/
//     gen-<N>.model   generation record (header + payload + footer, below)
//     MANIFEST        20-byte self-checksummed pointer to the committed gen
//     quarantine/     records recovery refused to serve, kept for forensics
//
// Record framing (all integers little-endian):
//   u32 magic "AMS1"  u32 version  u64 generation  u64 payload_size
//   u32 masked CRC32C(payload)  payload bytes  u32 footer magic "END1"
// The footer magic doubles as a cheap torn-write tripwire: a write that
// stopped partway never has it, so truncation is detected before the CRC
// is even computed.
//
// Commit protocol (Put): write gen record to a .tmp, fsync, rename into
// place, then write + fsync + rename the MANIFEST. A crash between the two
// renames leaves an intact-but-uncommitted generation; recovery treats it
// as an orphan and quarantines it, so the committed state is always exactly
// what the MANIFEST's last successful rename published.
//
// Recovery (runs inside Get, on the store as found on disk):
//   1. stray *.tmp files are removed;
//   2. generations newer than the manifest are quarantined (orphans), even
//      when intact — serving them would un-commit a commit;
//   3. the manifest generation is read and verified; on truncation, bad
//      magic, or CRC mismatch it is quarantined and the newest older intact
//      generation is adopted (manifest rewritten, recovery counted);
//   4. a missing/corrupt manifest falls back to a scan for the newest
//      intact generation;
//   5. with nothing intact left, Get misses and the caller cold-trains.
// A corrupt payload is therefore never returned: every byte served has
// passed the CRC on this read, not on some earlier one.
//
// All methods are thread-safe (one store-wide mutex; operations are rare
// and coarse: cold loads, write-backs, fsck).

struct StoreOptions {
  // Store root ("" disables the store; callers skip construction).
  std::string root_dir;

  // Committed generations kept per entry; older ones are garbage-collected
  // after each successful Put. Minimum 1.
  size_t max_generations = 4;

  // Fault plan for crash-safety tests (robustness/fault_plan.h): the store
  // fires its store-* specs and ignores estimator specs. Empty in
  // production.
  std::vector<robust::FaultSpec> fault_plan;

  // Reads ARECEL_STORE_DIR, ARECEL_STORE_MAX_GENERATIONS, and
  // ARECEL_FAULT_INJECT.
  static StoreOptions FromEnv();
};

struct StoreStats {
  uint64_t puts = 0;
  uint64_t commits = 0;
  uint64_t commit_failures = 0;
  uint64_t gets = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  // Gets that served a generation other than the one the manifest named
  // (fallback to an older gen, or adoption after a manifest loss).
  uint64_t recoveries = 0;
  uint64_t quarantined_generations = 0;
  // Truncated records / missing footers (crash-mid-write shape).
  uint64_t torn_writes_detected = 0;
  // CRC mismatches and other in-frame corruption (bit-rot shape).
  uint64_t checksum_failures = 0;
  uint64_t gc_removed = 0;
  uint64_t tmp_cleaned = 0;
};

// One generation record as seen by ListGenerations / the fsck tool.
struct GenerationInfo {
  uint64_t generation = 0;
  uint64_t payload_bytes = 0;  // 0 when the frame is too corrupt to say.
  bool committed = false;      // <= the manifest generation.
  bool quarantined = false;    // lives under quarantine/.
  // "ok" | "truncated" | "bad-magic" | "bad-version" | "gen-mismatch" |
  // "checksum-mismatch" | "unreadable".
  std::string status;

  bool intact() const { return status == "ok"; }
};

class ModelStore {
 public:
  explicit ModelStore(StoreOptions options);

  ModelStore(const ModelStore&) = delete;
  ModelStore& operator=(const ModelStore&) = delete;

  // Commits `payload` as the next generation for (dataset, estimator).
  // On success fills *generation (when given) and garbage-collects old
  // generations past max_generations. On failure the previously committed
  // generation is untouched; an intact-but-uncommitted orphan may be left
  // behind (recovery quarantines it), exactly as a crash would.
  bool Put(const std::string& dataset, const std::string& estimator,
           const std::string& payload, uint64_t* generation = nullptr);

  // Reads the committed payload, running recovery first (see above).
  // Returns false on a miss (nothing intact). The returned payload has
  // passed its CRC during this call.
  bool Get(const std::string& dataset, const std::string& estimator,
           std::string* payload, uint64_t* generation = nullptr);

  // "<dataset>.<estimator>" entry directories present under the root.
  std::vector<std::string> ListEntries() const;

  // All generation records of one entry (live and quarantined), newest
  // first, each decoded and verified. Read-only: no quarantining happens.
  std::vector<GenerationInfo> ListGenerations(const std::string& dataset,
                                              const std::string& estimator) const;

  // Verifies every record in the store; returns the number of corrupt
  // live (non-quarantined) records and appends one human-readable line per
  // problem to *problems when given. Read-only.
  size_t VerifyAll(std::vector<std::string>* problems = nullptr) const;

  // Moves one live generation into quarantine/ (fsck "quarantine" verb).
  bool QuarantineGeneration(const std::string& dataset,
                            const std::string& estimator, uint64_t generation);

  // Moves a quarantined generation back into the entry, refusing records
  // that fail verification. If the restored generation is newer than the
  // committed one, the manifest is advanced to it.
  bool RestoreQuarantined(const std::string& dataset,
                          const std::string& estimator, uint64_t generation);

  StoreStats stats() const;
  const StoreOptions& options() const { return options_; }

 private:
  std::string EntryDir(const std::string& dataset,
                       const std::string& estimator) const;

  // Filesystem primitives with fault-injection hooks. Each WriteFileOp is
  // one kStoreWrite call (store-torn-write: partial data lands, call still
  // reports success — the lying-disk shape; store-enospc: partial data
  // lands, call fails); each RenameOp one kStoreRename call
  // (store-rename-fail); each MaybeBitflip one kStoreCommit call
  // (store-bitflip).
  bool WriteFileOp(const std::string& path, const std::string& data);
  bool RenameOp(const std::string& from, const std::string& to);
  void MaybeBitflip(const std::string& path);

  // Moves a record file into quarantine/ and counts it. `mu_` held.
  void QuarantineFile(const std::string& entry_dir, const std::string& name);

  // Writes the manifest via the tmp/fsync/rename protocol. `mu_` held.
  bool CommitManifest(const std::string& entry_dir, uint64_t generation);

  StoreOptions options_;
  robust::FaultSchedule faults_;  // armed from options_.fault_plan.

  mutable std::mutex mu_;
  StoreStats stats_;  // guarded by mu_.
};

}  // namespace arecel::store

#endif  // ARECEL_STORE_MODEL_STORE_H_
