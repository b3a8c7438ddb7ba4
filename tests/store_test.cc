// Crash-safety tests for the versioned model store (src/store/): the
// kill-point matrix (every injected fault at every write stage, then a
// reopen that must serve the last committed generation), quarantine /
// restore round-trips, garbage collection, fault-plan parsing, and the
// store-never-serves-corrupt invariant. The TSan preset matches these
// suites by the "Store" in their names.

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "robustness/fault_plan.h"
#include "store/model_store.h"
#include "util/crc32c.h"

namespace arecel::store {
namespace {

std::string UniqueDir(const std::string& tag) {
  static int counter = 0;
  const std::string dir =
      ::testing::TempDir() + "arecel_store_" + tag + "_" +
      std::to_string(::getpid()) + "_" + std::to_string(counter++);
  return dir;
}

// Parses a fault plan, failing the test on a malformed one.
std::vector<robust::FaultSpec> Plan(const std::string& text) {
  std::vector<robust::FaultSpec> plan;
  std::string error;
  EXPECT_TRUE(robust::ParseFaultPlan(text, &plan, &error)) << error;
  return plan;
}

StoreOptions Opts(const std::string& dir,
                  std::vector<robust::FaultSpec> plan = {},
                  size_t max_generations = 4) {
  StoreOptions options;
  options.root_dir = dir;
  options.max_generations = max_generations;
  options.fault_plan = std::move(plan);
  return options;
}

std::string Payload(char fill, size_t n = 200) { return std::string(n, fill); }

TEST(StoreTest, PutGetRoundTrip) {
  ModelStore store(Opts(UniqueDir("roundtrip")));
  uint64_t gen = 0;
  ASSERT_TRUE(store.Put("census", "naru", Payload('a'), &gen));
  EXPECT_EQ(gen, 1u);

  std::string payload;
  uint64_t got_gen = 0;
  ASSERT_TRUE(store.Get("census", "naru", &payload, &got_gen));
  EXPECT_EQ(payload, Payload('a'));
  EXPECT_EQ(got_gen, 1u);

  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.recoveries, 0u);
}

TEST(StoreTest, MissOnEmptyEntry) {
  ModelStore store(Opts(UniqueDir("miss")));
  std::string payload;
  EXPECT_FALSE(store.Get("census", "naru", &payload));
  EXPECT_EQ(store.stats().misses, 1u);
}

TEST(StoreTest, GenerationsRollAndGc) {
  ModelStore store(Opts(UniqueDir("gc"), {}, /*max_generations=*/2));
  for (char c : {'a', 'b', 'c', 'd'})
    ASSERT_TRUE(store.Put("census", "naru", Payload(c)));

  std::string payload;
  uint64_t gen = 0;
  ASSERT_TRUE(store.Get("census", "naru", &payload, &gen));
  EXPECT_EQ(gen, 4u);
  EXPECT_EQ(payload, Payload('d'));
  EXPECT_EQ(store.stats().gc_removed, 2u);

  size_t live = 0;
  for (const GenerationInfo& info : store.ListGenerations("census", "naru"))
    if (!info.quarantined) ++live;
  EXPECT_EQ(live, 2u);
}

TEST(StoreTest, QuarantineAndRestore) {
  const std::string dir = UniqueDir("restore");
  ModelStore store(Opts(dir));
  ASSERT_TRUE(store.Put("census", "naru", Payload('a')));
  ASSERT_TRUE(store.Put("census", "naru", Payload('b')));

  // Quarantining the committed generation makes recovery fall back.
  ASSERT_TRUE(store.QuarantineGeneration("census", "naru", 2));
  std::string payload;
  uint64_t gen = 0;
  ASSERT_TRUE(store.Get("census", "naru", &payload, &gen));
  EXPECT_EQ(gen, 1u);
  EXPECT_EQ(payload, Payload('a'));
  EXPECT_EQ(store.stats().recoveries, 1u);

  // Restore re-verifies the record and advances the manifest back to it.
  ASSERT_TRUE(store.RestoreQuarantined("census", "naru", 2));
  ASSERT_TRUE(store.Get("census", "naru", &payload, &gen));
  EXPECT_EQ(gen, 2u);
  EXPECT_EQ(payload, Payload('b'));
}

TEST(StoreTest, RestoreRefusesCorruptRecord) {
  const std::string dir = UniqueDir("refuse");
  ModelStore store(Opts(dir));
  ASSERT_TRUE(store.Put("census", "naru", Payload('a')));
  ASSERT_TRUE(store.QuarantineGeneration("census", "naru", 1));

  // Truncate the quarantined record; restore must refuse it.
  const std::string path = dir + "/census.naru/quarantine/gen-1.model";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "AMS1";
  }
  EXPECT_FALSE(store.RestoreQuarantined("census", "naru", 1));
}

TEST(StoreTest, NeverServesCorruptWhenEverythingRots) {
  const std::string dir = UniqueDir("allrot");
  {
    ModelStore store(Opts(dir));
    ASSERT_TRUE(store.Put("census", "naru", Payload('a')));
    ASSERT_TRUE(store.Put("census", "naru", Payload('b')));
  }
  // Flip a payload byte in every live record on disk.
  for (uint64_t gen : {1, 2}) {
    const std::string path =
        dir + "/census.naru/gen-" + std::to_string(gen) + ".model";
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekp(60);
    f.put('X');
  }
  ModelStore reopened(Opts(dir));
  std::string payload;
  EXPECT_FALSE(reopened.Get("census", "naru", &payload));
  const StoreStats stats = reopened.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.checksum_failures, 2u);
  EXPECT_EQ(stats.quarantined_generations, 2u);
}

TEST(StoreTest, VerifyAllReportsLiveCorruption) {
  const std::string dir = UniqueDir("verify");
  ModelStore store(Opts(dir));
  ASSERT_TRUE(store.Put("census", "naru", Payload('a')));
  {
    std::fstream f(dir + "/census.naru/gen-1.model",
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(40);
    f.put('!');
  }
  std::vector<std::string> problems;
  EXPECT_EQ(store.VerifyAll(&problems), 1u);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("census.naru"), std::string::npos);
}

TEST(StoreFaultTest, PlanParsingIgnoresEstimatorSpecs) {
  // One mixed plan: the estimator spec is parsed too, but it never fires at
  // a store stage, so the store sees only its own two schedules.
  const std::vector<robust::FaultSpec> plan =
      Plan("naru:train:throw;store-torn-write:after=1:times=2,store-bitflip");
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[1].stage, robust::FaultStage::kStoreWrite);
  EXPECT_EQ(plan[1].action, robust::FaultAction::kTornWrite);
  EXPECT_EQ(plan[1].after_calls, 1);
  EXPECT_EQ(plan[1].times, 2);
  EXPECT_EQ(plan[2].stage, robust::FaultStage::kStoreCommit);
  EXPECT_EQ(plan[2].action, robust::FaultAction::kBitflip);
  EXPECT_EQ(plan[2].after_calls, 0);
  EXPECT_EQ(plan[2].times, 1);  // store tokens fire once by default.

  robust::FaultSchedule schedule(plan);
  const auto fires = [&](robust::FaultStage stage) {
    return schedule.Fire(stage) != nullptr;
  };
  EXPECT_FALSE(fires(robust::FaultStage::kStoreWrite));  // write 0 < after.
  EXPECT_TRUE(fires(robust::FaultStage::kStoreWrite));   // write 1.
  EXPECT_TRUE(fires(robust::FaultStage::kStoreWrite));   // write 2.
  EXPECT_FALSE(fires(robust::FaultStage::kStoreWrite));  // times spent.
  EXPECT_TRUE(fires(robust::FaultStage::kStoreCommit));  // commit 0.
  EXPECT_FALSE(fires(robust::FaultStage::kStoreCommit));  // once only.
  EXPECT_FALSE(fires(robust::FaultStage::kStoreRename));

  std::string error;
  std::vector<robust::FaultSpec> rejected;
  for (const char* bad : {"store-enospc:bogus", "store-enospc:depth=3",
                          "store-enospc:delay=1", "store-nonsense"}) {
    EXPECT_FALSE(robust::ParseFaultPlan(bad, &rejected, &error)) << bad;
  }
}

TEST(StoreFaultTest, InjectorRespectsAfterAndTimes) {
  robust::FaultSchedule schedule(Plan("store-enospc:after=1:times=2"));
  const auto fires = [&](robust::FaultStage stage) {
    return schedule.Fire(stage) != nullptr;
  };
  EXPECT_FALSE(fires(robust::FaultStage::kStoreWrite));  // op 0 < after.
  EXPECT_TRUE(fires(robust::FaultStage::kStoreWrite));   // op 1.
  EXPECT_TRUE(fires(robust::FaultStage::kStoreWrite));   // op 2.
  EXPECT_FALSE(fires(robust::FaultStage::kStoreWrite));  // times exhausted.
  EXPECT_FALSE(fires(robust::FaultStage::kStoreRename));  // other stage.
}

// --- The kill-point matrix -------------------------------------------------
//
// For every fault kind at every write stage of a Put: commit payload A
// cleanly, attempt payload B under the scheduled fault, then REOPEN the
// store (a fresh instance over the same directory, fault-free — the crashed
// process is gone) and demand that Get serves an intact committed payload.
// Write-op indices within one Put: 0 = gen record, 1 = manifest. Rename-op
// indices: 0 = gen record, 1 = manifest.

struct KillPoint {
  const char* name;
  const char* fault;     // store-* plan; the spec fires once.
  bool put_reports_ok;   // torn writes and bitflips lie about success.
  char expected_fill;    // which payload the reopen must serve.
  uint64_t expected_gen;
  bool expect_recovery;  // reopen had to fall back / adopt.
};

class StoreKillPointTest : public ::testing::TestWithParam<KillPoint> {};

TEST_P(StoreKillPointTest, ReopenServesLastCommittedGeneration) {
  const KillPoint kp = GetParam();
  const std::string dir = UniqueDir(std::string("kill_") + kp.name);

  {
    ModelStore clean(Opts(dir));
    uint64_t gen = 0;
    ASSERT_TRUE(clean.Put("census", "naru", Payload('a'), &gen));
    ASSERT_EQ(gen, 1u);
  }
  {
    ModelStore faulty(Opts(dir, Plan(kp.fault)));
    EXPECT_EQ(faulty.Put("census", "naru", Payload('b')), kp.put_reports_ok);
    if (!kp.put_reports_ok) {
      EXPECT_EQ(faulty.stats().commit_failures, 1u);
    }
  }

  ModelStore reopened(Opts(dir));
  std::string payload;
  uint64_t gen = 0;
  ASSERT_TRUE(reopened.Get("census", "naru", &payload, &gen));
  EXPECT_EQ(payload, Payload(kp.expected_fill));
  EXPECT_EQ(gen, kp.expected_gen);

  const StoreStats stats = reopened.stats();
  EXPECT_EQ(stats.hits, 1u);
  if (kp.expect_recovery) {
    EXPECT_GE(stats.recoveries, 1u);
  }

  // After recovery the live store must be fully intact: corrupt records are
  // in quarantine, not in the serving path.
  EXPECT_EQ(reopened.VerifyAll(), 0u);
  std::string again;
  ASSERT_TRUE(reopened.Get("census", "naru", &again));
  EXPECT_EQ(again, payload);
}

INSTANTIATE_TEST_SUITE_P(
    AllKillPoints, StoreKillPointTest,
    ::testing::Values(
        // Torn gen-record write: the commit "succeeds" (lying disk) but the
        // record is truncated; reopen quarantines it and falls back to A.
        KillPoint{"torn_gen_write", "store-torn-write",
                  /*put_reports_ok=*/true, 'a', 1, /*expect_recovery=*/true},
        // Torn manifest write: the gen record itself is intact, only the
        // committed pointer is wrecked; reopen adopts the newest intact
        // generation (B) by scan.
        KillPoint{"torn_manifest_write", "store-torn-write:after=1",
                  /*put_reports_ok=*/true, 'b', 2, /*expect_recovery=*/true},
        // ENOSPC on the gen record: Put fails cleanly, nothing committed.
        KillPoint{"enospc_gen_write", "store-enospc",
                  /*put_reports_ok=*/false, 'a', 1, /*expect_recovery=*/false},
        // ENOSPC on the manifest: the intact-but-uncommitted gen 2 is an
        // orphan; reopen quarantines it and serves the committed gen 1.
        KillPoint{"enospc_manifest_write", "store-enospc:after=1",
                  /*put_reports_ok=*/false, 'a', 1, /*expect_recovery=*/false},
        // Failed gen rename: only the temp file existed; Put fails.
        KillPoint{"rename_fail_gen", "store-rename-fail",
                  /*put_reports_ok=*/false, 'a', 1, /*expect_recovery=*/false},
        // Failed manifest rename: same orphan shape as the manifest ENOSPC.
        KillPoint{"rename_fail_manifest", "store-rename-fail:after=1",
                  /*put_reports_ok=*/false, 'a', 1, /*expect_recovery=*/false},
        // Post-commit bit-rot: the commit was real, the bytes are not; the
        // CRC catches it on reopen and recovery falls back to A.
        KillPoint{"bitflip_after_commit", "store-bitflip",
                  /*put_reports_ok=*/true, 'a', 1, /*expect_recovery=*/true}),
    [](const ::testing::TestParamInfo<KillPoint>& info) {
      return std::string(info.param.name);
    });

// The orphan from a manifest-stage failure must be quarantined as a whole
// intact record — forensics can restore it deliberately, but recovery never
// serves it implicitly.
TEST(StoreTest, IntactOrphanIsQuarantinedNotServed) {
  const std::string dir = UniqueDir("orphan");
  {
    ModelStore clean(Opts(dir));
    ASSERT_TRUE(clean.Put("census", "naru", Payload('a')));
  }
  {
    ModelStore faulty(Opts(dir, Plan("store-rename-fail:after=1")));
    EXPECT_FALSE(faulty.Put("census", "naru", Payload('b')));
  }
  ModelStore reopened(Opts(dir));
  std::string payload;
  ASSERT_TRUE(reopened.Get("census", "naru", &payload));
  EXPECT_EQ(payload, Payload('a'));
  EXPECT_EQ(reopened.stats().quarantined_generations, 1u);

  bool found_orphan = false;
  for (const GenerationInfo& info :
       reopened.ListGenerations("census", "naru")) {
    if (info.quarantined && info.generation == 2) {
      found_orphan = true;
      EXPECT_TRUE(info.intact());  // whole record, deliberately not served.
    }
  }
  EXPECT_TRUE(found_orphan);

  // An explicit restore is the sanctioned way to promote it.
  ASSERT_TRUE(reopened.RestoreQuarantined("census", "naru", 2));
  uint64_t gen = 0;
  ASSERT_TRUE(reopened.Get("census", "naru", &payload, &gen));
  EXPECT_EQ(payload, Payload('b'));
  EXPECT_EQ(gen, 2u);
}

TEST(StoreTest, Crc32cKnownVectors) {
  // RFC 3720 test vector: CRC32C of 32 zero bytes.
  const std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8a9136aau);
  const std::string digits("123456789");
  EXPECT_EQ(Crc32c(digits.data(), digits.size()), 0xe3069283u);
  const uint32_t crc = Crc32c(digits.data(), digits.size());
  EXPECT_EQ(UnmaskCrc32c(MaskCrc32c(crc)), crc);
}

}  // namespace
}  // namespace arecel::store
