// Store write-back tests (serve/model_manager.h with a ModelStore): each
// trained model committed from the shared worker pool under a fixed retry
// budget, warm restarts through the store, corrupt-payload poisoning,
// refreshes persisted, and a concurrent serving smoke for the TSan preset
// (matched by the "Store" and "Maint" in these suite names).

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

#include "data/datasets.h"
#include "serve/model_manager.h"
#include "store/model_store.h"

namespace arecel::store {
namespace {

std::string UniqueDir(const std::string& tag) {
  static int counter = 0;
  return ::testing::TempDir() + "arecel_maint_" + tag + "_" +
         std::to_string(::getpid()) + "_" + std::to_string(counter++);
}

Table SmallTable(uint64_t seed = 7) {
  return GenerateSynthetic2D(/*rows=*/2000, /*skew=*/1.0,
                             /*correlation=*/0.4, /*domain_size=*/30, seed);
}

// `faults` is a fault plan (robustness/fault_plan.h), e.g. "store-enospc".
std::shared_ptr<ModelStore> MakeStore(const std::string& dir,
                                      const std::string& faults = "") {
  StoreOptions options;
  options.root_dir = dir;
  std::string error;
  EXPECT_TRUE(robust::ParseFaultPlan(faults, &options.fault_plan, &error))
      << error;
  return std::make_shared<ModelStore>(std::move(options));
}

std::unique_ptr<serve::ModelManager> MakeManager(
    std::shared_ptr<ModelStore> store) {
  serve::ModelManagerOptions options;
  options.store = std::move(store);
  options.train_query_count = 100;
  auto manager = std::make_unique<serve::ModelManager>(std::move(options));
  manager->RegisterDataset("synth", SmallTable());
  return manager;
}

TEST(StoreWriteBackTest, WriteBackThenWarmRestart) {
  const std::string dir = UniqueDir("writeback");
  auto store = MakeStore(dir);
  auto manager = MakeManager(store);

  // The cold train posts its save, which commits on a pool worker with no
  // tick to wait for.
  ASSERT_NE(manager->GetModel("synth", "postgres"), nullptr);
  EXPECT_EQ(manager->counters().cold_trains, 1u);
  EXPECT_EQ(manager->counters().saves_enqueued, 1u);
  manager->WaitForRefreshes();
  EXPECT_EQ(manager->counters().saves_committed, 1u);
  EXPECT_EQ(store->stats().commits, 1u);

  // A new process over the same store warm-starts: loaded, not trained.
  auto restarted = MakeManager(store);
  auto model = restarted->GetModel("synth", "postgres");
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->source, "loaded");
  EXPECT_EQ(restarted->counters().persisted_loads, 1u);
  EXPECT_EQ(restarted->counters().cold_trains, 0u);
}

TEST(StoreWriteBackTest, WriteBackRetriesWithBackoff) {
  const std::string dir = UniqueDir("retry");
  // First two write ops fail like ENOSPC; the third Put attempt lands.
  auto store = MakeStore(dir, "store-enospc:times=2");
  auto manager = MakeManager(store);
  ASSERT_NE(manager->GetModel("synth", "postgres"), nullptr);
  manager->WaitForRefreshes();

  const serve::ManagerCounters counters = manager->counters();
  EXPECT_EQ(counters.saves_committed, 1u);
  EXPECT_EQ(counters.save_retries, 2u);
  EXPECT_EQ(counters.save_failures, 0u);
  EXPECT_EQ(store->stats().commit_failures, 2u);
  EXPECT_EQ(store->stats().commits, 1u);
}

TEST(StoreWriteBackTest, WriteBackGivesUpAfterAttemptBudget) {
  const std::string dir = UniqueDir("giveup");
  auto store = MakeStore(dir, "store-enospc:times=-1");  // never recovers.
  auto manager = MakeManager(store);
  ASSERT_NE(manager->GetModel("synth", "postgres"), nullptr);
  manager->WaitForRefreshes();

  // Three attempts, so two retries, then the model is dropped.
  const serve::ManagerCounters counters = manager->counters();
  EXPECT_EQ(counters.saves_committed, 0u);
  EXPECT_EQ(counters.save_failures, 1u);
  EXPECT_EQ(counters.save_retries, 2u);
}

TEST(StoreWriteBackTest, CorruptStorePayloadPoisonsOnlyThatLoad) {
  const std::string dir = UniqueDir("poison");
  auto store = MakeStore(dir);
  // A committed generation whose frame is valid (CRC passes) but whose
  // payload is garbage: the typed loader must reject it as corrupt and the
  // manager must discard the instance and cold-train.
  ASSERT_TRUE(store->Put("synth", "postgres", "not a model"));

  auto manager = MakeManager(store);
  auto model = manager->GetModel("synth", "postgres");
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->source, "trained");
  EXPECT_EQ(manager->counters().corrupt_loads, 1u);
  EXPECT_EQ(manager->counters().cold_trains, 1u);
  EXPECT_EQ(manager->counters().persisted_loads, 0u);
}

TEST(StoreWriteBackTest, RefreshesStaleModelsAndPersistsThem) {
  const std::string dir = UniqueDir("refresh");
  auto store = MakeStore(dir);
  auto manager = MakeManager(store);
  ASSERT_NE(manager->GetModel("synth", "postgres"), nullptr);
  manager->WaitForRefreshes();  // persist generation 1.
  ASSERT_EQ(store->stats().commits, 1u);

  const uint64_t version = manager->ApplyUpdate("synth", 0.2, /*seed=*/11);
  ASSERT_GE(version, 1u);
  ASSERT_EQ(manager->RefreshModelsAsync("synth"), 1u);
  manager->WaitForRefreshes();  // the refresh lands, then generation 2.

  EXPECT_EQ(manager->counters().refreshes, 1u);
  auto model = manager->GetModel("synth", "postgres");
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->data_version, version);
  EXPECT_EQ(model->source, "refreshed");

  std::string payload;
  uint64_t generation = 0;
  ASSERT_TRUE(store->Get("synth", "postgres", &payload, &generation));
  EXPECT_EQ(generation, 2u);
}

// Concurrency smoke for the TSan preset: two serving threads estimating
// while a data update's refresh and the write-backs of both the cold train
// and the refresh run on pool workers.
TEST(MaintServeSmokeTest, ConcurrentServeUpdateAndMaintenance) {
  const std::string dir = UniqueDir("smoke");
  auto store = MakeStore(dir);
  auto manager = MakeManager(store);

  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      Query query;
      query.predicates.push_back(Predicate{0, 2.0, 20.0});
      while (!done.load()) {
        auto model = manager->GetModel("synth", "postgres");
        if (model != nullptr) {
          std::unique_lock<std::mutex> lock;
          if (!model->thread_safe)
            lock = std::unique_lock<std::mutex>(model->inference_mutex);
          (void)model->estimator->EstimateSelectivity(query);
        }
      }
    });
  }
  manager->ApplyUpdate("synth", 0.1, /*seed=*/17);
  manager->RefreshModelsAsync("synth");
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  done = true;
  for (std::thread& t : threads) t.join();
  manager->WaitForRefreshes();

  // Every posted write-back reached the store, and it verifies clean.
  const serve::ManagerCounters counters = manager->counters();
  EXPECT_GE(counters.saves_enqueued, 1u);
  EXPECT_EQ(counters.saves_committed, counters.saves_enqueued);
  EXPECT_EQ(store->stats().commits, counters.saves_committed);
  EXPECT_EQ(store->VerifyAll(), 0u);
}

}  // namespace
}  // namespace arecel::store
