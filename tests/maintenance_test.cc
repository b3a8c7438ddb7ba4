// Maintenance-worker tests (src/store/maintenance_worker.h): store-backed
// write-back with bounded retry/backoff, warm restarts through the store,
// corrupt-payload poisoning, staleness refresh (plain and watchdog-guarded),
// and a concurrent serving smoke for the TSan preset (matched by the
// "Maint" in these suite names).

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
#include "store/maintenance_worker.h"
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

std::shared_ptr<serve::ModelManager> MakeManager(
    std::shared_ptr<ModelStore> store) {
  serve::ModelManagerOptions options;
  options.store = std::move(store);
  options.train_query_count = 100;
  auto manager = std::make_shared<serve::ModelManager>(std::move(options));
  manager->RegisterDataset("synth", SmallTable());
  return manager;
}

MaintenanceOptions FastWorkerOptions() {
  MaintenanceOptions options;
  options.interval_ms = 5;
  options.backoff_base_ms = 1;
  options.backoff_max_ms = 4;
  return options;
}

TEST(MaintenanceWorkerTest, WriteBackThenWarmRestart) {
  const std::string dir = UniqueDir("writeback");
  auto store = MakeStore(dir);
  auto manager = MakeManager(store);

  // Cold train enqueues a save; nothing reaches the store until the worker
  // runs — serving threads never pay for persistence.
  ASSERT_NE(manager->GetModel("synth", "postgres"), nullptr);
  EXPECT_EQ(manager->counters().cold_trains, 1u);
  EXPECT_EQ(manager->counters().saves_enqueued, 1u);
  EXPECT_EQ(store->stats().puts, 0u);

  MaintenanceWorker worker(manager, store, FastWorkerOptions());
  EXPECT_GE(worker.TickNow(), 1u);
  EXPECT_EQ(worker.stats().saves_committed, 1u);
  EXPECT_EQ(store->stats().commits, 1u);

  // A new process over the same store warm-starts: loaded, not trained.
  auto restarted = MakeManager(store);
  auto model = restarted->GetModel("synth", "postgres");
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->source, "loaded");
  EXPECT_EQ(restarted->counters().persisted_loads, 1u);
  EXPECT_EQ(restarted->counters().cold_trains, 0u);
}

TEST(MaintenanceWorkerTest, WriteBackRetriesWithBackoff) {
  const std::string dir = UniqueDir("retry");
  // First two write ops fail like ENOSPC; the third Put attempt lands.
  auto store = MakeStore(dir, "store-enospc:times=2");
  auto manager = MakeManager(store);
  ASSERT_NE(manager->GetModel("synth", "postgres"), nullptr);

  MaintenanceOptions options = FastWorkerOptions();
  options.save_max_attempts = 3;
  MaintenanceWorker worker(manager, store, options);
  EXPECT_GE(worker.TickNow(), 1u);

  const WorkerStats stats = worker.stats();
  EXPECT_EQ(stats.saves_committed, 1u);
  EXPECT_EQ(stats.save_retries, 2u);
  EXPECT_EQ(stats.save_failures, 0u);
  EXPECT_EQ(store->stats().commit_failures, 2u);
  EXPECT_EQ(store->stats().commits, 1u);
}

TEST(MaintenanceWorkerTest, WriteBackGivesUpAfterAttemptBudget) {
  const std::string dir = UniqueDir("giveup");
  auto store = MakeStore(dir, "store-enospc:times=-1");  // never recovers.
  auto manager = MakeManager(store);
  ASSERT_NE(manager->GetModel("synth", "postgres"), nullptr);

  MaintenanceOptions options = FastWorkerOptions();
  options.save_max_attempts = 2;
  MaintenanceWorker worker(manager, store, options);
  worker.TickNow();

  const WorkerStats stats = worker.stats();
  EXPECT_EQ(stats.saves_committed, 0u);
  EXPECT_EQ(stats.save_failures, 1u);
  EXPECT_EQ(stats.save_retries, 1u);
}

TEST(MaintenanceWorkerTest, CorruptStorePayloadPoisonsOnlyThatLoad) {
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

TEST(MaintenanceWorkerTest, RefreshesStaleModelsAndPersistsThem) {
  const std::string dir = UniqueDir("refresh");
  auto store = MakeStore(dir);
  auto manager = MakeManager(store);
  ASSERT_NE(manager->GetModel("synth", "postgres"), nullptr);

  MaintenanceWorker worker(manager, store, FastWorkerOptions());
  worker.TickNow();  // persist generation 1.
  ASSERT_EQ(store->stats().commits, 1u);

  const uint64_t version = manager->ApplyUpdate("synth", 0.2, /*seed=*/11);
  ASSERT_GE(version, 1u);
  worker.TickNow();  // refresh the stale model, then persist generation 2.

  EXPECT_EQ(worker.stats().refreshes, 1u);
  auto model = manager->GetModel("synth", "postgres");
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->data_version, version);
  EXPECT_EQ(model->source, "refreshed");

  std::string payload;
  uint64_t generation = 0;
  ASSERT_TRUE(store->Get("synth", "postgres", &payload, &generation));
  EXPECT_EQ(generation, 2u);
}

TEST(MaintenanceWorkerTest, GuardedRefreshCompletesUnderDeadline) {
  const std::string dir = UniqueDir("guarded");
  auto store = MakeStore(dir);
  auto manager = MakeManager(store);
  ASSERT_NE(manager->GetModel("synth", "postgres"), nullptr);

  MaintenanceOptions options = FastWorkerOptions();
  options.refresh_deadline_seconds = 30.0;  // generous; exercises RunGuarded.
  MaintenanceWorker worker(manager, store, options);
  worker.TickNow();
  manager->ApplyUpdate("synth", 0.2, /*seed=*/13);
  worker.TickNow();
  EXPECT_EQ(worker.stats().refreshes, 1u);
  EXPECT_EQ(worker.stats().refresh_failures, 0u);
}

// Concurrency smoke for the TSan preset: a running background worker, two
// serving threads estimating, and a data update racing a write-back.
TEST(MaintServeSmokeTest, ConcurrentServeUpdateAndMaintenance) {
  const std::string dir = UniqueDir("smoke");
  auto store = MakeStore(dir);
  auto manager = MakeManager(store);

  MaintenanceWorker worker(manager, store, FastWorkerOptions());
  worker.Start();

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
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  done = true;
  for (std::thread& t : threads) t.join();
  worker.Stop();
  manager->WaitForRefreshes();

  // The worker ran: the cold train reached the store.
  EXPECT_GE(worker.stats().ticks, 1u);
  EXPECT_GE(store->stats().commits, 1u);
  EXPECT_EQ(store->VerifyAll(), 0u);
}

}  // namespace
}  // namespace arecel::store
